#include "core/ddpolice.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/adaptive.hpp"
#include "net/message.hpp"
#include "snapshot/state_io.hpp"
#include "util/log.hpp"
#include "util/spans.hpp"

namespace ddp::core {

namespace {

/// The wire format carries per-minute counters as u32 (Table 1); quantize
/// the engine's double-valued truth the way a real servent would.
std::uint32_t quantize_counter(double v) noexcept {
  if (!(v > 0.0)) return 0;
  constexpr double kMax = static_cast<double>(std::numeric_limits<std::uint32_t>::max());
  return v >= kMax ? std::numeric_limits<std::uint32_t>::max()
                   : static_cast<std::uint32_t>(std::llround(v));
}

// Undamaged wire bytes decode to exactly what was sent, so a transfer runs
// the codec only when the channel corrupts it. corrupt() is the only draw
// that depends on the bytes, so skipping the codec moves no rng stream.

/// `advertised` encoded as a Neighbor_List, damaged by `ch` when non-null,
/// and decoded; nullopt when the receiver cannot decode a list.
std::optional<std::vector<PeerId>> list_through_codec(
    const std::vector<PeerId>& advertised, fault::UnreliableChannel* ch) {
  net::Message m;
  m.header.type = net::PayloadType::kNeighborList;
  net::NeighborList nl;
  nl.entries.reserve(advertised.size());
  for (PeerId id : advertised) nl.entries.push_back({id, 6346});
  m.payload = std::move(nl);
  std::vector<std::uint8_t> bytes = net::encode(m);
  if (ch != nullptr) ch->corrupt(bytes);
  const auto decoded = net::decode(bytes);
  if (!decoded || decoded->type() != net::PayloadType::kNeighborList) {
    return std::nullopt;
  }
  std::vector<PeerId> received;
  for (const auto& e : std::get<net::NeighborList>(decoded->payload).entries) {
    received.push_back(e.ip);
  }
  return received;
}

/// Send `reply` as a Neighbor_Traffic message (Table 1) over bytes `ch`
/// damages. False when the judge rejects what arrives: undecodable,
/// another type, or identity fields altered in flight (structured
/// validation). Otherwise `reply` becomes what was decoded, including any
/// damage validation cannot see.
bool reply_survives_damage(fault::UnreliableChannel& ch,
                           net::NeighborTraffic& reply) {
  net::Message m;
  m.header.type = net::PayloadType::kNeighborTraffic;
  m.payload = reply;
  std::vector<std::uint8_t> bytes = net::encode(m);
  ch.corrupt(bytes);
  const auto decoded = net::decode(bytes);
  if (!decoded || decoded->type() != net::PayloadType::kNeighborTraffic) {
    return false;
  }
  const auto& got = std::get<net::NeighborTraffic>(decoded->payload);
  if (got.source_ip != reply.source_ip || got.suspect_ip != reply.suspect_ip) {
    return false;
  }
  reply = got;
  return true;
}

}  // namespace

DdPolice::DdPolice(OverlayPort& port, const DdPoliceConfig& config, util::Rng rng)
    : port_(port), config_(config), rng_(rng) {
  if (config_.cut_policy == CutPolicy::kQuarantine) {
    // A dedicated fork: ledger reconnection draws never perturb the
    // protocol's own stream (fork is const, so the stagger draws below
    // are bit-identical whether or not the ledger exists).
    ledger_.emplace(port_, config_, rng_.fork("quarantine"));
  }
  if (config_.adaptive.enabled) {
    adaptive_ = std::make_unique<AdaptiveThresholds>(port_, config_);
    if (ledger_) adaptive_->set_ledger(&*ledger_);
  }
  const std::size_t n = port_.graph().node_count();
  next_exchange_minute_.resize(n);
  last_advertised_.resize(n);
  // Stagger first advertisements uniformly inside one period so the whole
  // overlay does not synchronize (Sec. 3.1's overhead concern).
  for (std::size_t p = 0; p < n; ++p) {
    next_exchange_minute_[p] =
        rng_.uniform() * std::max(config_.exchange_period_minutes, 1e-6);
  }
}

DdPolice::~DdPolice() = default;

void DdPolice::set_trace_sink(obs::TraceSink* sink) noexcept {
  tracer_.bind(sink);
  if (ledger_) ledger_->set_trace_sink(sink);
  if (adaptive_) adaptive_->set_trace_sink(sink);
}

const fault::ControlCounters& DdPolice::control_stats() const noexcept {
  static const fault::ControlCounters kZero{};
  return fault_ != nullptr ? fault_->control() : kZero;
}

const DdPolice::Snapshot* DdPolice::find_snapshot(PeerId holder,
                                                  PeerId about) const noexcept {
  const std::vector<Snapshot>* held = snapshots_.find(holder);
  if (held == nullptr) return nullptr;
  for (const Snapshot& s : *held) {
    if (s.about == about) return &s;
  }
  return nullptr;
}

DdPolice::Snapshot& DdPolice::snapshot_for(PeerId holder, PeerId about) {
  std::vector<Snapshot>& held = snapshots_[holder];
  for (Snapshot& s : held) {
    if (s.about == about) return s;
  }
  ++snapshot_count_;
  held.emplace_back();
  held.back().about = about;
  return held.back();
}

std::vector<PeerId> DdPolice::snapshot_of(PeerId holder, PeerId about) const {
  const Snapshot* s = find_snapshot(holder, about);
  return s == nullptr ? std::vector<PeerId>{} : s->members;
}

void DdPolice::on_minute(double minute) {
  // Ledger sweep first: releases/probations/re-isolations settle against
  // the post-churn topology before this minute's exchanges and rounds,
  // so a probationer's fresh edges are advertised in the same minute.
  if (ledger_) ledger_->on_minute(minute);
  // Adaptive bands feed on the completed minute's counters before the
  // detection phase consults the rails derived from them.
  if (adaptive_) adaptive_->on_minute(minute);
  exchange_phase(minute);
  detection_phase(minute);
}

void DdPolice::exchange_phase(double minute) {
  const auto& g = port_.graph();

  // Connection handshake: when a link is established, both endpoints
  // advertise their updated neighbour lists to all of their neighbours
  // (Sec. 3.1: "a joining peer creates its BG membership after its first
  // neighbor list exchanging operation"; joins/new connections are pushed
  // like the event-driven policy). Departures, by contrast, propagate only
  // with the periodic refresh — that residual staleness is what the
  // exchange-frequency study of Sec. 3.7.1 measures.
  std::vector<PeerId> fresh;
  for (PeerId p = 0; p < g.node_count(); ++p) {
    if (!g.is_active(p)) continue;
    for (PeerId n : g.neighbors(p)) {
      if (find_snapshot(n, p) == nullptr) {
        fresh.push_back(p);
        break;
      }
    }
  }
  for (PeerId p : fresh) advertise(p, minute);

  for (PeerId p = 0; p < g.node_count(); ++p) {
    if (!g.is_active(p) || g.degree(p) == 0) continue;
    if (config_.exchange_policy == ExchangePolicy::kPeriodic) {
      if (minute + 1e-9 >= next_exchange_minute_[p]) {
        advertise(p, minute);
        next_exchange_minute_[p] = minute + config_.exchange_period_minutes;
      }
    } else {
      // Event-driven: advertise whenever the membership changed since the
      // last advertisement (joins/leaves both trigger, Sec. 3.1).
      sort_neighbors(p);
      if (truth_ != last_advertised_[p]) advertise(p, minute);
    }
  }

  // Keep-alive pings among buddy-group members (Sec. 3.1): one ping per
  // held buddy-group snapshot per ping period. (Real servents piggyback
  // these on the Gnutella keep-alive Pings they exchange anyway.)
  if (config_.ping_period_minutes > 0.0) {
    const double per_minute =
        static_cast<double>(snapshot_count_) / config_.ping_period_minutes;
    traffic_messages_ += static_cast<std::uint64_t>(per_minute);
    port_.report_overhead(per_minute);
  }
}

void DdPolice::sort_neighbors(PeerId p) {
  const auto peers = port_.graph().neighbors(p);
  truth_.assign(peers.begin(), peers.end());
  std::sort(truth_.begin(), truth_.end());
}

const std::vector<PeerId>* DdPolice::deliver_list_over_faulty_transport(
    PeerId sender, const std::vector<PeerId>& advertised) {
  auto& ch = fault_->channel();
  auto& ctr = fault_->control();
  // A crashed or stalled sender advertises nothing at all.
  if (!fault_->peers().is_responsive(sender)) return nullptr;
  const int attempts = 1 + std::max(0, config_.max_exchange_retries);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      ++ctr.retries;
      ctr.backoff_seconds_total += config_.retry_backoff_base_seconds *
                                   static_cast<double>(1 << (attempt - 1));
    }
    ++exchange_messages_;
    port_.report_overhead(1.0);
    const fault::Transfer t = ch.transfer();
    if (!t.delivered) continue;  // no ack will come; retry after backoff
    // The advertisement crosses the wire as a real Neighbor_List message
    // and the receiver validates what arrived. The codec runs for damaged
    // bytes, and for a list longer than the wire's u16 entry count.
    const std::vector<PeerId>* arrived = &advertised;
    if (t.corrupted ||
        advertised.size() > std::numeric_limits<std::uint16_t>::max()) {
      std::optional<std::vector<PeerId>> decoded =
          list_through_codec(advertised, t.corrupted ? &ch : nullptr);
      if (!decoded) {
        ++ctr.corrupt_rejects;  // receiver discards garbage, sends no ack
        continue;
      }
      received_ = std::move(*decoded);
      arrived = &received_;
    }
    // Structured reject: an entry names a nonexistent peer.
    const std::size_t n = port_.graph().node_count();
    if (std::ranges::any_of(*arrived, [n](PeerId id) { return id >= n; })) {
      ++ctr.corrupt_rejects;
      continue;
    }
    // Ack leg: a lost ack only causes a redundant (idempotent) re-send, so
    // first successful delivery wins. Entries whose bit flips survived
    // validation arrive silently altered — exactly the hazard the
    // consistency check downstream has to absorb.
    return arrived;
  }
  ++ctr.timeouts;  // receiver keeps its stale snapshot
  return nullptr;
}

bool DdPolice::advertise_to(PeerId p, PeerId receiver, double minute) {
  // A list policy runs once per receiver, as a liar would: it may draw.
  const std::vector<PeerId>* advertised = &truth_;
  if (list_policy_) {
    policy_list_ = list_policy_(p, truth_);
    advertised = &policy_list_;
  }
  if (transport_faulty()) {
    advertised = deliver_list_over_faulty_transport(p, *advertised);
    if (advertised == nullptr) return false;
  } else {
    ++exchange_messages_;
    port_.report_overhead(1.0);
  }
  Snapshot& snap = snapshot_for(receiver, p);
  // An exact-size copy: a reused buffer would keep the capacity of the
  // longest list it ever held, which costs more memory than it saves time.
  snap.prev_members = std::move(snap.members);
  snap.members = *advertised;
  snap.minute = minute;
  DDP_TRACE(tracer_, obs::EventType::kNeighborListSent, minute * kMinute, p,
            receiver, {{"entries", static_cast<double>(snap.members.size())}});

  if (!config_.verify_neighbor_lists) return false;
  // Consistency check (Sec. 3.1). Fabricated entries: the receiver
  // confirms each claimed pair with the named peer — but only entries
  // that are new relative to the previous advertisement (already-verified
  // pairs need no re-confirmation). Withheld entries: the receiver knows
  // it is p's neighbour, so its own absence from the advertised list is
  // immediately visible at no message cost. adjacent_ marks p's
  // neighbours (advertise) and listed_ the previous list's entries; ids
  // past the node count (fabricated or corrupted) are never marked, so
  // they take the linear test.
  const std::size_t n = port_.graph().node_count();
  listed_.clear(n);
  for (PeerId m : snap.prev_members) {
    if (m < n) listed_.set(m);
  }
  bool violated = false;
  bool names_receiver = false;
  double verified = 0.0;
  for (PeerId claimed : snap.members) {
    const bool already_known =
        claimed < n ? listed_.has(claimed)
                    : std::ranges::find(snap.prev_members, claimed) !=
                          snap.prev_members.end();
    if (!already_known) verified += 1.0;
    names_receiver = names_receiver || claimed == receiver;
    if (claimed != p && !adjacent_.has(claimed)) {
      violated = true;
      break;
    }
  }
  // Without a violation the loop saw every entry, so names_receiver is
  // the whole list's answer.
  if (!violated && !names_receiver) violated = true;
  exchange_messages_ += static_cast<std::uint64_t>(verified);
  port_.report_overhead(verified);
  if (!violated) return false;
  Decision d;
  d.minute = minute;
  d.judge = receiver;
  d.suspect = p;
  d.list_violation = true;
  decisions_.push_back(d);
  DDP_TRACE(tracer_, obs::EventType::kListViolation, minute * kMinute, p,
            receiver);
  port_.disconnect(receiver, p);
  return true;
}

void DdPolice::advertise(PeerId p, double minute) {
  // Copy: the consistency check may disconnect while we iterate.
  receivers_.assign(port_.graph().neighbors(p).begin(),
                    port_.graph().neighbors(p).end());
  list_truth(p);
  last_advertised_[p] = truth_;
  for (PeerId n : receivers_) {
    // A check that cut a link changed p's list for the receivers after it.
    if (advertise_to(p, n, minute)) list_truth(p);
  }
}

void DdPolice::list_truth(PeerId p) {
  sort_neighbors(p);
  if (!config_.verify_neighbor_lists) return;
  const auto& g = port_.graph();
  adjacent_.clear(g.node_count());
  for (PeerId n : g.neighbors(p)) adjacent_.set(n);
}

void DdPolice::detection_phase(double minute) {
  const auto& g = port_.graph();
  // Group suspicious neighbours by suspect: if several members of a buddy
  // group raise suspicion in the same minute they share one round (the
  // Neighbor_Traffic suppression window of Sec. 3.3).
  // Rounds run in first-flag order (judges scan in PeerId order), so the
  // per-minute round sequence is canonical rather than hash-layout-driven.
  // Scratch buffers persist across minutes: the per-suspect judge vectors
  // keep their capacity, so steady-state detection allocates nothing.
  // Each peer's counters come in one read; at r = 2 its out counters also
  // give its send peak.
  const bool peaks = config_.buddy_radius >= 2;
  if (peaks) send_peaks_.assign(g.node_count(), SendPeak{});
  flagged_.clear();
  for (PeerId i = 0; i < g.node_count(); ++i) {
    if (!g.is_active(i)) continue;
    port_.link_minutes(i, links_);
    const auto in_slots = g.in_slots(i);
    for (std::size_t k = 0; k < links_.size(); ++k) {
      const PeerId j = links_[k].peer;
      const double out = links_[k].in_queries;
      const double warn = adaptive_ ? adaptive_->warning_threshold(in_slots[k])
                                    : config_.warning_threshold;
      if (out > warn) {
        ++suspicions_;
        auto& judges = judges_scratch_[j];
        if (judges.empty()) flagged_.push_back(j);
        judges.push_back(i);
        DDP_TRACE(tracer_, obs::EventType::kSuspectFlagged, minute * kMinute,
                  j, i, {{"out", out}});
      }
    }
    if (!peaks) continue;
    SendPeak& peak = send_peaks_[i];
    for (const LinkMinute& l : links_) {
      if (l.out_queries > peak.top) {
        peak.second = peak.top;
        peak.top = l.out_queries;
        peak.top_to = l.peer;
      } else if (l.out_queries > peak.second) {
        peak.second = l.out_queries;
      }
    }
  }
  // All rounds of this minute evaluate against the same completed-minute
  // counters and the intact topology; the resulting disconnects apply
  // afterwards (the Neighbor_Traffic exchanges of every round fit inside
  // the same suppression window). This also makes the outcome independent
  // of round processing order.
  pending_disconnects_.clear();
  for (PeerId suspect : flagged_) {
    run_round(suspect, judges_scratch_[suspect], minute);
  }
  for (PeerId suspect : flagged_) judges_scratch_[suspect].clear();
  for (const auto& [judge, suspect] : pending_disconnects_) {
    port_.disconnect(judge, suspect);
  }
  if (ledger_ && !pending_disconnects_.empty()) {
    // One ledger verdict per suspect per minute, however many judges
    // concurred; sorted so strike order is hash-map independent.
    std::vector<PeerId> suspects;
    suspects.reserve(pending_disconnects_.size());
    for (const auto& [judge, suspect] : pending_disconnects_) {
      (void)judge;
      suspects.push_back(suspect);
    }
    std::sort(suspects.begin(), suspects.end());
    suspects.erase(std::unique(suspects.begin(), suspects.end()),
                   suspects.end());
    for (PeerId s : suspects) ledger_->on_cut(s, minute);
  }
}

void DdPolice::append_believed_group(PeerId judge, PeerId suspect,
                                     std::vector<PeerId>& out) {
  // Union of the current and previous advertised lists: a feeder that
  // disappeared from the suspect's latest advertisement still carried
  // traffic during the counted minute, so the judge keeps consulting it
  // for one more generation (its monitors remember that minute too).
  // listed_ marks the group's ids below the node count; ids past it
  // (fabricated entries) take the linear test.
  const std::size_t n = port_.graph().node_count();
  const auto first = static_cast<std::ptrdiff_t>(out.size());
  listed_.clear(n);
  const auto listed = [this, &out, first, n](PeerId m) {
    return m < n ? listed_.has(m)
                 : std::find(out.begin() + first, out.end(), m) != out.end();
  };
  if (const Snapshot* snap = find_snapshot(judge, suspect)) {
    out.insert(out.end(), snap->members.begin(), snap->members.end());
    for (PeerId m : snap->members) {
      if (m < n) listed_.set(m);
    }
    for (PeerId m : snap->prev_members) {
      if (listed(m)) continue;
      out.push_back(m);
      if (m < n) listed_.set(m);
    }
  }
  // The judge always knows its own membership, snapshot or not.
  if (!listed(judge)) out.push_back(judge);
}

MemberReport DdPolice::collect_report(
    PeerId member, PeerId suspect, const std::optional<TrafficTruth>& answer,
    double minute) {
  if (transport_faulty()) {
    // The judge cannot tell a dead member from a mute one or a lossy link:
    // every silent request runs the full timeout/retry loop.
    return collect_over_faulty_transport(member, suspect, answer, minute);
  }
  MemberReport r;
  r.member = member;
  DDP_TRACE(tracer_, obs::EventType::kTrafficRequest, minute * kMinute,
            member, suspect);
  if (!answer) {
    r.responded = false;  // timeout: counters stay zero (Sec. 3.4)
    DDP_TRACE(tracer_, obs::EventType::kTrafficTimeout, minute * kMinute,
              member, suspect);
    return r;
  }
  r.out_to_suspect = answer->out_to_suspect;
  r.in_from_suspect = answer->in_from_suspect;
  DDP_TRACE(tracer_, obs::EventType::kTrafficReply, minute * kMinute, member,
            suspect,
            {{"out", r.out_to_suspect}, {"in", r.in_from_suspect}});
  return r;
}

MemberReport DdPolice::collect_over_faulty_transport(
    PeerId member, PeerId suspect, const std::optional<TrafficTruth>& answer,
    double minute) {
  auto& ch = fault_->channel();
  auto& ctr = fault_->control();
  MemberReport r;
  r.member = member;
  r.responded = false;
  DDP_TRACE(tracer_, obs::EventType::kTrafficRequest, minute * kMinute,
            member, suspect);
  const int attempts = 1 + std::max(0, config_.max_report_retries);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      ++ctr.retries;
      ctr.backoff_seconds_total += config_.retry_backoff_base_seconds *
                                   static_cast<double>(1 << (attempt - 1));
      ++traffic_messages_;  // the re-sent request
      port_.report_overhead(1.0);
      DDP_TRACE(tracer_, obs::EventType::kTrafficRetry, minute * kMinute,
                member, suspect, {{"attempt", static_cast<double>(attempt)}});
    }
    // Request leg.
    const fault::Transfer req = ch.transfer();
    if (!req.delivered) continue;
    // The member must be up, awake and willing (ReportPolicy) to answer.
    if (!answer || !fault_->peers().is_responsive(member)) continue;
    // Response leg: the reply is a Neighbor_Traffic message (Table 1) with
    // the answer quantized as the wire carries it; damaged bytes are
    // decoded and validated.
    const fault::Transfer resp = ch.transfer();
    if (!resp.delivered) continue;
    net::NeighborTraffic reply;
    reply.source_ip = member;
    reply.suspect_ip = suspect;
    reply.timestamp = static_cast<std::uint32_t>(minute * kMinute);
    reply.outgoing_queries = quantize_counter(answer->out_to_suspect);
    reply.incoming_queries = quantize_counter(answer->in_from_suspect);
    if (resp.corrupted && !reply_survives_damage(ch, reply)) {
      ++ctr.corrupt_rejects;
      DDP_TRACE(tracer_, obs::EventType::kCorruptReject, minute * kMinute,
                member, suspect);
      continue;
    }
    // Round trip: request + reply latency, the latter scaled by the
    // member's processing speed (slow peers answer late).
    const double rtt =
        req.delay + resp.delay * fault_->peers().latency_factor(member);
    if (rtt > config_.collect_timeout_seconds) {
      ++ctr.late_replies;
      DDP_TRACE(tracer_, obs::EventType::kLateReply, minute * kMinute, member,
                suspect, {{"rtt", rtt}});
      continue;
    }
    r.out_to_suspect = reply.outgoing_queries;
    r.in_from_suspect = reply.incoming_queries;
    r.responded = true;
    DDP_TRACE(tracer_, obs::EventType::kTrafficReply, minute * kMinute,
              member, suspect,
              {{"out", r.out_to_suspect}, {"in", r.in_from_suspect}});
    return r;
  }
  ++ctr.timeouts;  // retries exhausted: count-as-zero (Sec. 3.4)
  DDP_TRACE(tracer_, obs::EventType::kTrafficTimeout, minute * kMinute,
            member, suspect);
  return r;
}

void DdPolice::run_round(PeerId suspect, const std::vector<PeerId>& judges,
                         double minute) {
  ++rounds_;
  const auto& g = port_.graph();

  // Each judge's believed group, built once: the message accounting and
  // the judge's own report set both read it. The judges of one suspect
  // usually hold the same advertisement, so a group equal to the previous
  // judge's is kept once; a hub's round then stores one copy, not one per
  // judge.
  groups_.clear();
  group_spans_.clear();
  for (PeerId judge : judges) {
    util::IndexSpan span{groups_.size(), 0};
    append_believed_group(judge, suspect, groups_);
    span.end = groups_.size();
    const std::span<const PeerId> all(groups_);
    if (!group_spans_.empty()) {
      const util::IndexSpan prev = group_spans_.back();
      if (std::ranges::equal(all.subspan(prev.begin, prev.size()),
                             all.subspan(span.begin, span.size()))) {
        groups_.resize(span.begin);
        span = prev;
      }
    }
    group_spans_.push_back(span);
  }

  // Message accounting: the union of believed members exchange
  // Neighbor_Traffic once each (suppression collapses duplicates).
  union_scratch_.assign(groups_.begin(), groups_.end());
  std::sort(union_scratch_.begin(), union_scratch_.end());
  union_scratch_.erase(
      std::unique(union_scratch_.begin(), union_scratch_.end()),
      union_scratch_.end());
  const double u = static_cast<double>(union_scratch_.size());
  const double msgs = u > 1.0 ? u * (u - 1.0) : 0.0;
  traffic_messages_ += static_cast<std::uint64_t>(msgs);
  port_.report_overhead(msgs);

  // The suspect's links in one read, marked by position: a member or judge
  // adjacent to the suspect finds both of its counters there, and the
  // mark is its has_edge(member, suspect). Counters and topology hold
  // still through the detection phase.
  const std::size_t n = g.node_count();
  port_.link_minutes(suspect, links_);
  adjacent_.clear(n);
  for (std::size_t k = 0; k < links_.size(); ++k) {
    adjacent_.set(links_[k].peer, static_cast<std::uint32_t>(k));
  }

  // One answer per member per round (Sec. 3.3: one Neighbor_Traffic per
  // suppression window), shared by every judge that asks. This is exact:
  // counters and topology hold still through the detection phase, and a
  // ReportPolicy is pure. A list policy can name any id; such a member
  // stays silent. listed_ maps each member below the node count to its
  // row; ids past it take a binary search.
  answers_.clear();
  listed_.clear(n);
  for (std::size_t row = 0; row < union_scratch_.size(); ++row) {
    const PeerId m = union_scratch_[row];
    if (m >= n) {
      answers_.emplace_back();
      continue;
    }
    listed_.set(m, static_cast<std::uint32_t>(row));
    if (!g.is_active(m)) {
      answers_.emplace_back();
      continue;
    }
    // A member no longer adjacent (a stale list) reads the ghost counters.
    const TrafficTruth truth =
        adjacent_.has(m)
            ? TrafficTruth{links_[adjacent_.at(m)].in_queries,
                           links_[adjacent_.at(m)].out_queries}
            : TrafficTruth{port_.sent_last_minute(m, suspect),
                           port_.sent_last_minute(suspect, m)};
    answers_.push_back(report_policy_ ? report_policy_(m, suspect, truth)
                                      : std::optional<TrafficTruth>(truth));
  }

  for (std::size_t k = 0; k < judges.size(); ++k) {
    const PeerId judge = judges[k];
    if (!g.is_active(judge) || !adjacent_.has(judge)) continue;
    const std::uint32_t own_pos = adjacent_.at(judge);
    const LinkMinute& own = links_[own_pos];

    reports_.clear();
    const util::IndexSpan span = group_spans_[k];
    for (std::size_t i = span.begin; i < span.end; ++i) {
      const PeerId m = groups_[i];
      if (m == judge) {
        reports_.push_back({judge, own.in_queries, own.out_queries, true});
        continue;
      }
      const std::size_t row =
          m < n ? listed_.at(m)
                : static_cast<std::size_t>(
                      std::ranges::lower_bound(union_scratch_, m) -
                      union_scratch_.begin());
      reports_.push_back(collect_report(m, suspect, answers_[row], minute));
    }

    if (config_.buddy_radius >= 2) {
      // DD-POLICE-r with r = 2: cross-check each member's claimed input
      // into the suspect against what that member observably sends its
      // *other* neighbours (the judge asks them — the members' buddy
      // groups, two hops from the suspect). Gnutella forwarding and the
      // paper's attack model are both per-link uniform, so a member whose
      // other links carry X queries/min cannot plausibly have sent the
      // suspect a tiny fraction of X. A colluding deflater (Sec. 3.4,
      // Case 2) is therefore overridden by its own traffic. X comes from
      // this minute's send-peak table (filled by the flag scan).
      for (auto& r : reports_) {
        if (r.member == judge || r.member >= n) continue;
        // A member no longer adjacent to the suspect (a stale list, or a
        // list-violation cut earlier this minute) is still cross-checked:
        // its monitors (and our ghost counters) cover the counted minute,
        // and every one of its links is asked.
        if (!g.is_active(r.member)) continue;
        const std::size_t asked =
            g.degree(r.member) - (adjacent_.has(r.member) ? 1 : 0);
        if (asked == 0) continue;
        const double overhead = static_cast<double>(asked);
        traffic_messages_ += static_cast<std::uint64_t>(overhead);
        port_.report_overhead(overhead);
        const SendPeak& peak = send_peaks_[r.member];
        const double max_other_link =
            peak.top_to == suspect ? peak.second : peak.top;
        // 0.9: slack for per-link bandwidth differences.
        r.out_to_suspect = std::max(r.out_to_suspect, 0.9 * max_other_link);
      }
    }

    // A buddy group needs buddies: a judge with no other believed member
    // has nobody to corroborate with, so the protocol cannot conclude
    // (the suspect may simply be forwarding for peers unknown to us).
    if (reports_.size() < 2) continue;
    const double ct =
        adaptive_ ? adaptive_->cut_threshold(g.out_slots(suspect)[own_pos],
                                             own.out_queries)
                  : config_.cut_threshold;
    if (std::optional<Decision> d =
            verdict(reports_, judge, suspect, ct, config_, minute, tracer_)) {
      d->true_degree = static_cast<std::uint32_t>(g.degree(suspect));
      record_cut(*d, decisions_, tracer_);
      pending_disconnects_.emplace_back(judge, suspect);
    }
  }
}

std::optional<Decision> verdict(const std::vector<MemberReport>& reports,
                                PeerId judge, PeerId suspect, double ct,
                                const DdPoliceConfig& config, double minute,
                                const obs::Tracer& tracer) {
  const double q = config.good_issue_bound;
  const double cap = config.capacity_bound_per_minute;
  Decision d;
  d.minute = minute;
  d.judge = judge;
  d.suspect = suspect;
  d.g = general_indicator(reports, q, cap);
  d.s = single_indicator(reports, judge, q, cap);
  d.believed_k = static_cast<std::uint32_t>(reports.size());
  for (const MemberReport& r : reports) {
    if (r.responded) ++d.responders;
  }
  DDP_TRACE(tracer, obs::EventType::kIndicatorComputed, minute * kMinute,
            suspect, judge,
            {{"g", d.g},
             {"s", d.s},
             {"k", static_cast<double>(d.believed_k)},
             {"responders", static_cast<double>(d.responders)}});
  const bool g_trips = d.g > ct;
  if (!g_trips && !(d.s > ct)) return std::nullopt;
  d.via_single = !g_trips;
  return d;
}

void record_cut(const Decision& d, std::vector<Decision>& decisions,
                const obs::Tracer& tracer) {
  decisions.push_back(d);
  DDP_TRACE(tracer, obs::EventType::kSuspectCut, d.minute * kMinute, d.suspect,
            d.judge,
            {{"g", d.g}, {"s", d.s}, {"via_single", d.via_single ? 1.0 : 0.0}});
}

namespace {

void save_peer_vector(snapshot::Writer& w, const std::vector<PeerId>& v) {
  w.size(v.size());
  for (const PeerId p : v) w.u32(p);
}

void load_peer_vector(snapshot::Reader& r, std::vector<PeerId>& v) {
  v.resize(r.size(1u << 24));
  for (PeerId& p : v) p = r.u32();
}

}  // namespace

void save_decision(snapshot::Writer& w, const Decision& d) {
  w.f64(d.minute);
  w.u32(d.judge);
  w.u32(d.suspect);
  w.f64(d.g);
  w.f64(d.s);
  w.boolean(d.via_single);
  w.boolean(d.list_violation);
  w.u32(d.believed_k);
  w.u32(d.responders);
  w.u32(d.true_degree);
}

void load_decision(snapshot::Reader& r, Decision& d) {
  d.minute = r.f64();
  d.judge = r.u32();
  d.suspect = r.u32();
  d.g = r.f64();
  d.s = r.f64();
  d.via_single = r.boolean();
  d.list_violation = r.boolean();
  d.believed_k = r.u32();
  d.responders = r.u32();
  d.true_degree = r.u32();
}

void DdPolice::save(snapshot::Writer& w) const {
  w.size(snapshots_.extent());
  snapshots_.for_each([&w](PeerId, const std::vector<Snapshot>& held) {
    w.size(held.size());
    for (const Snapshot& s : held) {
      w.u32(s.about);
      save_peer_vector(w, s.members);
      save_peer_vector(w, s.prev_members);
      w.f64(s.minute);
    }
  });
  w.u64(snapshot_count_);
  snapshot::save_f64_vector(w, next_exchange_minute_);
  w.size(last_advertised_.size());
  for (const std::vector<PeerId>& adv : last_advertised_) save_peer_vector(w, adv);

  w.size(decisions_.size());
  for (const Decision& d : decisions_) save_decision(w, d);
  w.u64(exchange_messages_);
  w.u64(traffic_messages_);
  w.u64(rounds_);
  w.u64(suspicions_);

  w.boolean(ledger_.has_value());
  if (ledger_) ledger_->save(w);
  snapshot::save_rng(w, rng_);
}

void DdPolice::load(snapshot::Reader& r) {
  constexpr std::size_t kMaxPeers = 1u << 24;
  const std::size_t extent = r.size(kMaxPeers);
  snapshots_.clear();
  snapshot_count_ = 0;
  for (PeerId holder = 0; holder < extent; ++holder) {
    std::vector<Snapshot>& held = snapshots_[holder];
    held.resize(r.size(kMaxPeers));
    for (Snapshot& s : held) {
      s.about = r.u32();
      load_peer_vector(r, s.members);
      load_peer_vector(r, s.prev_members);
      s.minute = r.f64();
    }
  }
  snapshot_count_ = r.u64();
  snapshot::load_f64_vector(r, next_exchange_minute_, kMaxPeers);
  last_advertised_.resize(r.size(kMaxPeers));
  for (std::vector<PeerId>& adv : last_advertised_) load_peer_vector(r, adv);

  decisions_.resize(r.size(1u << 26));
  for (Decision& d : decisions_) load_decision(r, d);
  exchange_messages_ = r.u64();
  traffic_messages_ = r.u64();
  rounds_ = r.u64();
  suspicions_ = r.u64();

  const bool had_ledger = r.boolean();
  if (had_ledger != ledger_.has_value()) {
    throw snapshot::SnapshotError(
        "snapshot cut policy (quarantine ledger presence) disagrees with config");
  }
  if (ledger_) ledger_->load(r);
  snapshot::load_rng(r, rng_);
}

}  // namespace ddp::core
