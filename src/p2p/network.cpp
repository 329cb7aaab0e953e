#include "p2p/network.hpp"

#include <algorithm>

#include "snapshot/state_io.hpp"
#include "util/log.hpp"

namespace ddp::p2p {

namespace {

void save_guid(snapshot::Writer& w, const net::Guid& g) {
  for (const std::uint8_t b : g.bytes) w.u8(b);
}

void load_guid(snapshot::Reader& r, net::Guid& g) {
  for (std::uint8_t& b : g.bytes) b = r.u8();
}

}  // namespace

double LinkMonitors::out_per_minute_at(PeerId from, PeerId to,
                                       SimTime now) const {
  const auto slot = graph_->edge_slot(from, to);
  if (slot == topology::EdgeIndex::kInvalidSlot) return 0.0;
  const util::RateWindow* w = windows_.find(slot);
  return w == nullptr ? 0.0 : w->per_minute_at(now);
}

void LinkMonitors::record(PeerId from, PeerId to, SimTime now) {
  const auto slot = graph_->edge_slot(from, to);
  if (slot == topology::EdgeIndex::kInvalidSlot) return;
  windows_.touch(slot).add(now, 1.0);
}

void LinkMonitors::forget(PeerId a, PeerId b) {
  const auto slot = graph_->edge_slot(a, b);
  if (slot == topology::EdgeIndex::kInvalidSlot) return;
  windows_.erase(slot);
  windows_.erase(graph_->edge_index().reverse(slot));
}

void LinkMonitors::save(snapshot::Writer& w) const {
  std::size_t entries = 0;
  windows_.for_each([&entries](std::uint32_t, const util::RateWindow&) {
    ++entries;
  });
  w.size(entries);
  windows_.for_each([&w](std::uint32_t slot, const util::RateWindow& win) {
    w.u32(slot);
    snapshot::save_rate_window(w, win);
  });
}

void LinkMonitors::load(snapshot::Reader& r) {
  const auto& index = graph_->edge_index();
  windows_.clear();
  windows_.sync();
  const std::size_t entries = r.size(index.capacity());
  for (std::size_t i = 0; i < entries; ++i) {
    const std::uint32_t slot = r.u32();
    if (!index.live(slot)) {
      throw snapshot::SnapshotError(
          "link monitor window references a dead edge slot");
    }
    snapshot::load_rate_window(r, windows_.touch(slot));
  }
}

PacketNetwork::PacketNetwork(topology::Graph& graph,
                             const workload::ContentModel& content,
                             sim::Engine& engine, const P2pConfig& config,
                             util::Rng rng)
    : graph_(graph), content_(content), engine_(engine), config_(config),
      rng_(rng), peers_(graph.node_count()),
      kinds_(graph.node_count(), PeerKind::kGood), monitors_(graph) {
  for (auto& ps : peers_) ps.capacity_per_minute = config_.capacity_per_minute;
}

void PacketNetwork::set_kind(PeerId p, PeerKind kind) { kinds_[p] = kind; }

void PacketNetwork::set_capacity(PeerId p, double per_minute) {
  peers_[p].capacity_per_minute = std::max(1.0, per_minute);
}

double PacketNetwork::service_time(const PeerState& ps) const noexcept {
  return kMinute / ps.capacity_per_minute;
}

QueryId PacketNetwork::issue_query(PeerId origin, workload::ObjectId object) {
  Descriptor d;
  d.kind = Descriptor::Kind::kQuery;
  d.guid = net::Guid::random(rng_);
  d.ttl = config_.ttl;
  d.hops = 0;
  d.origin = origin;
  d.object = object;

  prune_outcomes(engine_.now());
  const QueryId id = next_query_++;
  QueryOutcome out;
  out.id = id;
  out.guid = d.guid;
  out.origin = origin;
  out.issued_at = engine_.now();
  out.attack = kinds_[origin] == PeerKind::kBad;
  outcome_index_.emplace(d.guid, outcome_base_ + outcomes_.size());
  outcomes_.push_back(out);

  ++totals_.queries_issued;
  if (out.attack) ++totals_.attack_queries_issued;
  DDP_TRACE(tracer_, obs::EventType::kQueryIssued, engine_.now(), origin,
            kInvalidPeer,
            {{"query", static_cast<double>(id)},
             {"object", static_cast<double>(object)},
             {"attack", out.attack ? 1.0 : 0.0}});

  // The origin marks the GUID seen (it will drop echoes) and floods to all
  // current neighbours.
  auto& ps = peers_[origin];
  const std::size_t before = ps.seen.size();
  ps.seen.upsert(d.guid, kInvalidPeer, engine_.now());
  note_guid_entries(before, ps.seen.size());
  prune_seen(ps, engine_.now());
  // Copy the neighbour set: transmission callbacks may disconnect links.
  const std::vector<PeerId> nbrs(graph_.neighbors(origin).begin(),
                                 graph_.neighbors(origin).end());
  for (PeerId n : nbrs) transmit(origin, n, d);
  return id;
}

QueryId PacketNetwork::issue_random_query(PeerId origin) {
  return issue_query(origin, content_.sample_query_object(rng_));
}

void PacketNetwork::disconnect(PeerId a, PeerId b) {
  // remove_edge releases the slot pair, which retires both directions'
  // rate windows — no monitor-side cleanup to forget.
  graph_.remove_edge(a, b);
}

bool PacketNetwork::connect(PeerId a, PeerId b) {
  // A fresh edge acquires a fresh slot generation, so the monitors start
  // with no history (a new TCP connection has none).
  if (!graph_.add_edge(a, b)) return false;
  DDP_TRACE(tracer_, obs::EventType::kEdgeAdded, engine_.now(), a, b);
  return true;
}

void PacketNetwork::reset_peer(PeerId p) {
  auto& ps = peers_[p];
  ps.queue.clear();
  const std::size_t before = ps.seen.size();
  ps.seen.clear();
  note_guid_entries(before, 0);
  ps.busy = false;
}

void PacketNetwork::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  guid_gauge_ = registry != nullptr ? registry->gauge("p2p.guid_table_size")
                                    : obs::kInvalidMetric;
  if (metrics_ != nullptr) {
    metrics_->set(guid_gauge_, static_cast<double>(guid_entries_));
  }
}

void PacketNetwork::note_guid_entries(std::size_t before, std::size_t after) {
  guid_entries_ += static_cast<std::uint64_t>(after) -
                   static_cast<std::uint64_t>(before);  // wraps on shrink
  if (metrics_ != nullptr) {
    metrics_->set(guid_gauge_, static_cast<double>(guid_entries_));
  }
}

double PacketNetwork::trace_query_id(const net::Guid& guid) const noexcept {
  const auto it = outcome_index_.find(guid);
  if (it == outcome_index_.end()) return -1.0;  // settled past the horizon
  return static_cast<double>(outcomes_[it->second - outcome_base_].id);
}

void PacketNetwork::transmit(PeerId from, PeerId to, Descriptor d,
                             PeerId parent) {
  ++totals_.messages_sent;
  if (d.kind == Descriptor::Kind::kQuery) {
    monitors_.record(from, to, engine_.now());
    if (on_query_sent) on_query_sent(from, to, engine_.now());
    DDP_TRACE(tracer_, obs::EventType::kQueryForwarded, engine_.now(), from,
              to,
              {{"ttl", static_cast<double>(d.ttl)},
               {"hops", static_cast<double>(d.hops)},
               {"query", trace_query_id(d.guid)},
               {"parent", parent == kInvalidPeer
                              ? -1.0
                              : static_cast<double>(parent)}});
  }
  // Fault-injection fate roll — after the monitors, so DD-POLICE still
  // observes what the sender pushed (loss happens downstream of the
  // sender-side Out_query counter, as in the flow engine).
  std::uint32_t copies = 1;
  double extra_delay = 0.0;
  if (channel_ != nullptr && channel_->active()) {
    const fault::Transfer t = channel_->transfer();
    if (!t.delivered) {
      ++totals_.transport_dropped;
      return;
    }
    if (t.corrupted) {
      // Damaged framing: the receiver cannot parse it and discards.
      ++totals_.transport_corrupted;
      return;
    }
    copies = t.copies;
    if (t.copies > 1) totals_.transport_duplicated += t.copies - 1;
    extra_delay = t.delay;
  }
  for (std::uint32_t c = 0; c < copies; ++c) {
    engine_.schedule_in(config_.hop_latency + extra_delay,
                        [this, from, to, d]() { arrive(to, from, d); },
                        obs::EventCategory::kTransmit);
  }
}

void PacketNetwork::arrive(PeerId at, PeerId from, Descriptor d) {
  if (!graph_.is_active(at)) return;  // peer left while the message flew
  auto& ps = peers_[at];
  ++ps.received;
  if (ps.queue.size() >= config_.queue_limit) {
    ++ps.dropped;
    ++totals_.queries_dropped;
    DDP_TRACE(tracer_, obs::EventType::kQueryDropped, engine_.now(), at,
              from,
              {{"queue", static_cast<double>(ps.queue.size())},
               {"query", trace_query_id(d.guid)}});
    return;
  }
  // Stash the arrival link in the descriptor's bookkeeping so processing
  // knows the inverse path. We reuse hit_responder for queries as "from".
  Descriptor q = d;
  if (q.kind == Descriptor::Kind::kQuery) q.hit_responder = from;
  ps.queue.push_back(q);
  if (!ps.busy) {
    ps.busy = true;
    engine_.schedule_in(service_time(ps), [this, at]() { service_next(at); },
                        obs::EventCategory::kService);
  }
}

void PacketNetwork::service_next(PeerId at) {
  auto& ps = peers_[at];
  if (ps.queue.empty() || !graph_.is_active(at)) {
    ps.busy = false;
    return;
  }
  const Descriptor d = ps.queue.front();
  ps.queue.pop_front();
  ++ps.processed;
  ++totals_.queries_processed;
  const PeerId from =
      d.kind == Descriptor::Kind::kQuery ? d.hit_responder : kInvalidPeer;
  Descriptor clean = d;
  if (clean.kind == Descriptor::Kind::kQuery) clean.hit_responder = kInvalidPeer;
  process(at, from, clean);
  if (!ps.queue.empty()) {
    engine_.schedule_in(service_time(ps), [this, at]() { service_next(at); },
                        obs::EventCategory::kService);
  } else {
    ps.busy = false;
  }
}

void PacketNetwork::process(PeerId at, PeerId from, const Descriptor& d) {
  auto& ps = peers_[at];
  const SimTime now = engine_.now();

  if (d.kind == Descriptor::Kind::kQueryHit) {
    // Route back along the inverse path recorded in the seen-table.
    const GuidTable::Entry* e = ps.seen.find(d.guid);
    if (e == nullptr) return;  // route evaporated (churn) — hit dies
    const PeerId back = e->from;
    if (back == kInvalidPeer) {
      // We are the origin.
      const auto oi = outcome_index_.find(d.guid);
      if (oi != outcome_index_.end()) {
        auto& out = outcomes_[oi->second - outcome_base_];
        ++totals_.hits_delivered;
        if (!out.responded) {
          out.responded = true;
          out.first_response_at = now;
        }
        DDP_TRACE(tracer_, obs::EventType::kHitDelivered, now, at,
                  d.hit_responder,
                  {{"latency", now - out.issued_at},
                   {"query", static_cast<double>(out.id)}});
      }
      return;
    }
    if (graph_.has_edge(at, back)) transmit(at, back, d);
    return;
  }

  // Query handling.
  prune_seen(ps, now);
  if (ps.seen.find(d.guid) != nullptr) {
    ++totals_.duplicates_dropped;
    DDP_TRACE(tracer_, obs::EventType::kQueryDuplicate, now, at, from,
              {{"query", trace_query_id(d.guid)}});
    return;
  }
  const std::size_t before = ps.seen.size();
  ps.seen.upsert(d.guid, from, now);
  note_guid_entries(before, ps.seen.size());

  // Local lookup; respond with a QueryHit routed back towards the origin.
  if (content_.peer_has(at, d.object)) {
    Descriptor hit;
    hit.kind = Descriptor::Kind::kQueryHit;
    hit.guid = d.guid;
    hit.ttl = static_cast<std::uint8_t>(d.hops + 1);
    hit.hops = 0;
    hit.origin = d.origin;
    hit.object = d.object;
    hit.hit_responder = at;
    ++totals_.hits_generated;
    DDP_TRACE(tracer_, obs::EventType::kQueryHit, now, at, d.origin,
              {{"object", static_cast<double>(d.object)},
               {"hops", static_cast<double>(d.hops)},
               {"query", trace_query_id(d.guid)},
               {"parent", from == kInvalidPeer
                              ? -1.0
                              : static_cast<double>(from)}});
    if (from != kInvalidPeer && graph_.has_edge(at, from)) {
      transmit(at, from, hit);
    }
  }

  // Forward while TTL remains.
  std::size_t forwards = 0;
  if (d.ttl > 1) {
    Descriptor fwd = d;
    fwd.ttl = static_cast<std::uint8_t>(d.ttl - 1);
    fwd.hops = static_cast<std::uint8_t>(d.hops + 1);
    const std::vector<PeerId> nbrs(graph_.neighbors(at).begin(),
                                   graph_.neighbors(at).end());
    for (PeerId n : nbrs) {
      if (n == from) continue;
      transmit(at, n, fwd, from);
      ++forwards;
    }
  }
  if (forwards == 0) {
    // Flood-tree leaf: the query terminates here without fanning out (TTL
    // exhausted, or no neighbour besides the sender). Emitting it keeps
    // the trace lossless — every tree node appears as an emitter.
    DDP_TRACE(tracer_, obs::EventType::kQueryExpired, now, at, from,
              {{"query", trace_query_id(d.guid)},
               {"ttl", static_cast<double>(d.ttl)},
               {"hops", static_cast<double>(d.hops)}});
  }
}

void PacketNetwork::prune_outcomes(SimTime now) {
  if (config_.outcome_horizon <= 0.0) return;
  const SimTime cutoff = now - config_.outcome_horizon;
  std::size_t n = 0;
  while (n < outcomes_.size() && outcomes_[n].issued_at < cutoff) ++n;
  // Amortize the front erase: compact only once the settled prefix is at
  // least half the buffer, so long runs stay O(1) per issued query and
  // memory is bounded by ~2x the queries of one horizon window.
  if (n == 0 || n * 2 < outcomes_.size()) return;
  for (std::size_t i = 0; i < n; ++i) outcome_index_.erase(outcomes_[i].guid);
  outcomes_.erase(outcomes_.begin(),
                  outcomes_.begin() + static_cast<std::ptrdiff_t>(n));
  outcome_base_ += n;
}

void PacketNetwork::save(snapshot::Writer& w) const {
  for (const PeerState& ps : peers_) {
    if (!ps.queue.empty() || ps.busy) {
      throw snapshot::SnapshotError(
          "packet network is not quiescent: descriptors are queued or being "
          "serviced (checkpoint between run_until boundaries)");
    }
  }
  w.size(peers_.size());
  for (const PeerState& ps : peers_) {
    w.f64(ps.capacity_per_minute);
    const auto& slots = ps.seen.raw_slots();
    w.size(slots.size());
    for (const GuidTable::Entry& e : slots) {
      save_guid(w, e.guid);
      w.f64(e.when);
      w.u32(e.from);
      w.boolean(e.used);
    }
    w.u64(ps.processed);
    w.u64(ps.dropped);
    w.u64(ps.received);
    w.f64(ps.last_prune);
  }
  w.size(kinds_.size());
  for (const PeerKind k : kinds_) w.u8(static_cast<std::uint8_t>(k));
  w.u64(totals_.queries_issued);
  w.u64(totals_.attack_queries_issued);
  w.u64(totals_.messages_sent);
  w.u64(totals_.queries_processed);
  w.u64(totals_.queries_dropped);
  w.u64(totals_.duplicates_dropped);
  w.u64(totals_.hits_generated);
  w.u64(totals_.hits_delivered);
  w.f64(totals_.overhead_messages);
  w.u64(totals_.transport_dropped);
  w.u64(totals_.transport_corrupted);
  w.u64(totals_.transport_duplicated);
  w.size(outcomes_.size());
  for (const QueryOutcome& o : outcomes_) {
    w.u64(o.id);
    save_guid(w, o.guid);
    w.u32(o.origin);
    w.f64(o.issued_at);
    w.boolean(o.responded);
    w.f64(o.first_response_at);
    w.boolean(o.attack);
  }
  w.u64(outcome_base_);
  w.u64(next_query_);
  monitors_.save(w);
  snapshot::save_rng(w, rng_);
}

void PacketNetwork::load(snapshot::Reader& r) {
  constexpr std::size_t kMaxPeers = 1u << 24;
  constexpr std::size_t kMaxTableSlots = 1u << 26;
  const std::size_t peer_count = r.size(kMaxPeers);
  if (peer_count != graph_.node_count()) {
    throw snapshot::SnapshotError("packet network peer count != node count");
  }
  peers_.resize(peer_count);
  guid_entries_ = 0;
  for (PeerState& ps : peers_) {
    ps.capacity_per_minute = r.f64();
    ps.queue.clear();
    ps.busy = false;
    std::vector<GuidTable::Entry> slots(r.size(kMaxTableSlots));
    for (GuidTable::Entry& e : slots) {
      load_guid(r, e.guid);
      e.when = r.f64();
      e.from = r.u32();
      e.used = r.boolean();
    }
    if (!ps.seen.restore_raw(std::move(slots))) {
      throw snapshot::SnapshotError(
          "guid table slot layout is not a valid probe sequence");
    }
    guid_entries_ += ps.seen.size();
    ps.processed = r.u64();
    ps.dropped = r.u64();
    ps.received = r.u64();
    ps.last_prune = r.f64();
  }
  kinds_.resize(r.size(kMaxPeers));
  if (kinds_.size() != peer_count) {
    throw snapshot::SnapshotError("packet network kind count != peer count");
  }
  for (PeerKind& k : kinds_) {
    const std::uint8_t v = r.u8();
    if (v > static_cast<std::uint8_t>(PeerKind::kBad)) {
      throw snapshot::SnapshotError("invalid peer kind value");
    }
    k = static_cast<PeerKind>(v);
  }
  totals_.queries_issued = r.u64();
  totals_.attack_queries_issued = r.u64();
  totals_.messages_sent = r.u64();
  totals_.queries_processed = r.u64();
  totals_.queries_dropped = r.u64();
  totals_.duplicates_dropped = r.u64();
  totals_.hits_generated = r.u64();
  totals_.hits_delivered = r.u64();
  totals_.overhead_messages = r.f64();
  totals_.transport_dropped = r.u64();
  totals_.transport_corrupted = r.u64();
  totals_.transport_duplicated = r.u64();
  outcomes_.resize(r.size(1u << 26));
  for (QueryOutcome& o : outcomes_) {
    o.id = r.u64();
    load_guid(r, o.guid);
    o.origin = r.u32();
    o.issued_at = r.f64();
    o.responded = r.boolean();
    o.first_response_at = r.f64();
    o.attack = r.boolean();
  }
  outcome_base_ = static_cast<std::size_t>(r.u64());
  next_query_ = r.u64();
  monitors_.load(r);
  snapshot::load_rng(r, rng_);
  outcome_index_.clear();
  for (std::size_t i = 0; i < outcomes_.size(); ++i) {
    outcome_index_.emplace(outcomes_[i].guid, outcome_base_ + i);
  }
  if (metrics_ != nullptr) {
    metrics_->set(guid_gauge_, static_cast<double>(guid_entries_));
  }
}

void PacketNetwork::prune_seen(PeerState& ps, SimTime now) {
  // Amortized: compact at most every horizon/4 seconds (the dedup-TTL
  // epoch). Compaction is also what re-sizes the flat table down, so this
  // cadence is what bounds per-peer GUID memory within a run.
  if (now - ps.last_prune < config_.seen_horizon / 4.0) return;
  ps.last_prune = now;
  const std::size_t before = ps.seen.size();
  ps.seen.prune(now - config_.seen_horizon);
  note_guid_entries(before, ps.seen.size());
}

}  // namespace ddp::p2p
