#include "flow/network.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "snapshot/state_io.hpp"
#include "util/log.hpp"

namespace ddp::flow {

FlowNetwork::FlowNetwork(topology::Graph& graph,
                         const topology::BandwidthMap& bandwidth,
                         const workload::ContentModel& content,
                         const FlowConfig& config, util::Rng rng)
    : graph_(graph), bandwidth_(bandwidth), content_(content), config_(config),
      rng_(rng), kinds_(graph.node_count(), PeerKind::kGood),
      issue_scale_(graph.node_count(), 1.0),
      minute_done_(graph.edge_index()), span_scratch_(1) {
  check_slot_ceiling();
  span_scratch_.front().pool.emplace_back();  // reference 0: the zero vector
  ticks_per_minute_ =
      static_cast<std::uint64_t>(std::llround(kMinute / config_.tick_seconds));
  if (ticks_per_minute_ == 0) ticks_per_minute_ = 1;
  for (std::size_t from = 0; from < topology::kBandwidthClasses; ++from) {
    for (std::size_t to = 0; to < topology::kBandwidthClasses; ++to) {
      link_cap_tick_[from][to] =
          config_.bandwidth_limits
              ? topology::link_queries_per_minute(
                    static_cast<topology::BandwidthClass>(from),
                    static_cast<topology::BandwidthClass>(to)) /
                    static_cast<double>(ticks_per_minute_)
              : std::numeric_limits<double>::infinity();
    }
  }
  const unsigned jobs = util::resolve_jobs(config_.jobs);
  if (jobs > 1) pool_ = std::make_unique<util::ThreadPool>(jobs);
  recalibrate();
}

void FlowNetwork::set_kind(PeerId p, PeerKind kind) { kinds_[p] = kind; }

void FlowNetwork::set_issue_scale(PeerId p, double scale) {
  issue_scale_[p] = std::max(0.0, scale);
}

void FlowNetwork::recalibrate() {
  const std::size_t ttl = std::min(config_.ttl, kMaxTtl);
  profile_ = topology::average_coverage(graph_, config_.ttl,
                                        config_.calibration_samples, rng_);

  // Closed-loop calibration of the forwarding damping: propagate a unit
  // impulse with the engine's exact update rule (uniform per-link split,
  // fan deg-1) from sampled origins, and solve, hop by hop, the factor
  // that makes the engine's message growth equal the exact BFS profile's.
  // Mean-field fresh fractions alone over-branch: hubs collect many copies
  // of a flood but forward it only once.
  //
  // The impulses advance kLanes origins at a time, one row of kLanes
  // doubles per peer. Each lane repeats the one-origin loop's IEEE
  // operations in its order: sources in ascending id, per-sample sums in
  // sample order. Where a lane's impulse is zero it adds a signed zero,
  // which leaves every sum unchanged, so each result is bit-identical to
  // propagating one origin at a time.
  std::vector<PeerId> origins;
  for (std::size_t s = 0; s < config_.calibration_samples; ++s) {
    const PeerId origin = graph_.random_active_node(rng_);
    if (origin == kInvalidPeer) break;
    origins.push_back(origin);
  }
  const std::vector<topology::CoverageProfile> exact =
      topology::flood_coverage_batch(graph_, origins, ttl);

  // One 64-byte row per peer. It is not over-aligned: aligned operator
  // new fragments the heap across calls and peak RSS creeps up over a run.
  constexpr std::size_t kLanes = 8;
  using Row = std::array<double, kLanes>;
  std::array<double, kMaxTtl> target_sum{};
  std::array<double, kMaxTtl> unscaled_sum{};
  const std::size_t n = graph_.node_count();
  std::vector<Row> a(n), nx(n);
  for (std::size_t base = 0; base < origins.size(); base += kLanes) {
    const std::size_t lanes = std::min(kLanes, origins.size() - base);
    std::fill(a.begin(), a.end(), Row{});
    for (std::size_t k = 0; k < lanes; ++k) {
      for (PeerId u : graph_.neighbors(origins[base + k])) a[u][k] = 1.0;
    }
    for (std::size_t h = 1; h < ttl; ++h) {
      Row unscaled{};
      for (PeerId v = 0; v < n; ++v) {
        if (!graph_.is_active(v)) continue;
        const double fan = static_cast<double>(graph_.degree(v)) - 1.0;
        for (std::size_t k = 0; k < kLanes; ++k) {
          unscaled[k] += a[v][k] * fan;
        }
      }
      Row delta{};
      for (std::size_t k = 0; k < lanes; ++k) {
        const double target = exact[base + k].messages[h];  // into hop h+1
        unscaled_sum[h - 1] += unscaled[k];
        target_sum[h - 1] += target;
        delta[k] =
            unscaled[k] > 0.0 ? std::min(1.0, target / unscaled[k]) : 0.0;
      }
      // The impulse after the last hop is never read.
      if (h + 1 == ttl) break;
      // Advance the impulses with the engine's own rule.
      std::fill(nx.begin(), nx.end(), Row{});
      for (PeerId v = 0; v < n; ++v) {
        const Row& av = a[v];
        if (!graph_.is_active(v) ||
            std::none_of(av.begin(), av.end(),
                         [](double x) { return x > 0.0; })) {
          continue;
        }
        const double deg = static_cast<double>(graph_.degree(v));
        if (deg < 2.0) continue;
        Row per_link{};
        for (std::size_t k = 0; k < kLanes; ++k) {
          per_link[k] = av[k] * delta[k] * (deg - 1.0) / deg;
        }
        for (PeerId u : graph_.neighbors(v)) {
          for (std::size_t k = 0; k < kLanes; ++k) nx[u][k] += per_link[k];
        }
      }
      a.swap(nx);
    }
  }
  for (std::size_t h = 0; h < kMaxTtl; ++h) {
    forward_damping_[h] =
        (h < ttl - 1 && unscaled_sum[h] > 0.0)
            ? std::min(1.0, target_sum[h] / unscaled_sum[h])
            : 0.0;
  }
  refresh_fresh_fractions();
  last_calibration_minute_ = current_minute();
}

void FlowNetwork::refresh_fresh_fractions() noexcept {
  for (std::size_t h = 0; h < kMaxTtl; ++h) {
    fresh_fraction_[h] = profile_.fresh_fraction(h + 1);
  }
}

double FlowNetwork::sent_last_minute(PeerId from, PeerId to) const noexcept {
  return sent_last_minute(from, to, graph_.edge_slot(from, to));
}

double FlowNetwork::sent_last_minute(
    PeerId from, PeerId to, topology::EdgeIndex::Slot slot) const noexcept {
  // kInvalidSlot (no such link) finds no state either.
  if (const double* done = minute_done_.find(slot)) return *done;
  // Link gone, but the endpoint monitors still hold the last minute. The
  // ghost list only ever holds this minute's cuts, so a scan is cheap.
  for (const GhostCount& g : ghost_minute_counts_) {
    if (g.from == from && g.to == to) return g.count;
  }
  return 0.0;
}

double FlowNetwork::sent_last_minute(
    topology::EdgeIndex::Slot slot) const noexcept {
  const double* done = minute_done_.find(slot);
  return done == nullptr ? 0.0 : *done;
}

double FlowNetwork::out_last_minute(PeerId from) const noexcept {
  double total = 0.0;
  for (const auto slot : graph_.out_slots(from)) {
    if (const double* done = minute_done_.find(slot)) total += *done;
  }
  // Links cut during this minute's hooks: their counters moved to the
  // ghost list when the slot was released, never both places at once.
  for (const GhostCount& g : ghost_minute_counts_) {
    if (g.from == from) total += g.count;
  }
  return total;
}

void FlowNetwork::disconnect(PeerId a, PeerId b) {
  // Capture the completed-minute counters before remove_edge releases the
  // slot pair (which retires both directions' flow state).
  const auto slot = graph_.edge_slot(a, b);
  if (slot != topology::EdgeIndex::kInvalidSlot) {
    if (const double* done = minute_done_.find(slot);
        done != nullptr && *done > 0.0) {
      ghost_minute_counts_.push_back({a, b, *done});
    }
    const auto rev = graph_.edge_index().reverse(slot);
    if (const double* done = minute_done_.find(rev);
        done != nullptr && *done > 0.0) {
      ghost_minute_counts_.push_back({b, a, *done});
    }
  }
  if (graph_.remove_edge(a, b)) {
    DDP_TRACE(tracer_, obs::EventType::kLinkDisconnected, now_, a, b);
  }
}

void FlowNetwork::on_edge_added(PeerId a, PeerId b) {
  DDP_TRACE(tracer_, obs::EventType::kEdgeAdded, now_, a, b);
}

void FlowNetwork::on_peer_offline(PeerId p) {
  const std::vector<PeerId> nbrs(graph_.neighbors(p).begin(),
                                 graph_.neighbors(p).end());
  for (PeerId n : nbrs) disconnect(p, n);
  DDP_TRACE(tracer_, obs::EventType::kPeerOffline, now_, p);
}

/// One-span sink: contributions land straight on the engine's running
/// accumulators in sweep order — except clamp drops, which are held back
/// in clamp_drops_ and folded after the pass so acc_dropped_ still adds
/// every service drop of the tick before any clamp drop.
struct FlowNetwork::DirectSink {
  FlowNetwork& net;
  double& tick_util;
  std::size_t& util_nodes;

  void add_transport_lost(double v) { net.acc_transport_lost_ += v; }
  void add_service_drop(double total, double good, double attack) {
    net.add_drop(total, good, attack);
  }
  void add_good_issued(double v) { net.acc_good_issued_ += v; }
  void add_attack_issued(double v) { net.acc_attack_issued_ += v; }
  void add_fresh(std::size_t hop_idx, double v) {
    net.acc_fresh_good_by_hop_[hop_idx] += v;
  }
  void add_peer_load(double rho, double dw, double dl) {
    tick_util += rho;
    ++util_nodes;
    net.acc_delay_weight_ += dw;
    net.acc_delay_load_ += dl;
  }
  void add_clamp_drop(double total, double good, double attack) {
    net.clamp_drops_.push_back({total, good, attack});
  }
  void add_traffic(double total, double attack) {
    net.acc_traffic_ += total;
    net.acc_attack_traffic_ += attack;
  }
};

/// Multi-span sink: contributions are recorded, not summed — the
/// coordinator replays the logs in span order after the pass, which
/// reproduces the one-span accumulation sequence exactly.
struct FlowNetwork::SpanLogSink {
  SpanLog& log;

  void add_transport_lost(double v) { log.transport_lost.push_back(v); }
  void add_service_drop(double total, double good, double attack) {
    log.service_drops.push_back({total, good, attack});
  }
  void add_good_issued(double v) { log.good_issued.push_back(v); }
  void add_attack_issued(double v) { log.attack_issued.push_back(v); }
  void add_fresh(std::size_t hop_idx, double v) {
    log.fresh.emplace_back(static_cast<std::uint8_t>(hop_idx), v);
  }
  void add_peer_load(double rho, double dw, double dl) {
    log.peer_load.push_back({rho, dw, dl});
  }
  void add_clamp_drop(double total, double good, double attack) {
    log.clamp_drops.push_back({total, good, attack});
  }
  void add_traffic(double total, double attack) {
    log.traffic.push_back({total, attack});
  }
};

void FlowNetwork::SpanLog::clear() noexcept {
  transport_lost.clear();
  service_drops.clear();
  good_issued.clear();
  attack_issued.clear();
  fresh.clear();
  peer_load.clear();
  clamp_drops.clear();
  traffic.clear();
}

// ---- Phase 1: gather arrivals per peer. -----------------------------------
// Each link delivers the link_reliability fraction of its in-flight volume
// (fault injection; 1.0 is an exact multiplicative identity). Canonical
// sweep order — destinations in PeerId order, in-links in adjacency order —
// so the floating-point accumulation order is a property of the topology,
// not of any container's internal layout. Sums into a local vector over
// the full kMaxTtl width and stores it once into arrivals_[to]; entries at
// remaining TTL >= ttl are always +0.0, which leaves every sum unchanged.
// Reads the receiver's run of pool references in the link plan; no
// phase-1 sweep writes a pool. A link not yet ticked names the zero
// vector, and adding it is exact: no in-flight volume is ever -0.0 (all
// are sums and products of non-negative values, and rel >= 0), so every
// sum here starts at +0.0, stays non-negative, and x + (+0.0) * rel is x.
template <typename Sink>
void FlowNetwork::phase1_peer(PeerId to, double rel, Sink& sink) {
  FlowVector a{};
  for (std::uint32_t i = plan_.offset[to]; i < plan_.offset[to + 1]; ++i) {
    const FlowVector& cur = link_flow(plan_.in_ref[i]);
    for (std::size_t c = 0; c < kClasses; ++c) {
      for (std::size_t k = 0; k < kMaxTtl; ++k) a[c][k] += cur[c][k] * rel;
    }
    if (rel < 1.0) {
      double in_flight = 0.0;
      for (const auto& cls : cur) {
        for (const double v : cls) in_flight += v;
      }
      sink.add_transport_lost(in_flight * (1.0 - rel));
    }
  }
  arrivals_[to] = a;
}

// ---- Phase 2a: service discipline and drop accounting. --------------------
// Drops happen at the receiver, as the paper's testbed measured (peer B
// reads the socket and discards what it cannot service, Sec. 2.3): the
// per-link monitors therefore see what senders actually pushed, which is
// the observable a deployed DD-POLICE works from. Reads arrivals_[v] (own)
// and, under fair share, in-link vectors — which other peers' clamps
// replace, so fair share services every peer in a pass of its own.
// Writes only arrivals_[v]. Loops run the full kMaxTtl width, like phase 1.
template <typename Sink>
std::array<double, kClasses> FlowNetwork::phase2_service(
    PeerId v, double cap_tick, double service_time, double rel,
    TickScratch& ts, Sink& sink) {
  double in_total = 0.0;
  for (const auto& cls : arrivals_[v]) {
    for (const double x : cls) in_total += x;
  }
  // Per-class arrival totals, summed separately so in_total keeps its
  // original accumulation order (side accounting must not perturb it).
  std::array<double, kClasses> in_class{};
  for (std::size_t c = 0; c < kClasses; ++c) {
    for (const double x : arrivals_[v][c]) in_class[c] += x;
  }

  double survive = in_total > cap_tick ? cap_tick / in_total : 1.0;
  // Per-class admission factors; under class-blind shedding both entries
  // hold the same double as `survive`, so the arithmetic downstream is
  // bit-identical to the scalar path.
  std::array<double, kClasses> survive_c{};
  survive_c.fill(survive);
  if (config_.discipline == ServiceDiscipline::kFairShare &&
      in_total > cap_tick) {
    // Max-min fair allocation of the service budget across in-links
    // (the load-balancing baseline [21]): lightly-loaded links are fully
    // served; heavy links are capped at the waterfill share. A link not
    // yet ticked sums to +0.0 and is skipped below, like any link with
    // nothing in flight.
    const std::uint32_t* in_ref = plan_.in_ref.data() + plan_.offset[v];
    const std::size_t deg = plan_.offset[v + 1] - plan_.offset[v];
    ts.edge_totals.assign(deg, 0.0);
    ts.edge_class_totals.assign(deg, {});
    for (std::size_t e = 0; e < deg; ++e) {
      const FlowVector& cur = link_flow(in_ref[e]);
      double total = 0.0;
      std::array<double, kClasses> cls_tot{};
      for (std::size_t c = 0; c < kClasses; ++c) {
        for (std::size_t k = 0; k < kMaxTtl; ++k) {
          const double vol = cur[c][k] * rel;
          total += vol;
          cls_tot[c] += vol;
        }
      }
      ts.edge_totals[e] = total;
      ts.edge_class_totals[e] = cls_tot;
    }
    double budget = cap_tick;
    ts.done.assign(deg, 0);
    std::size_t active = deg;
    double share = 0.0;
    for (int iter = 0; iter < 8 && active > 0; ++iter) {
      share = budget / static_cast<double>(active);
      bool changed = false;
      for (std::size_t e = 0; e < deg; ++e) {
        if (ts.done[e] || ts.edge_totals[e] > share) continue;
        budget -= ts.edge_totals[e];
        ts.done[e] = 1;
        --active;
        changed = true;
      }
      if (!changed) break;
    }
    FlowVector fair_arrivals{};
    for (std::size_t e = 0; e < deg; ++e) {
      if (ts.edge_totals[e] <= 0.0) continue;
      const double sc = ts.done[e] ? 1.0 : share / ts.edge_totals[e];
      sink.add_service_drop(
          ts.edge_totals[e] * (1.0 - sc),
          ts.edge_class_totals[e][static_cast<std::size_t>(TrafficClass::kGood)] *
              (1.0 - sc),
          ts.edge_class_totals[e]
                             [static_cast<std::size_t>(TrafficClass::kAttack)] *
              (1.0 - sc));
      const FlowVector& cur = link_flow(in_ref[e]);
      for (std::size_t c = 0; c < kClasses; ++c) {
        for (std::size_t k = 0; k < kMaxTtl; ++k) {
          fair_arrivals[c][k] += cur[c][k] * rel * sc;
        }
      }
    }
    arrivals_[v] = fair_arrivals;
    survive = 1.0;  // per-edge scaling already applied
    survive_c.fill(1.0);
  } else if (config_.admission == AdmissionPolicy::kPriority &&
             in_total > cap_tick) {
    // Priority shedding: hold back the control-plane reserve (defense
    // messages travel out-of-band here, but the reserve models the
    // capacity a real servent would pin for them), admit good-class
    // traffic first from the remaining budget, shed attack-class first.
    const double reserve =
        std::clamp(config_.control_reserve_fraction, 0.0, 0.5);
    const double budget = cap_tick * (1.0 - reserve);
    const auto good = static_cast<std::size_t>(TrafficClass::kGood);
    const auto bad = static_cast<std::size_t>(TrafficClass::kAttack);
    const double sg =
        in_class[good] > 0.0 ? std::min(1.0, budget / in_class[good]) : 1.0;
    const double left = std::max(0.0, budget - in_class[good] * sg);
    const double sa =
        in_class[bad] > 0.0 ? std::min(1.0, left / in_class[bad]) : 1.0;
    survive_c[good] = sg;
    survive_c[bad] = sa;
    const double d_good = in_class[good] * (1.0 - sg);
    const double d_bad = in_class[bad] * (1.0 - sa);
    sink.add_service_drop(d_good + d_bad, d_good, d_bad);
  } else {
    sink.add_service_drop(
        in_total * (1.0 - survive),
        in_class[static_cast<std::size_t>(TrafficClass::kGood)] *
            (1.0 - survive),
        in_class[static_cast<std::size_t>(TrafficClass::kAttack)] *
            (1.0 - survive));
  }

  const double rho = std::min(1.0, in_total / cap_tick);
  // M/M/1-flavoured queueing delay with a finite ceiling, load-weighted
  // so hot peers dominate the response-time model.
  double delay = rho < 0.999 ? service_time * rho / (1.0 - rho)
                             : config_.max_queue_delay;
  delay = std::min(delay, config_.max_queue_delay);
  sink.add_peer_load(rho, delay * in_total, in_total);
  return survive_c;
}

// ---- Phase 2b: issuance and forwarding. -----------------------------------
// Fills ts with the peer's emission: fresh issuance per out-link, and the
// forwarded vector, which is the same on every out-link. Issuance fills
// only remaining TTL ttl-1 and forwarding only TTLs below it, so each
// out-link's vector is the forwarded one with its issuance slotted in.
template <typename Sink>
void FlowNetwork::phase2_emit(PeerId v, std::size_t ttl,
                              const std::array<double, kClasses>& survive_c,
                              TickScratch& ts, Sink& sink) {
  const OutLink* out = plan_.out.data() + plan_.offset[v];
  const std::size_t links = plan_.offset[v + 1] - plan_.offset[v];
  if (links == 0) return;
  const auto deg = static_cast<double>(links);
  const auto& a = arrivals_[v];
  ts.issued.assign(links, 0.0);
  ts.forward = {};
  ts.issue_class = static_cast<std::size_t>(
      kinds_[v] == PeerKind::kGood ? TrafficClass::kGood
                                   : TrafficClass::kAttack);

  // Issuance. Good peers flood one copy of each fresh query per link;
  // compromised peers send *distinct* queries per link (Sec. 2.1), at
  // Q_d = min(20,000, link capacity) each (Sec. 3.5); the bandwidth and
  // back-pressure clamps of phase 2c enforce the min().
  if (kinds_[v] == PeerKind::kGood) {
    const double issue = config_.good_issue_per_minute /
                         static_cast<double>(ticks_per_minute_) *
                         issue_scale_[v];
    if (issue > 0.0) {
      sink.add_good_issued(issue);
      std::fill(ts.issued.begin(), ts.issued.end(), issue);
    }
  } else {
    const double target = config_.attack_target_per_minute /
                          static_cast<double>(ticks_per_minute_) *
                          issue_scale_[v];
    if (target > 0.0) {
      double attempted = 0.0;
      for (std::size_t i = 0; i < links; ++i) {
        ts.issued[i] = std::min(target, out[i].cap);
        attempted += ts.issued[i];
      }
      sink.add_attack_issued(attempted);
    }
  }

  // Forwarding of serviced arrivals: only the fresh fraction spreads.
  if (deg >= 2.0) {
    const double fan = (deg - 1.0) / deg;
    for (std::size_t c = 0; c < kClasses; ++c) {
      for (std::size_t k = 0; k < ttl; ++k) {
        const double vol = a[c][k] * survive_c[c];
        if (vol <= 0.0) continue;
        const std::size_t hop = ttl - k;  // arrival hop of this flow
        if (c == static_cast<std::size_t>(TrafficClass::kGood)) {
          // Reach accounting: the exact fresh-node ratio of this hop.
          sink.add_fresh(hop - 1, vol * fresh_fraction_[hop - 1]);
        }
        if (k == 0) continue;  // remaining ttl 1 -> no forwarding
        // Forwarding: the closed-loop-calibrated damping (see
        // recalibrate()) keeps aggregate message growth faithful.
        const double per_link = vol * forward_damping_[hop - 1] * fan;
        if (per_link <= 0.0) continue;
        ts.forward[c][k - 1] = per_link;
      }
    }
  } else {
    // Degree-1 peer: arrivals terminate here, but fresh mass still counts
    // toward reach.
    for (std::size_t k = 0; k < ttl; ++k) {
      const double vol =
          a[static_cast<std::size_t>(TrafficClass::kGood)][k] *
          survive_c[static_cast<std::size_t>(TrafficClass::kGood)];
      if (vol <= 0.0) continue;
      const std::size_t hop = ttl - k;
      sink.add_fresh(hop - 1, vol * fresh_fraction_[hop - 1]);
    }
  }
}

// ---- Phase 2c: bandwidth clamp at the sender, count. ----------------------
// Emits each out-link's clamped vector into the span's pool and writes its
// reference at the link's receiver position: every receiver already
// gathered its arrivals in phase 1. Senders in PeerId order, out-links in
// adjacency order, so the traffic accumulators sum deterministically.
// Writes only this sender's out-links, their references (each written by
// its sender alone, in another span's range too, after the pass-1
// barrier) and its span's pool.
//
// A link's vector is the forwarded one with its issuance slotted in, so it
// is built into the pool, with its total and per-class sums, once per
// distinct issuance value (compared bitwise) and recorded in ts.links. An
// unclamped link refers to that vector as it is (x * 1.0 is x) and its
// attack-class sum is the attack part; a clamped one gets a scaled copy.
template <typename Sink>
void FlowNetwork::phase2_clamp(PeerId from, std::size_t ttl, TickScratch& ts,
                               Sink& sink) {
  constexpr auto kGood = static_cast<std::size_t>(TrafficClass::kGood);
  constexpr auto kAttack = static_cast<std::size_t>(TrafficClass::kAttack);
  std::size_t built = 0;
  const auto link_vector = [&](double issued) -> const LinkVector& {
    const auto bits = std::bit_cast<std::uint64_t>(issued);
    for (std::size_t j = 0; j < built; ++j) {
      if (ts.links[j].issued_bits == bits) return ts.links[j];
    }
    const auto at = static_cast<std::uint32_t>(ts.pool.size());
    FlowVector& v = ts.pool.emplace_back(ts.forward);
    v[ts.issue_class][ttl - 1] = issued;
    double total = 0.0;
    std::array<double, kClasses> cls_tot{};
    for (std::size_t c = 0; c < kClasses; ++c) {
      for (std::size_t k = 0; k < kMaxTtl; ++k) {
        total += v[c][k];
        cls_tot[c] += v[c][k];
      }
    }
    // Issuance takes at most one value per receiver bandwidth class, so
    // the table never fills; if it did, its last entry would be reused.
    LinkVector& lv = ts.links[std::min(built, ts.links.size() - 1)];
    built = std::min(built + 1, ts.links.size());
    lv = {bits, at, total, cls_tot};
    return lv;
  };

  OutLink* out = plan_.out.data() + plan_.offset[from];
  const std::size_t links = plan_.offset[from + 1] - plan_.offset[from];
  for (std::size_t i = 0; i < links; ++i) {
    OutLink& ol = out[i];
    const LinkVector& lv = link_vector(ts.issued[i]);
    const double clamp = ol.cap;
    double total = lv.total;
    double attack_part = lv.cls_tot[kAttack];
    if (total > 0.0 && total > clamp) {
      const double scale = clamp / total;
      sink.add_clamp_drop(total - clamp, lv.cls_tot[kGood] * (1.0 - scale),
                          attack_part * (1.0 - scale));
      plan_.in_ref[ol.in_pos] =
          ts.pool_span | static_cast<std::uint32_t>(ts.pool.size());
      FlowVector& scaled = ts.pool.emplace_back(ts.pool[lv.at]);
      for (auto& cls : scaled) {
        for (double& x : cls) x *= scale;
      }
      attack_part = 0.0;
      for (const double x : scaled[kAttack]) attack_part += x;
      total = clamp;
    } else {
      plan_.in_ref[ol.in_pos] = ts.pool_span | lv.at;
      if (total <= 0.0) continue;
    }
    sink.add_traffic(total, attack_part);
    ol.minute_acc += total;
  }
}

template <typename SinkFor>
void FlowNetwork::sweep_spans(std::span<const util::IndexSpan> spans,
                              std::size_t ttl, double cap_tick,
                              double service_time, double rel,
                              SinkFor&& sink_for) {
  const auto run = [this, spans](const auto& pass) {
    if (pool_ && spans.size() > 1) {
      for (std::size_t s = 0; s < spans.size(); ++s) {
        pool_->submit([&pass, s] { pass(s); });
      }
      pool_->wait_idle();
    } else {
      for (std::size_t s = 0; s < spans.size(); ++s) pass(s);
    }
  };

  // Pass 1: arrivals. Cross-span reads of the pools, exclusive writes of
  // arrivals_[span] — must fully precede any pool write.
  run([&](std::size_t s) {
    auto sink = sink_for(s);
    for (std::size_t to = spans[s].begin; to < spans[s].end; ++to) {
      phase1_peer(static_cast<PeerId>(to), rel, sink);
    }
  });

  const bool fair = config_.discipline == ServiceDiscipline::kFairShare;
  if (fair) {
    run([&](std::size_t s) {
      auto sink = sink_for(s);
      for (std::size_t v = spans[s].begin; v < spans[s].end; ++v) {
        if (!graph_.is_active(static_cast<PeerId>(v))) continue;
        survive_scratch_[v] =
            phase2_service(static_cast<PeerId>(v), cap_tick, service_time,
                           rel, span_scratch_[s], sink);
      }
    });
  }

  // Pass 2: each peer writes only its own out-links' references and its
  // span's pool, and reads only its own arrivals, so service, emission and
  // clamping run back to back. Every pool is refilled from empty, span 0's
  // from the zero vector: the passes above read the last tick's vectors
  // for good. Inactive peers are isolated (Graph::set_active), so they
  // have no out-links to clear.
  run([&](std::size_t s) {
    auto sink = sink_for(s);
    TickScratch& ts = span_scratch_[s];
    ts.pool.clear();
    if (s == 0) ts.pool.emplace_back();
    ts.pool_span = static_cast<std::uint32_t>(s) << kPoolIndexBits;
    for (std::size_t v = spans[s].begin; v < spans[s].end; ++v) {
      const auto p = static_cast<PeerId>(v);
      if (!graph_.is_active(p)) continue;
      const auto survive_c =
          fair ? survive_scratch_[v]
               : phase2_service(p, cap_tick, service_time, rel, ts, sink);
      phase2_emit(p, ttl, survive_c, ts, sink);
      phase2_clamp(p, ttl, ts, sink);
    }
  });
}

void FlowNetwork::add_drop(double total, double good, double attack) noexcept {
  acc_dropped_ += total;
  acc_dropped_class_[static_cast<std::size_t>(TrafficClass::kGood)] += good;
  acc_dropped_class_[static_cast<std::size_t>(TrafficClass::kAttack)] += attack;
}

// Canonical fold: replay every span's log in span (= peer) order, one
// accumulator at a time, service drops before clamp drops — the exact
// sequence of += operations the one-span tick performs, hence
// bit-identical sums.
void FlowNetwork::replay_span_logs(double& tick_util, std::size_t& util_nodes) {
  for (const SpanLog& log : span_logs_) {
    for (const double v : log.transport_lost) acc_transport_lost_ += v;
  }
  for (const SpanLog& log : span_logs_) {
    for (const auto& d : log.service_drops) add_drop(d[0], d[1], d[2]);
    for (const double v : log.good_issued) acc_good_issued_ += v;
    for (const double v : log.attack_issued) acc_attack_issued_ += v;
    for (const auto& [hop_idx, v] : log.fresh) {
      acc_fresh_good_by_hop_[hop_idx] += v;
    }
    for (const auto& pl : log.peer_load) {
      tick_util += pl[0];
      ++util_nodes;
      acc_delay_weight_ += pl[1];
      acc_delay_load_ += pl[2];
    }
  }
  for (const SpanLog& log : span_logs_) {
    for (const auto& d : log.clamp_drops) add_drop(d[0], d[1], d[2]);
    for (const auto& t : log.traffic) {
      acc_traffic_ += t[0];
      acc_attack_traffic_ += t[1];
    }
  }
}

void FlowNetwork::refresh_shard_plan() {
  if (shard_plan_version_ == graph_.version()) return;
  const std::size_t n = graph_.node_count();
  // Weight each peer by 1 + degree: a span's cost is dominated by the
  // per-link work of its peers, and the +1 keeps isolated peers from
  // collapsing a span to zero weight.
  shard_weights_.resize(n);
  for (PeerId v = 0; v < n; ++v) {
    shard_weights_[v] = 1 + static_cast<std::uint64_t>(graph_.degree(v));
  }
  shard_spans_ = util::make_weighted_spans(
      shard_weights_, std::min<std::size_t>(pool_->size(), kMaxSpans));
  shard_plan_version_ = graph_.version();
}

void FlowNetwork::layout_plan() {
  const std::size_t n = graph_.node_count();
  plan_.offset.resize(n + 1);
  std::uint32_t links = 0;
  for (PeerId p = 0; p < n; ++p) {
    plan_.offset[p] = links;
    links += static_cast<std::uint32_t>(graph_.degree(p));
  }
  plan_.offset[n] = links;
  plan_.in_ref.assign(links, 0);
  plan_.out.resize(links);
  // Entries of dead slots are never read: only a slot with flow state is
  // looked up, and every such slot is a link of the plan.
  plan_.slot_in_pos.resize(graph_.edge_index().capacity());
  for (PeerId p = 0; p < n; ++p) {
    const auto in = graph_.in_slots(p);
    for (std::size_t i = 0; i < in.size(); ++i) {
      plan_.slot_in_pos[in[i]] =
          plan_.offset[p] + static_cast<std::uint32_t>(i);
    }
  }
  for (PeerId p = 0; p < n; ++p) {
    const auto nbrs = graph_.neighbors(p);
    const auto slots = graph_.out_slots(p);
    OutLink* out = plan_.out.data() + plan_.offset[p];
    for (std::size_t i = 0; i < slots.size(); ++i) {
      out[i] = {plan_.slot_in_pos[slots[i]], slots[i],
                link_capacity_per_tick(p, nbrs[i]), 0.0};
    }
  }
}

void FlowNetwork::rebuild_plan() {
  const LinkPlan old = std::exchange(plan_, {});
  layout_plan();
  // A link with flow state existed, as this incarnation of its slot, when
  // the old plan was laid out, so the old plan holds its reference and
  // running minute: carry them. Every other link gets its state here, at
  // the start of the first tick that carries it, and names the zero
  // vector until its sender clamps it. Each slot is looked up before its
  // own state is created: a recycled slot found after creation would be
  // handed its previous incarnation's vector. No monitor read runs inside
  // a tick, so to monitors the state appears once the link has been
  // counted, and until then sent_last_minute falls back to the ghosts.
  minute_done_.sync();
  const topology::EdgeIndex& index = graph_.edge_index();
  for (OutLink& ol : plan_.out) {
    if (minute_done_.find(ol.slot) == nullptr) {
      minute_done_.touch(ol.slot);
      continue;
    }
    plan_.in_ref[ol.in_pos] = old.in_ref[old.slot_in_pos[ol.slot]];
    ol.minute_acc =
        old.out[old.slot_in_pos[index.reverse(ol.slot)]].minute_acc;
  }
  plan_version_ = graph_.version();
}

void FlowNetwork::step() {
  const std::size_t n = graph_.node_count();
  const std::size_t ttl = std::min(config_.ttl, kMaxTtl);
  const double cap_tick =
      config_.capacity_per_minute / static_cast<double>(ticks_per_minute_);
  const double service_time = kMinute / config_.capacity_per_minute;
  const double rel = config_.link_reliability;
  if (plan_version_ != graph_.version()) rebuild_plan();
  arrivals_.resize(n);
  if (config_.discipline == ServiceDiscipline::kFairShare) {
    survive_scratch_.resize(n);
  }

  double tick_util = 0.0;
  std::size_t util_nodes = 0;
  if (pool_ == nullptr) {
    const util::IndexSpan all{0, n};
    sync_pools(1);
    clamp_drops_.clear();
    sweep_spans({&all, 1}, ttl, cap_tick, service_time, rel,
                [&](std::size_t) {
                  return DirectSink{*this, tick_util, util_nodes};
                });
    for (const auto& d : clamp_drops_) add_drop(d[0], d[1], d[2]);
  } else {
    refresh_shard_plan();
    const std::size_t spans = shard_spans_.size();
    if (span_scratch_.size() < spans) span_scratch_.resize(spans);
    sync_pools(spans);
    span_logs_.resize(spans);
    for (SpanLog& log : span_logs_) log.clear();
    sweep_spans(shard_spans_, ttl, cap_tick, service_time, rel,
                [this](std::size_t s) { return SpanLogSink{span_logs_[s]}; });
    replay_span_logs(tick_util, util_nodes);
  }
  acc_util_ +=
      util_nodes > 0 ? tick_util / static_cast<double>(util_nodes) : 0.0;

  now_ += config_.tick_seconds;
  ++tick_count_;
  if (tick_count_ % ticks_per_minute_ == 0) rotate_minute();
}

void FlowNetwork::check_slot_ceiling() const {
  if (graph_.edge_index().capacity() > kMaxSlots) {
    throw std::length_error(
        "flow engine: the overlay has more than 2^23 - 1 directed links");
  }
}

void FlowNetwork::sync_pools(std::size_t spans) {
  // Per sender, a pass pools each distinct link vector once and one scaled
  // vector per clamped out-link: at most two per out-link of the span's
  // senders. On paper_2k and chaos_2k, in one span and in two, a pass
  // emitted at most 0.46 vectors per out-link of its span (one per sender
  // plus the clamped links) and never more than half the span's even
  // share of the slots, so each pool reserves that much and grows with
  // the slot capacity. A pass that emits more grows its pool as a vector
  // does and keeps the room. Reserving the two-per-link bound instead cost
  // chaos_2k 2.6 MiB of peak RSS: once glibc's mmap threshold has risen,
  // the reserve comes from heap pages already resident, and its unused
  // part stays so.
  check_slot_ceiling();
  const std::size_t capacity = graph_.edge_index().capacity();
  const std::size_t reserve = (capacity + 2 * spans - 1) / (2 * spans);
  for (std::size_t s = 0; s < spans; ++s) {
    span_scratch_[s].pool.reserve(reserve);
  }
}

void FlowNetwork::rotate_minute() {
  // Complete the per-link minute counters — one sweep over the plan's
  // out-links, which this tick's step() brought up to date with the graph;
  // ghosts of torn-down links only cover the minute in which they were cut.
  ghost_minute_counts_.clear();
  for (OutLink& ol : plan_.out) {
    minute_done_.touch(ol.slot) = ol.minute_acc;
    ol.minute_acc = 0.0;
  }

  MinuteReport r;
  r.minute = to_minutes(now_);
  r.traffic_messages = acc_traffic_;
  r.attack_messages = acc_attack_traffic_;
  r.good_issued = acc_good_issued_;
  r.attack_issued = acc_attack_issued_;
  r.dropped = acc_dropped_;
  r.mean_utilization = acc_util_ / static_cast<double>(ticks_per_minute_);
  r.overhead_messages = overhead_accum_;
  r.transport_lost = acc_transport_lost_;
  r.dropped_good =
      acc_dropped_class_[static_cast<std::size_t>(TrafficClass::kGood)];
  r.dropped_attack =
      acc_dropped_class_[static_cast<std::size_t>(TrafficClass::kAttack)];

  const std::size_t ttl = std::min(config_.ttl, kMaxTtl);
  if (acc_good_issued_ > 0.0) {
    // Per-query hop-resolved reach of good floods this minute.
    double cum_reach = 0.0;
    double prev_hit = 0.0;
    double rt_num = 0.0;
    const double mean_delay =
        acc_delay_load_ > 0.0 ? acc_delay_weight_ / acc_delay_load_ : 0.0;
    // Physical cap: a flood cannot reach more peers than are online (the
    // hop ratios are profile averages and can drift a few percent high).
    const double max_reach = static_cast<double>(graph_.active_count());
    for (std::size_t h = 1; h <= ttl; ++h) {
      const double reach_h = acc_fresh_good_by_hop_[h - 1] / acc_good_issued_;
      cum_reach = std::min(cum_reach + reach_h, max_reach);
      const double hit_by_h = content_.average_hit_probability(cum_reach);
      const double first_here = std::max(0.0, hit_by_h - prev_hit);
      // Round trip: query travels h hops out, the hit h hops back, each hop
      // paying propagation plus the load-dependent queueing delay.
      rt_num += first_here * 2.0 * static_cast<double>(h) *
                (config_.hop_latency + mean_delay);
      prev_hit = hit_by_h;
    }
    r.reach_per_query = cum_reach;
    r.success_rate = prev_hit;
    r.response_time = prev_hit > 0.0 ? rt_num / prev_hit : 0.0;
  }

  last_report_ = r;
  history_.push_back(r);
  DDP_TRACE(tracer_, obs::EventType::kMinuteReport, now_, kInvalidPeer,
            kInvalidPeer,
            {{"minute", r.minute},
             {"traffic", r.traffic_messages},
             {"dropped", r.dropped},
             {"success", r.success_rate}});

  // Reset running-minute accumulators.
  acc_traffic_ = acc_attack_traffic_ = 0.0;
  acc_good_issued_ = acc_attack_issued_ = 0.0;
  acc_dropped_ = 0.0;
  acc_dropped_class_.fill(0.0);
  acc_transport_lost_ = 0.0;
  acc_fresh_good_by_hop_.fill(0.0);
  acc_util_ = 0.0;
  acc_delay_weight_ = acc_delay_load_ = 0.0;
  overhead_accum_ = 0.0;

  // Periodic duplicate-damping recalibration against the churned topology.
  if (config_.recalibrate_minutes > 0.0 &&
      current_minute() - last_calibration_minute_ >= config_.recalibrate_minutes) {
    recalibrate();
  }

  for (const auto& hook : minute_hooks_) hook(r.minute);
}

double FlowNetwork::total_in_flight() const noexcept {
  double total = 0.0;
  const std::size_t n = graph_.node_count();
  for (PeerId from = 0; from < n; ++from) {
    for (const auto slot : graph_.out_slots(from)) {
      if (minute_done_.find(slot) == nullptr) continue;
      for (const auto& cls : slot_flow(slot)) {
        for (double v : cls) total += v;
      }
    }
  }
  return total;
}

void FlowNetwork::run_minutes(double m) {
  const auto ticks = static_cast<std::uint64_t>(
      std::llround(m * static_cast<double>(ticks_per_minute_)));
  for (std::uint64_t i = 0; i < ticks; ++i) step();
}

void FlowNetwork::run_until_minute(double m) {
  const auto target = static_cast<std::uint64_t>(
      std::llround(m * static_cast<double>(ticks_per_minute_)));
  while (tick_count_ < target) step();
}

namespace {

void save_report(snapshot::Writer& w, const MinuteReport& r) {
  w.f64(r.minute);
  w.f64(r.traffic_messages);
  w.f64(r.attack_messages);
  w.f64(r.good_issued);
  w.f64(r.attack_issued);
  w.f64(r.dropped);
  w.f64(r.reach_per_query);
  w.f64(r.success_rate);
  w.f64(r.response_time);
  w.f64(r.mean_utilization);
  w.f64(r.overhead_messages);
  w.f64(r.transport_lost);
  w.f64(r.dropped_good);
  w.f64(r.dropped_attack);
}

void load_report(snapshot::Reader& r, MinuteReport& m) {
  m.minute = r.f64();
  m.traffic_messages = r.f64();
  m.attack_messages = r.f64();
  m.good_issued = r.f64();
  m.attack_issued = r.f64();
  m.dropped = r.f64();
  m.reach_per_query = r.f64();
  m.success_rate = r.f64();
  m.response_time = r.f64();
  m.mean_utilization = r.f64();
  m.overhead_messages = r.f64();
  m.transport_lost = r.f64();
  m.dropped_good = r.f64();
  m.dropped_attack = r.f64();
}

}  // namespace

void FlowNetwork::save(snapshot::Writer& w) const {
  w.size(kinds_.size());
  for (const PeerKind k : kinds_) w.u8(static_cast<std::uint8_t>(k));
  snapshot::save_f64_vector(w, issue_scale_);

  // Per-entry layout: slot, the link's in-flight vector, a block of
  // kClasses * kMaxTtl zeros, minute_acc, minute_done. The zero block is
  // where the engine once kept next tick's vector, which is always empty
  // between ticks; keeping it lets images load across that change in both
  // directions. The jobs setting does not influence this state: the pools
  // the references point into are not saved, only the vectors.
  std::size_t entries = 0;
  minute_done_.for_each([&entries](std::uint32_t, double) { ++entries; });
  w.size(entries);
  const topology::EdgeIndex& index = graph_.edge_index();
  minute_done_.for_each([this, &w, &index](std::uint32_t slot, double done) {
    w.u32(slot);
    for (const auto& cls : slot_flow(slot)) {
      for (const double v : cls) w.f64(v);
    }
    for (std::size_t i = 0; i < kClasses * kMaxTtl; ++i) w.f64(0.0);
    w.f64(plan_.out[plan_.slot_in_pos[index.reverse(slot)]].minute_acc);
    w.f64(done);
  });

  snapshot::save_f64_vector(w, profile_.new_nodes);
  snapshot::save_f64_vector(w, profile_.messages);
  for (const double d : forward_damping_) w.f64(d);
  w.f64(last_calibration_minute_);

  w.size(ghost_minute_counts_.size());
  for (const GhostCount& g : ghost_minute_counts_) {
    w.u32(g.from);
    w.u32(g.to);
    w.f64(g.count);
  }

  w.f64(now_);
  w.u64(tick_count_);
  w.u64(ticks_per_minute_);
  w.f64(acc_traffic_);
  w.f64(acc_attack_traffic_);
  w.f64(acc_good_issued_);
  w.f64(acc_attack_issued_);
  w.f64(acc_dropped_);
  for (const double d : acc_dropped_class_) w.f64(d);
  w.f64(acc_transport_lost_);
  for (const double d : acc_fresh_good_by_hop_) w.f64(d);
  w.f64(acc_util_);
  w.f64(acc_delay_weight_);
  w.f64(acc_delay_load_);
  w.f64(overhead_accum_);

  save_report(w, last_report_);
  w.size(history_.size());
  for (const MinuteReport& m : history_) save_report(w, m);
  snapshot::save_rng(w, rng_);
}

void FlowNetwork::load(snapshot::Reader& r) {
  constexpr std::size_t kMaxPeers = 1u << 24;
  kinds_.resize(r.size(kMaxPeers));
  for (PeerKind& k : kinds_) k = static_cast<PeerKind>(r.u8());
  snapshot::load_f64_vector(r, issue_scale_, kMaxPeers);

  // The plan is laid out for the restored graph, and every saved vector
  // becomes its own entry of span 0's pool, after the zero vector; the
  // next pass 2 refills the pools of whatever spans the engine runs. No
  // state is created for links the image holds none for, so a save right
  // after this writes the same bytes; the next step() rebuilds the plan
  // and creates it.
  const topology::EdgeIndex& index = graph_.edge_index();
  if (index.capacity() > kMaxSlots) {
    throw snapshot::SnapshotError(
        "flow state: the overlay has more than 2^23 - 1 directed links");
  }
  const std::size_t ttl = std::min(config_.ttl, kMaxTtl);
  minute_done_.clear();
  minute_done_.sync();
  layout_plan();
  std::vector<FlowVector>& pool = span_scratch_.front().pool;
  pool.clear();
  const std::size_t entries = r.size(index.capacity());
  pool.reserve(entries + 1);
  pool.emplace_back();
  for (std::size_t i = 0; i < entries; ++i) {
    const std::uint32_t slot = r.u32();
    if (!index.live(slot)) {
      throw snapshot::SnapshotError("flow state references a dead edge slot");
    }
    plan_.in_ref[plan_.slot_in_pos[slot]] =
        static_cast<std::uint32_t>(pool.size());
    for (auto& cls : pool.emplace_back()) {
      for (std::size_t k = 0; k < kMaxTtl; ++k) {
        cls[k] = r.f64();
        // The tick kernels run the full width and count on these entries
        // being zero; no engine running this TTL ever writes them.
        if (k >= ttl && cls[k] != 0.0) {
          throw snapshot::SnapshotError(
              "flow state holds volume past the configured TTL");
        }
      }
    }
    for (std::size_t k = 0; k < kClasses * kMaxTtl; ++k) {
      if (r.f64() != 0.0) {
        throw snapshot::SnapshotError(
            "flow state holds volume in the always-empty nxt block");
      }
    }
    plan_.out[plan_.slot_in_pos[index.reverse(slot)]].minute_acc = r.f64();
    minute_done_.touch(slot) = r.f64();
  }

  snapshot::load_f64_vector(r, profile_.new_nodes, kMaxTtl);
  snapshot::load_f64_vector(r, profile_.messages, kMaxTtl);
  refresh_fresh_fractions();
  for (double& d : forward_damping_) d = r.f64();
  last_calibration_minute_ = r.f64();

  ghost_minute_counts_.resize(r.size(1u << 26));
  for (GhostCount& g : ghost_minute_counts_) {
    g.from = r.u32();
    g.to = r.u32();
    g.count = r.f64();
  }

  now_ = r.f64();
  tick_count_ = r.u64();
  const std::uint64_t tpm = r.u64();
  if (tpm != ticks_per_minute_) {
    throw snapshot::SnapshotError("ticks-per-minute mismatch with config");
  }
  acc_traffic_ = r.f64();
  acc_attack_traffic_ = r.f64();
  acc_good_issued_ = r.f64();
  acc_attack_issued_ = r.f64();
  acc_dropped_ = r.f64();
  for (double& d : acc_dropped_class_) d = r.f64();
  acc_transport_lost_ = r.f64();
  for (double& d : acc_fresh_good_by_hop_) d = r.f64();
  acc_util_ = r.f64();
  acc_delay_weight_ = r.f64();
  acc_delay_load_ = r.f64();
  overhead_accum_ = r.f64();

  load_report(r, last_report_);
  history_.resize(r.size(1u << 24));
  for (MinuteReport& m : history_) load_report(r, m);
  snapshot::load_rng(r, rng_);
  plan_version_ = kNoPlan;
}

}  // namespace ddp::flow
