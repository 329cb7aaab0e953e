#pragma once

/// \file network.hpp
/// Flow-level P2P engine: the scalable counterpart of p2p::PacketNetwork.
///
/// Instead of individual descriptors, each directed overlay link carries an
/// aggregate *query flow* — a small vector of volumes indexed by (traffic
/// class, remaining TTL). One engine tick (default 1 s) advances every flow
/// one hop:
///
///   1. arrivals at a peer are summed across its in-links;
///   2. the peer services at most capacity/tick queries — excess drops
///      (that is how overload degrades search, Figs. 9-11);
///   3. of the serviced volume, the topology-calibrated fresh fraction
///      delta(h) lands on peers that have not seen the query yet; only
///      those copies are forwarded (duplicates die, as per Gnutella [15]);
///   4. fresh volume is forwarded to (deg-1) neighbours with the TTL
///      decremented, subject to per-link bandwidth clamps.
///
/// Issuance semantics differ by traffic class exactly as the paper
/// describes: a *good* peer floods one query to every neighbour (full copy
/// per link), while a *compromised* peer sends *distinct* queries to
/// different neighbours (Sec. 2.1, Figure 1) so its per-link volume is the
/// split of its sourcing rate.
///
/// The per-minute per-link counters DD-POLICE monitors (Out_query /
/// In_query, Sec. 3.2) fall out of the model natively: they are the
/// accumulated per-edge volumes of the last completed minute.
///
/// Validity: the engine's branching factors are calibrated against exact
/// BFS coverage profiles of the live topology (topology::average_coverage),
/// and the test suite cross-validates reach, message counts and drop onset
/// against the packet engine on identical small topologies.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "flow/config.hpp"
#include "obs/trace.hpp"
#include "topology/bandwidth.hpp"
#include "topology/coverage.hpp"
#include "topology/edge_index.hpp"
#include "topology/graph.hpp"
#include "util/rng.hpp"
#include "util/spans.hpp"
#include "util/thread_pool.hpp"
#include "util/types.hpp"
#include "workload/content.hpp"

namespace ddp::snapshot {
class Writer;
class Reader;
}  // namespace ddp::snapshot

namespace ddp::flow {

/// Traffic classes tracked separately so ground-truth metrics can tell
/// legitimate search traffic from attack traffic. Protocol-visible
/// counters always see the sum (a real peer cannot tell them apart).
enum class TrafficClass : std::uint8_t { kGood = 0, kAttack = 1 };
inline constexpr std::size_t kClasses = 2;
inline constexpr std::size_t kMaxTtl = 8;  ///< supports ttl <= 8

/// One completed simulated minute of network-wide measurements
/// (the metrics module converts these into the paper's reported series).
struct MinuteReport {
  double minute = 0.0;           ///< index of the completed minute
  double traffic_messages = 0.0; ///< query transmissions, all classes
  double attack_messages = 0.0;  ///< ... attributable to attack floods
  double good_issued = 0.0;      ///< fresh good queries issued
  double attack_issued = 0.0;    ///< fresh attack queries issued
  double dropped = 0.0;          ///< capacity drops (all classes)
  double reach_per_query = 0.0;  ///< mean distinct peers a good flood covered
  double success_rate = 0.0;     ///< S(t), Sec. 3.6
  double response_time = 0.0;    ///< mean first-response latency, seconds
  double mean_utilization = 0.0; ///< load / capacity, averaged over peers
  double overhead_messages = 0.0;///< defense-protocol messages (set by hooks)
  double transport_lost = 0.0;   ///< volume lost to link unreliability (faults)
  double dropped_good = 0.0;     ///< capacity drops, good class only
  double dropped_attack = 0.0;   ///< capacity drops, attack class only
};

class FlowNetwork {
 public:
  /// Directed slots the engine runs on: 2^23 - 1, about 1.4 million peers
  /// at the paper overlay's mean degree of 6. A pass pools at most two
  /// vectors per out-link of its span's senders, and span 0's pool also
  /// holds the zero vector, so every pool index stays below 2^24 (the
  /// index bits of a reference). A loaded image pools one per slot. The
  /// constructor and load() refuse a larger overlay; step() stops a run
  /// whose overlay grows past it.
  static constexpr std::size_t kMaxSlots = (std::size_t{1} << 23) - 1;

  /// Throws std::length_error when the graph has more than kMaxSlots
  /// directed slots.
  FlowNetwork(topology::Graph& graph, const topology::BandwidthMap& bandwidth,
              const workload::ContentModel& content, const FlowConfig& config,
              util::Rng rng);

  /// Traffic-class role of a peer. Compromised peers source
  /// attack_target_per_minute distinct queries; good peers issue
  /// good_issue_per_minute flooded queries.
  void set_kind(PeerId p, PeerKind kind);
  PeerKind kind(PeerId p) const noexcept { return kinds_[p]; }

  /// Scale one peer's issue rate (used by ablations; 1.0 = configured rate).
  void set_issue_scale(PeerId p, double scale);

  /// Advance one tick.
  void step();

  /// Advance whole minutes (60/tick ticks each).
  void run_minutes(double m);

  /// Advance to the *absolute* minute `m` (no-op when already there or
  /// past). Equivalent to run_minutes(m) on a fresh engine, and correct
  /// after a checkpoint restore, where the tick counter is mid-run.
  void run_until_minute(double m);

  SimTime now() const noexcept { return now_; }
  double current_minute() const noexcept { return to_minutes(now_); }

  /// Out_query(from -> to) of the last *completed* minute — exactly the
  /// counter a DD-POLICE monitor reports in a Neighbor_Traffic message.
  double sent_last_minute(PeerId from, PeerId to) const noexcept;

  /// The same read for a caller that already holds `slot`, the slot of
  /// from -> to (from `graph().out_slots(from)` or `in_slots(to)`), so no
  /// edge lookup runs. A slot with no flow state (a link added since the
  /// last tick, or cut and re-added this minute) falls back to the ghost
  /// counters, as the lookup does.
  double sent_last_minute(PeerId from, PeerId to,
                          topology::EdgeIndex::Slot slot) const noexcept;

  /// Same counter keyed by directed edge slot — O(1), for defense sweeps
  /// that already walk `graph().out_slots()`. Live slots only (a dead or
  /// recycled slot reads 0; the PeerId overloads also consult the ghost
  /// counters of links cut earlier this minute).
  double sent_last_minute(topology::EdgeIndex::Slot slot) const noexcept;

  /// Total Out_query(from -> *) of the last completed minute: live
  /// out-slots plus the ghost counters of links cut earlier this minute —
  /// so a just-cut attacker's final minute of sourcing is still visible
  /// from inside a minute hook (the forensics and series feeds read this).
  double out_last_minute(PeerId from) const noexcept;

  /// Tear down a logical link (defense action or churn). In-flight flow on
  /// the link is discarded; monitors reset.
  void disconnect(PeerId a, PeerId b);

  /// Notify the engine that the graph gained an edge (churn/rejoin). Only
  /// traces: the next step() sees the graph's version move and gives the
  /// link its flow state, so an edge added without this call ticks alike.
  void on_edge_added(PeerId a, PeerId b);

  /// Remove a peer's flow state entirely (peer went offline).
  void on_peer_offline(PeerId p);

  /// Hooks run at each completed minute, after counters rotate — the
  /// defense layer and churn drivers subscribe here.
  using MinuteHook = std::function<void(double minute)>;
  void add_minute_hook(MinuteHook hook) { minute_hooks_.push_back(std::move(hook)); }

  /// Defense layers report their own message overhead here so the traffic
  /// metric includes it (Sec. 3.7: "slightly higher average traffic cost").
  void add_overhead_messages(double count) { overhead_accum_ += count; }

  /// Total query volume currently in transit on all links (all classes,
  /// all TTLs) — the soak harness's bounded-queue-occupancy observable.
  double total_in_flight() const noexcept;

  const MinuteReport& last_minute_report() const noexcept { return last_report_; }
  const std::vector<MinuteReport>& minute_history() const noexcept {
    return history_;
  }

  const topology::Graph& graph() const noexcept { return graph_; }
  topology::Graph& mutable_graph() noexcept { return graph_; }
  const workload::ContentModel& content() const noexcept { return content_; }
  const FlowConfig& config() const noexcept { return config_; }

  /// Force recalibration of the duplicate-damping profile now.
  void recalibrate();

  /// Attach a trace sink (null detaches). The flow engine emits only
  /// minute-granular and structural events (minute_report, link
  /// disconnects, edge adds, peer teardown) — never per-tick events, so
  /// the hot step() loop stays trace-free.
  void set_trace_sink(obs::TraceSink* sink) noexcept { tracer_.bind(sink); }
  const obs::Tracer& tracer() const noexcept { return tracer_; }

  /// Serialize the complete flow state (roles, per-link flow, calibration,
  /// minute accumulators, report history, rng) into the writer's open
  /// section. The graph itself is saved separately by its owner.
  void save(snapshot::Writer& w) const;

  /// Restore state saved by save(). The graph must already be restored
  /// (per-link state re-attaches to its live slots). Minute hooks are not
  /// serialized — subscribers re-register on reconstruction.
  void load(snapshot::Reader& r);

 private:
  /// One link's in-transit volume by (traffic class, remaining TTL).
  using FlowVector = std::array<std::array<double, kMaxTtl>, kClasses>;

  /// A link's in-flight vector is named by a 32-bit reference into the
  /// emission pool of the span that sent it: the top kPoolSpanBits name
  /// the span, the rest the vector's index in that span's pool. A good
  /// sender's unclamped out-links all name one pooled vector. Reference 0
  /// names the zero vector that heads span 0's pool, which a link carries
  /// until its sender first clamps it.
  static constexpr unsigned kPoolSpanBits = 8;
  static constexpr unsigned kPoolIndexBits = 32 - kPoolSpanBits;
  static constexpr std::uint32_t kPoolIndexMask =
      (std::uint32_t{1} << kPoolIndexBits) - 1;
  /// Spans a reference can name; the shard plan never makes more.
  static constexpr std::size_t kMaxSpans = std::size_t{1} << kPoolSpanBits;
  static_assert(2 * kMaxSlots < (std::size_t{1} << kPoolIndexBits));

  /// One out-link of the link plan, in sender order.
  struct OutLink {
    std::uint32_t in_pos = 0;  ///< the link's position in LinkPlan::in_ref
    std::uint32_t slot = 0;    ///< its EdgeIndex slot
    double cap = 0.0;          ///< link capacity per tick
    double minute_acc = 0.0;   ///< volume sent this (running) minute
  };

  /// The link plan: a CSR view of the overlay holding every piece of
  /// per-link state the tick reads or writes. Peers are in id order and
  /// links in adjacency order, so peer p's links sit at
  /// [offset[p], offset[p + 1]) of both per-link arrays: its in-links in
  /// in_ref (in_slots(p) order) and its out-links in out (out_slots(p)
  /// order). The gather and the fair-share pass read a receiver's
  /// references as one run; the sender's clamp writes each one at its
  /// out-link's in_pos. A slot's out-position is its reverse's
  /// in-position, since in_slots(p)[i] is the reverse of out_slots(p)[i].
  /// step() rebuilds the plan whenever Graph::version() has moved.
  struct LinkPlan {
    std::vector<std::uint32_t> offset;       ///< per peer, plus the end
    std::vector<std::uint32_t> in_ref;       ///< per in-link, receiver order
    std::vector<OutLink> out;                ///< per out-link, sender order
    std::vector<std::uint32_t> slot_in_pos;  ///< per slot: in_ref position
  };
  /// plan_version_ of an engine whose next step() must rebuild the plan.
  static constexpr std::uint64_t kNoPlan = ~std::uint64_t{0};

  /// Per-span contribution log for the multi-span tick. Each span sweeps
  /// its contiguous peer range in canonical order and *records* every
  /// value the one-span tick would have added to a global accumulator;
  /// the coordinator then replays the logs span-by-span. Because spans
  /// partition the peer range in order, the concatenated replay is the
  /// exact one-span fold — same values, same order, bit-identical sums.
  struct SpanLog {
    std::vector<double> transport_lost;               ///< phase 1, per lossy in-link
    std::vector<std::array<double, 3>> service_drops; ///< {total, good, attack}
    std::vector<double> good_issued;
    std::vector<double> attack_issued;
    std::vector<std::pair<std::uint8_t, double>> fresh;  ///< {hop-1, reach mass}
    std::vector<std::array<double, 3>> peer_load;     ///< {rho, delay*load, load}
    std::vector<std::array<double, 3>> clamp_drops;   ///< {total, good, attack}
    std::vector<std::array<double, 2>> traffic;       ///< {total, attack part}
    void clear() noexcept;
  };
  struct DirectSink;
  struct SpanLogSink;

  /// One out-link vector of the sender being clamped: the forwarded
  /// vector with one issuance value slotted in, held in the span's pool,
  /// and its sums.
  struct LinkVector {
    std::uint64_t issued_bits = 0;  ///< the issuance value, bit for bit
    std::uint32_t at = 0;           ///< index of the vector in the pool
    double total = 0.0;
    std::array<double, kClasses> cls_tot{};
  };

  /// Per-span state for phase 2 — the peer's emission, the link vectors
  /// the clamp builds for its out-links, the span's emission pool and the
  /// fair-share waterfill buffers — reused across ticks, one per span so
  /// concurrent sweeps never share.
  struct TickScratch {
    FlowVector forward{};         ///< forwarded volume, same on every out-link
    std::vector<double> issued;   ///< fresh issuance per out-link (adjacency order)
    std::size_t issue_class = 0;  ///< traffic class of `issued`
    /// The sender's distinct link vectors: one for a good sender, at most
    /// one per receiver bandwidth class for an agent.
    std::array<LinkVector, topology::kBandwidthClasses> links{};
    /// The link vectors this span's senders emitted in the last tick: per
    /// sender each distinct link vector, plus one scaled vector per
    /// clamped out-link; span 0's pool starts with the zero vector.
    /// Refilled by every pass 2; phase 1 and the fair share pass read it
    /// through the links' references first.
    std::vector<FlowVector> pool;
    std::uint32_t pool_span = 0;  ///< this span's bits of a reference
    std::vector<double> edge_totals;
    std::vector<std::array<double, kClasses>> edge_class_totals;
    std::vector<char> done;
  };

  /// A link's in-flight vector, read through its pool reference.
  const FlowVector& link_flow(std::uint32_t ref) const noexcept {
    return span_scratch_[ref >> kPoolIndexBits].pool[ref & kPoolIndexMask];
  }
  /// The in-flight vector of a slot that has flow state.
  const FlowVector& slot_flow(topology::EdgeIndex::Slot slot) const noexcept {
    return link_flow(plan_.in_ref[plan_.slot_in_pos[slot]]);
  }
  /// Lay plan_ out for the graph as it is: offsets, positions, capacities,
  /// every reference 0 and every accumulator 0.
  void layout_plan();
  /// Rebuild plan_ for a moved graph: carry each link that has flow state
  /// over from the old plan, and create the state of every other link.
  void rebuild_plan();
  /// Give each of `spans` pools room for half its even share of the
  /// directed slots, so pools reallocate only when the slot capacity
  /// grows, unless a pass emits more than that (see network.cpp).
  void sync_pools(std::size_t spans);
  /// Throws std::length_error past kMaxSlots directed slots.
  void check_slot_ceiling() const;

  // The tick is two passes over the peer spans: phase 1 gathers every
  // peer's arrivals, then phase 2 runs each peer's service, emission and
  // bandwidth clamp back to back. Each body processes one peer and reports
  // accumulator contributions through a Sink: DirectSink adds them to the
  // running accumulators (one span), SpanLogSink records them for the
  // canonical replay (several spans).
  template <typename Sink>
  void phase1_peer(PeerId to, double rel, Sink& sink);
  template <typename Sink>
  std::array<double, kClasses> phase2_service(PeerId v, double cap_tick,
                                              double service_time, double rel,
                                              TickScratch& ts, Sink& sink);
  template <typename Sink>
  void phase2_emit(PeerId v, std::size_t ttl,
                   const std::array<double, kClasses>& survive_c,
                   TickScratch& ts, Sink& sink);
  template <typename Sink>
  void phase2_clamp(PeerId from, std::size_t ttl, TickScratch& ts,
                    Sink& sink);

  /// Run both passes over `spans` (with the fair-share service pass
  /// between them when it applies), on the pool when there is one and
  /// several spans, inline otherwise. `sink_for(s)` yields span s's sink.
  template <typename SinkFor>
  void sweep_spans(std::span<const util::IndexSpan> spans, std::size_t ttl,
                   double cap_tick, double service_time, double rel,
                   SinkFor&& sink_for);
  void add_drop(double total, double good, double attack) noexcept;
  void replay_span_logs(double& tick_util, std::size_t& util_nodes);
  void refresh_shard_plan();
  void refresh_fresh_fractions() noexcept;

  void rotate_minute();
  double link_capacity_per_tick(PeerId from, PeerId to) const noexcept {
    return link_cap_tick_[static_cast<std::size_t>(bandwidth_.peer_class(from))]
                         [static_cast<std::size_t>(bandwidth_.peer_class(to))];
  }

  topology::Graph& graph_;
  const topology::BandwidthMap& bandwidth_;
  const workload::ContentModel& content_;
  FlowConfig config_;
  util::Rng rng_;
  obs::Tracer tracer_;

  std::vector<PeerKind> kinds_;
  std::vector<double> issue_scale_;
  /// Per-slot flow state: its presence, by generation, and the link's
  /// Out_query of the last completed minute. rebuild_plan() creates it for
  /// every link just before the first tick that reads the link; it retires
  /// when the slot's generation moves on, so teardown needs no erase.
  topology::EdgeMap<double> minute_done_;
  /// Everything else per link; see LinkPlan. plan_version_ is the
  /// Graph::version() it was rebuilt for, or kNoPlan.
  LinkPlan plan_;
  std::uint64_t plan_version_ = kNoPlan;

  /// Span machinery: the worker pool (jobs > 1 only) and its plan of one
  /// degree-weighted contiguous peer span per worker, per-span logs and
  /// scratch (emission pools included), the fair-share survive carry
  /// between passes, and the one-span tick's clamp drops, held back so
  /// they fold after every service drop.
  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<util::IndexSpan> shard_spans_;
  std::vector<std::uint64_t> shard_weights_;
  std::vector<SpanLog> span_logs_;
  std::vector<TickScratch> span_scratch_;
  std::vector<std::array<double, kClasses>> survive_scratch_;
  std::vector<std::array<double, 3>> clamp_drops_;
  std::uint64_t shard_plan_version_ = kNoPlan;

  /// Link capacity per tick by (sender class, receiver class): the
  /// bottleneck of the sender's upstream and the receiver's downstream,
  /// infinite when bandwidth limits are off. Fixed at construction.
  std::array<std::array<double, topology::kBandwidthClasses>,
             topology::kBandwidthClasses>
      link_cap_tick_{};

  topology::CoverageProfile profile_;  ///< exact reach ratios (per-hop)
  /// Per-hop forwarding damping, calibrated closed-loop: a unit impulse
  /// propagated with the engine's own update rule must reproduce the exact
  /// BFS profile's per-hop message counts. This corrects the mean-field
  /// bias at hubs (many arrivals, fresh only once). recalibrate() takes the
  /// exact counts from topology::flood_coverage_batch and advances the
  /// impulses eight origins at a time, bit-identical to one at a time.
  std::array<double, kMaxTtl> forward_damping_{};
  /// profile_.fresh_fraction(hop) at index hop-1, refreshed whenever
  /// profile_ changes (recalibrate(), load()).
  std::array<double, kMaxTtl> fresh_fraction_{};
  double last_calibration_minute_ = 0.0;

  /// Monitors remember the last completed minute even after a link is torn
  /// down (a peer's Out_query/In_query windows do not vanish when a TCP
  /// connection closes). Captured at disconnect time — before the slot is
  /// released — and cleared at each minute rotation; the population is only
  /// ever the links cut in the current minute, so lookups scan linearly.
  struct GhostCount {
    PeerId from = kInvalidPeer;
    PeerId to = kInvalidPeer;
    double count = 0.0;
  };
  std::vector<GhostCount> ghost_minute_counts_;

  SimTime now_ = 0.0;
  std::uint64_t tick_count_ = 0;
  std::uint64_t ticks_per_minute_ = 60;

  // Running-minute accumulators (rotated into MinuteReport).
  double acc_traffic_ = 0.0;
  double acc_attack_traffic_ = 0.0;
  double acc_good_issued_ = 0.0;
  double acc_attack_issued_ = 0.0;
  double acc_dropped_ = 0.0;
  /// Ground-truth split of acc_dropped_ by traffic class (purely additive
  /// side accounting; never feeds back into the flow arithmetic).
  std::array<double, kClasses> acc_dropped_class_{};
  double acc_transport_lost_ = 0.0;
  std::array<double, kMaxTtl> acc_fresh_good_by_hop_{};
  double acc_util_ = 0.0;
  double acc_delay_weight_ = 0.0;
  double acc_delay_load_ = 0.0;
  double overhead_accum_ = 0.0;

  MinuteReport last_report_;
  std::vector<MinuteReport> history_;
  std::vector<MinuteHook> minute_hooks_;

  // Scratch buffers reused across ticks (avoid per-tick allocation).
  std::vector<FlowVector> arrivals_;
};

}  // namespace ddp::flow
