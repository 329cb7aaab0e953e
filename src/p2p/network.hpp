#pragma once

/// \file network.hpp
/// Packet-level unstructured-P2P engine: every query is an individual
/// descriptor flooding the overlay exactly as Gnutella 0.6 specifies —
/// duplicate GUIDs dropped, TTL decremented per hop, hits routed back hop
/// by hop along the inverse query path, bounded input queues served at a
/// finite rate, overflow dropped. This engine is the high-fidelity
/// substrate: it reproduces the paper's LimeWire testbed (Figs. 5 and 6)
/// and cross-validates the scalable flow engine.

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "fault/channel.hpp"
#include "net/guid.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "p2p/config.hpp"
#include "p2p/guid_table.hpp"
#include "sim/engine.hpp"
#include "topology/graph.hpp"
#include "util/rate_window.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"
#include "workload/content.hpp"

namespace ddp::snapshot {
class Writer;
class Reader;
}  // namespace ddp::snapshot

namespace ddp::p2p {

/// In-memory descriptor flowing through the engine. Wire encoding is
/// provided by ddp::net and exercised by the codec tests and tools; the
/// engine keeps descriptors as structs for speed but preserves every
/// protocol-relevant field.
struct Descriptor {
  enum class Kind : std::uint8_t { kQuery, kQueryHit };
  Kind kind = Kind::kQuery;
  net::Guid guid{};
  std::uint8_t ttl = 7;
  std::uint8_t hops = 0;
  PeerId origin = kInvalidPeer;            ///< engine-side bookkeeping only
  workload::ObjectId object = 0;           ///< query target
  PeerId hit_responder = kInvalidPeer;     ///< QueryHit: who answered
};

/// Outcome record of one issued query (for response-time / success-rate
/// metrics; Sec. 3.6 definitions).
struct QueryOutcome {
  QueryId id = 0;
  net::Guid guid{};  ///< wire GUID (keys the index; needed to unindex)
  PeerId origin = kInvalidPeer;
  SimTime issued_at = 0.0;
  bool responded = false;
  SimTime first_response_at = 0.0;
  bool attack = false;  ///< issued by a compromised peer
};

/// Aggregate engine counters.
struct NetworkTotals {
  std::uint64_t queries_issued = 0;
  std::uint64_t attack_queries_issued = 0;
  std::uint64_t messages_sent = 0;       ///< all descriptor transmissions
  std::uint64_t queries_processed = 0;   ///< dequeued and serviced
  std::uint64_t queries_dropped = 0;     ///< queue overflow
  std::uint64_t duplicates_dropped = 0;  ///< seen-GUID drops
  std::uint64_t hits_generated = 0;
  std::uint64_t hits_delivered = 0;      ///< reached the query origin
  double overhead_messages = 0.0;        ///< defense-protocol messages
  // Fault-injection tallies (zero unless an UnreliableChannel is attached).
  std::uint64_t transport_dropped = 0;    ///< descriptors lost in flight
  std::uint64_t transport_corrupted = 0;  ///< discarded as damaged on arrival
  std::uint64_t transport_duplicated = 0; ///< extra copies delivered
};

/// Per-directed-link per-minute counters — what DD-POLICE's monitors read.
/// Windows live in an EdgeMap keyed by the graph's directed-edge slots, so
/// tearing a link down (graph remove_edge -> slot release) retires both
/// directions' windows automatically and a re-established connection
/// always starts with fresh history.
class LinkMonitors {
 public:
  explicit LinkMonitors(const topology::Graph& graph)
      : graph_(&graph), windows_(graph.edge_index()) {}

  /// Queries `from` sent `to` per minute over the window ending at `now`.
  /// A const read (RateWindow::per_minute_at) that leaves the window
  /// where it is, because DD-POLICE reads it through PacketPort's const
  /// OverlayPort::sent_last_minute; windows advance on record().
  double out_per_minute_at(PeerId from, PeerId to, SimTime now) const;
  void record(PeerId from, PeerId to, SimTime now);
  /// Explicitly reset both directions of a live link (slot release already
  /// covers teardown; this is for resets that keep the edge up).
  void forget(PeerId a, PeerId b);

  /// Serialize every live window into the writer's open section. The
  /// graph (and so the slot index) is saved by its owner; load() must run
  /// after the graph has been restored.
  void save(snapshot::Writer& w) const;

  /// Restore state saved by save().
  void load(snapshot::Reader& r);

 private:
  const topology::Graph* graph_;
  topology::EdgeMap<util::RateWindow> windows_;
};

/// The packet-level network. Owns peer state; borrows the graph, content
/// model and event engine (so callers can share them with churn processes
/// and the defense layer).
class PacketNetwork {
 public:
  PacketNetwork(topology::Graph& graph, const workload::ContentModel& content,
                sim::Engine& engine, const P2pConfig& config, util::Rng rng);

  /// Mark a peer compromised (affects outcome labelling; the attack module
  /// drives its behaviour).
  void set_kind(PeerId p, PeerKind kind);
  PeerKind kind(PeerId p) const noexcept { return kinds_[p]; }

  /// Override one peer's service capacity (queries/min). Used by the
  /// testbed harness where peer roles differ.
  void set_capacity(PeerId p, double per_minute);

  /// Issue a fresh query from `origin` for `object`. Returns its id.
  QueryId issue_query(PeerId origin, workload::ObjectId object);

  /// Issue a query for a random (popularity-sampled) object.
  QueryId issue_random_query(PeerId origin);

  /// Tear down a logical connection immediately (defense action). Pending
  /// in-flight messages on that link are still delivered (TCP close is not
  /// instantaneous); future sends stop.
  void disconnect(PeerId a, PeerId b);

  /// Re-establish a logical connection (probational reconnection or
  /// partition repair). Monitors start fresh — a new TCP connection has no
  /// history. False when the edge already exists or an endpoint is down.
  bool connect(PeerId a, PeerId b);

  /// Reset per-peer protocol state after a rejoin (seen GUIDs, queues).
  void reset_peer(PeerId p);

  const NetworkTotals& totals() const noexcept { return totals_; }

  /// Account defense-protocol messages (the packet engine does not
  /// simulate them individually; they are tallied into the totals).
  void add_overhead_messages(double count) { totals_.overhead_messages += count; }

  /// Outcome records still inside the retention horizon (older records are
  /// settled — no hit can still route back once the seen tables forgot the
  /// GUID — and get pruned so memory does not grow with issued queries;
  /// the aggregate `totals()` are exact over the whole run regardless).
  const std::vector<QueryOutcome>& outcomes() const noexcept { return outcomes_; }

  /// Settled outcome records dropped so far (memory-bound accounting).
  std::uint64_t outcomes_pruned() const noexcept { return outcome_base_; }
  LinkMonitors& monitors() noexcept { return monitors_; }
  const LinkMonitors& monitors() const noexcept { return monitors_; }
  sim::Engine& engine() noexcept { return engine_; }
  const topology::Graph& graph() const noexcept { return graph_; }

  /// Per-peer drop/processed counters (Fig. 6 reads these).
  std::uint64_t processed_at(PeerId p) const noexcept { return peers_[p].processed; }
  std::uint64_t dropped_at(PeerId p) const noexcept { return peers_[p].dropped; }
  std::uint64_t received_at(PeerId p) const noexcept { return peers_[p].received; }

  /// Hook invoked whenever a peer transmits a query to a neighbour
  /// (after the monitors are updated); the DD-POLICE layer subscribes.
  std::function<void(PeerId from, PeerId to, SimTime now)> on_query_sent;

  /// Attach a fault-injection link policy. Every transmission then rolls a
  /// drop / duplicate / corrupt / jitter fate; monitors still record what
  /// the sender pushed (loss is a receiver-side event, matching the flow
  /// engine's semantics). Null, or a channel with all-zero probabilities,
  /// keeps the exact fault-free path and consumes no random draws.
  void set_channel(fault::UnreliableChannel* channel) noexcept {
    channel_ = channel;
  }

  /// Attach a trace sink (null detaches). Emits the per-descriptor data
  /// plane vocabulary: query_issued/forwarded/dropped/duplicate/expired,
  /// query_hit, hit_delivered — each payload carries the deterministic
  /// query id plus the parent hop, so the JSONL stream losslessly encodes
  /// every query's flood tree (obs::build_flood_tree reconstructs it).
  /// Tracing observes only — no random draws, no state.
  void set_trace_sink(obs::TraceSink* sink) noexcept { tracer_.bind(sink); }
  const obs::Tracer& tracer() const noexcept { return tracer_; }

  /// Attach a metrics registry (null detaches). Exports the
  /// `p2p.guid_table_size` gauge: total live GUID-dedup entries across all
  /// peers, refreshed whenever a table changes size (insert, prune
  /// compaction, peer reset). Observation only — no behavioural effect.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Total live GUID-dedup entries across all peers (the gauge's value).
  std::uint64_t guid_table_size() const noexcept { return guid_entries_; }

  /// Serialize peer protocol state (dedup tables, counters), link
  /// monitors, totals and the query-outcome window into the writer's open
  /// section. Only valid at a quiescent point — no queued descriptors, no
  /// busy servers and no in-flight engine events; throws SnapshotError
  /// otherwise. The graph and engine are saved by their owner.
  void save(snapshot::Writer& w) const;

  /// Restore state saved by save(). The graph must already be restored
  /// (monitor windows re-attach to live edge slots); the outcome index is
  /// rebuilt from the outcome records.
  void load(snapshot::Reader& r);

 private:
  struct PeerState {
    double capacity_per_minute;
    std::deque<Descriptor> queue;
    bool busy = false;
    GuidTable seen;  ///< guid -> (arrived-from, when): dup table + inverse route
    std::uint64_t processed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t received = 0;
    SimTime last_prune = 0.0;
  };

  void transmit(PeerId from, PeerId to, Descriptor d,
                PeerId parent = kInvalidPeer);
  void arrive(PeerId at, PeerId from, Descriptor d);
  void service_next(PeerId at);
  void process(PeerId at, PeerId from, const Descriptor& d);
  void prune_seen(PeerState& ps, SimTime now);
  void prune_outcomes(SimTime now);
  /// Deterministic query id for a GUID still inside the outcome horizon
  /// (-1 once pruned). Trace payloads only — called under tracer_.on().
  double trace_query_id(const net::Guid& guid) const noexcept;
  double service_time(const PeerState& ps) const noexcept;
  void note_guid_entries(std::size_t before, std::size_t after);

  topology::Graph& graph_;
  const workload::ContentModel& content_;
  sim::Engine& engine_;
  P2pConfig config_;
  util::Rng rng_;
  std::vector<PeerState> peers_;
  std::vector<PeerKind> kinds_;
  fault::UnreliableChannel* channel_ = nullptr;
  obs::Tracer tracer_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::MetricId guid_gauge_ = obs::kInvalidMetric;
  std::uint64_t guid_entries_ = 0;  ///< sum of all peers' seen.size()
  LinkMonitors monitors_;
  NetworkTotals totals_;
  std::vector<QueryOutcome> outcomes_;
  /// guid -> *absolute* outcome index (subtract outcome_base_ to address
  /// outcomes_; pruned records are unindexed before they are dropped).
  std::unordered_map<net::Guid, std::size_t, net::GuidHash> outcome_index_;
  std::size_t outcome_base_ = 0;  ///< absolute index of outcomes_[0]
  QueryId next_query_ = 1;
};

}  // namespace ddp::p2p
