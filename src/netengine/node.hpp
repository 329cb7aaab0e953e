#pragma once

/// \file node.hpp
/// DdpNode: one real Gnutella 0.6 peer process — listen, bootstrap,
/// flood queries, answer hits, and police its neighbours with the
/// per-node DD-POLICE judge (core::LocalPolice), all on the socket
/// engine's event loop.
///
/// Identity and addressing. Every node has an overlay address (the
/// synthetic 10.x.y.z of net/address.hpp, derived from its index) and a
/// transport address (127.0.0.1:port). The wire messages carry overlay
/// addresses; the testbed convention `peer_port_base` maps overlay address
/// index -> transport port so a judge can dial any buddy member directly,
/// exactly like DD-POLICE assumes IP connectivity between monitors.
///
/// Handshake. On connect (either direction) each side sends one
/// unsolicited Pong introducing itself: ip = overlay address, port =
/// transport listen port, files_shared = link kind (0 overlay, 1
/// control). A link is up when the peer's Pong arrives; overlay links
/// then join the query flood and the police neighbour set, control links
/// only carry Neighbor_List / Neighbor_Traffic (a buddy dial must not
/// rewire the overlay topology it is judging).
///
/// Protocol time. A "minute" is `minute_seconds` of wall clock, so the
/// testbed compresses the paper's cadence (monitors, rounds, exchanges)
/// into seconds. Monitors are util::RateWindow instances whose window IS
/// the protocol minute.
///
/// The attacker role is the paper's compromised servent: from
/// attack_start_minute it issues attack_rate_per_minute queries instead
/// of the honest rate. It still speaks the whole protocol (handshake,
/// lists, even traffic replies) — detection must come from the
/// indicators, not from a rigged client.
///
/// Trace. With a sink bound, the node and its judge write the obs event
/// vocabulary the simulator uses, stamped t = protocol minutes × 60:
/// peer_joined at start (plus agent_activated for an attacker),
/// LocalPolice's flag, round and cut events, and peer_left at shutdown.
/// Peers are named by overlay address (docs/observability.md).

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/police.hpp"
#include "net/address.hpp"
#include "netengine/engine.hpp"
#include "obs/trace.hpp"
#include "p2p/guid_table.hpp"
#include "util/rate_window.hpp"
#include "util/rng.hpp"

namespace ddp::netengine {

/// Shortest protocol minute a node runs correctly, in wall seconds.
inline constexpr double kMinMinuteSeconds = 0.1;

struct NodeConfig {
  std::uint32_t index = 0;        ///< overlay identity; address = 10.x.y.z
  std::string host = "127.0.0.1";
  /// Transport ports this node dials at startup (its planned adjacency).
  std::vector<std::uint16_t> bootstrap;
  /// index -> transport port mapping: port_base + index, used only when
  /// the sum is a port (<= 65535; otherwise the member's advertised port,
  /// if any). 0 disables it (rounds then rely on members already
  /// connected or advertised).
  std::uint16_t peer_port_base = 0;

  std::uint8_t ttl = 5;
  double query_rate_per_minute = 2.0;
  double hit_probability = 0.05;

  bool attacker = false;
  double attack_rate_per_minute = 2000.0;
  double attack_start_minute = 1.0;

  /// Wall seconds per protocol minute (the testbed accelerator), at least
  /// kMinMinuteSeconds: the minute timer fires at most every 100 ms, so a
  /// shorter minute would let protocol time run ahead of the minute events.
  double minute_seconds = 60.0;

  core::DdPoliceConfig ddp{};

  /// Caller-owned trace sink, bound to the node and its judge and
  /// flushed every protocol minute; it must outlive the node. Null = off.
  obs::TraceSink* trace_sink = nullptr;
  std::uint64_t seed = 1;
  EngineConfig engine{};
};

class Node final : private core::PoliceTransport {
 public:
  explicit Node(const NodeConfig& config);
  ~Node() override;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Listen, arm the cadence timers, dial the bootstrap set. False when
  /// the listen socket could not be bound.
  bool start();

  /// Run until SIGTERM/SIGINT (requires install_signals) or stop().
  void run();
  bool poll_once(int timeout_ms = 10) { return engine_.poll_once(timeout_ms); }
  void stop() { engine_.stop(); }

  /// Trace peer_left with the query totals and flush the sink (also
  /// called by the destructor; idempotent, and a no-op before start()).
  void shutdown();

  Engine& engine() noexcept { return engine_; }
  core::LocalPolice& police() noexcept { return police_; }

  std::uint32_t self_address() const noexcept { return self_; }
  std::uint16_t listen_port() const noexcept { return engine_.listen_port(); }

  /// Ready overlay neighbours (handshake completed, not control-only).
  std::size_t overlay_degree() const;
  std::uint64_t queries_issued() const noexcept { return queries_issued_; }
  std::uint64_t queries_forwarded() const noexcept { return queries_forwarded_; }
  std::uint64_t hits_received() const noexcept { return hits_received_; }
  std::uint64_t duplicates_dropped() const noexcept { return dup_dropped_; }
  std::uint64_t echo_revocations() const noexcept { return echo_revoked_; }
  /// The police-facing monitor reading for one neighbour (out is the
  /// echo-corrected credit). Exposed for tests.
  std::optional<core::LinkMinute> link_minute(std::uint32_t address);
  const std::vector<core::Decision>& cuts() const noexcept {
    return police_.decisions();
  }
  bool is_banned(std::uint32_t address) const {
    return banned_.count(address) != 0;
  }

 private:
  enum class LinkKind : std::uint8_t { kOverlay = 0, kControl = 1 };

  struct Link {
    ConnId conn = kInvalidConn;
    std::uint32_t address = 0;       ///< peer overlay address (0 until hello)
    std::uint16_t peer_port = 0;     ///< peer's advertised listen port
    LinkKind kind = LinkKind::kOverlay;
    bool ready = false;              ///< hello received
    bool outbound = false;
    std::uint16_t dialed_port = 0;   ///< for outbound: the port we dialed
    std::uint32_t dial_target = 0;   ///< control dials: intended address
    double ready_since = 0.0;        ///< wall seconds at hello
    util::RateWindow out_queries;    ///< we -> peer (Out_query monitor)
    util::RateWindow in_queries;     ///< peer -> we (In_query monitor)
    /// Unrelayable Out_query credit: sends the peer could not forward —
    /// TTL-dead copies (known at send time) and duplicates (proven when
    /// the peer sends the same query back). Police reports subtract this
    /// from out_queries; the raw counter keeps measuring bytes.
    util::RateWindow out_revoked;
  };

  // PoliceTransport: control-plane sends by overlay address, dialing a
  // control link when no connection exists yet.
  void send_neighbor_list(std::uint32_t to,
                          const std::vector<std::uint32_t>& members) override;
  void send_neighbor_traffic(std::uint32_t to,
                             const net::NeighborTraffic& report) override;

  void on_accept(ConnId id);
  void on_connect(ConnId id, bool ok);
  void on_message(ConnId id, const net::Message& msg);
  void on_close(ConnId id, CloseReason reason);

  void handle_hello(Link& link, const net::Pong& pong);
  void handle_query(Link& link, const net::Message& msg);
  void handle_query_hit(Link& link, const net::Message& msg);

  void send_hello(ConnId id, LinkKind kind);
  /// Push our current neighbour list to every overlay neighbour. Deferred
  /// to the police tick (adverts_dirty_) when the set changes inside an
  /// engine callback, so we never send re-entrantly from on_close.
  void advertise_neighbors();
  void issue_queries();
  void issue_one_query(double now_s);
  void on_protocol_minute();
  void apply_cut(std::uint32_t suspect);
  void maintain_bootstrap();

  /// Deliver a control message to `to`, dialing if allowed and needed.
  void send_control(std::uint32_t to, const net::Message& msg);
  Link* link_by_conn(ConnId id);
  Link* ready_link_to(std::uint32_t address);
  /// Out_query minus revoked echo credit, clamped at zero (a burst of
  /// trailing revocations after the flood stops must not go negative).
  /// This echo-corrected credit, not the raw Table-1 counter, is what the
  /// judge reads (a deployment refinement, see node.cpp): when a
  /// duplicate of a query arrives on a link we had flooded it to, that
  /// send's credit is revoked, because the peer already had the query and
  /// could not relay the copy. Without it an attacker's own flood, racing
  /// back through two-hop paths, stocks the relay bound (k-1)*input and a
  /// high-degree attacker becomes arithmetically unconvictable.
  double out_credit(Link& link, double now_s) const;

  double wall_seconds() const { return double(engine_.now_ms()) / 1000.0; }
  double protocol_minutes() const {
    return wall_seconds() / config_.minute_seconds;
  }

  NodeConfig config_;
  std::uint32_t self_;
  Engine engine_;
  core::LocalPolice police_;
  obs::Tracer tracer_;
  util::Rng rng_;

  std::unordered_map<ConnId, Link> links_;
  std::unordered_map<std::uint32_t, ConnId> by_address_;  ///< ready links
  std::unordered_set<std::uint32_t> banned_;
  /// Control messages waiting for a dial to complete, per overlay address.
  std::unordered_map<std::uint32_t, std::vector<net::Message>> control_pending_;
  /// Bootstrap ports with a live or in-flight outbound connection.
  std::unordered_set<std::uint16_t> dialed_ports_;
  /// Transport ports of banned peers (never redialed).
  std::unordered_set<std::uint16_t> banned_ports_;
  /// Last advertised transport port per overlay address (from hellos and
  /// Neighbor_List entries) — how buddy dials find members without a
  /// port-base convention.
  std::unordered_map<std::uint32_t, std::uint16_t> port_hints_;

  p2p::GuidTable seen_;  ///< guid -> (origin link address | self marker)
  double issue_acc_ = 0.0;
  double last_issue_s_ = 0.0;
  std::uint64_t minute_ = 0;
  std::uint64_t query_serial_ = 0;

  std::uint64_t queries_issued_ = 0;
  std::uint64_t queries_forwarded_ = 0;
  std::uint64_t hits_received_ = 0;
  std::uint64_t dup_dropped_ = 0;
  std::uint64_t echo_revoked_ = 0;

  bool joined_ = false;  ///< started and not yet shut down
  bool adverts_dirty_ = false;  ///< neighbour set changed; advertise on tick
};

}  // namespace ddp::netengine
