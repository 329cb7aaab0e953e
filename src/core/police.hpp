#pragma once

/// \file police.hpp
/// LocalPolice: the DD-POLICE judge as seen from ONE peer, for deployments
/// where no omniscient coordinator exists.
///
/// core::DdPolice (ddpolice.hpp) runs the whole overlay's protocol inside
/// one object — it iterates every judge, reads every monitor, and collects
/// every report synchronously, which is exactly right for the simulation
/// engines and exactly wrong for a real socket deployment where each peer
/// only sees its own links and control messages arrive asynchronously.
/// LocalPolice is the per-node half: the same verdict step (core::verdict,
/// Definitions 2.1-2.3, shared with DdPolice), the same DdPoliceConfig
/// thresholds, and the same phase structure (Sec. 3.1 list exchange,
/// Sec. 3.2 monitors, Sec. 3.3 buddy rounds, Sec. 3.4 silent-members-
/// count-as-zero), but driven by inbound messages and an owner-supplied
/// minute cadence instead of a global sweep.
///
/// Peers are identified by their 32-bit overlay address (the virtual IPv4
/// carried in Pong/Neighbor_Traffic/Neighbor_List bodies), not by dense
/// PeerId — a node never knows the global node table. Time is protocol
/// minutes (double); the owner scales wall-clock to protocol minutes, which
/// is how the testbed compresses a "minute" to a few wall seconds.
///
/// Buddy rounds over a real transport:
///   - the owner reports per-link monitor readings at each completed minute
///     via on_minute(); a neighbour over the warning threshold opens a
///     round (suppressed to one per suspect per suppression window);
///   - opening a round broadcasts this judge's own Neighbor_Traffic
///     observation to the suspect's believed buddy group (the list the
///     suspect advertised); the broadcast doubles as the request;
///   - a received Neighbor_Traffic about one of our neighbours is answered
///     with our own counters (once per suspect per suppression window) and
///     recorded into the matching open round, if any;
///   - a round closes when every member answered or the collect timeout
///     expires (on_tick); silent members count as zero (Sec. 3.4), the
///     report set goes through core::verdict, and the cut handler fires
///     once the verdict has tripped cut_confirmations rounds in a row.
///
/// Only the gates around the verdict are this driver's own: the snapshot,
/// shrink and ban admission of a round, the k = 1 self-judgment DdPolice
/// refuses, and cut confirmation (DESIGN.md §9 lists them). The sim-side
/// extras (list-consistency verification, fault-plane retry loops,
/// quarantine ladder, adaptive bands) stay in DdPolice; a socket node
/// enforces its verdicts by dropping the connection and banning the
/// address, which is the paper's terminal cut.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/ddpolice.hpp"
#include "core/indicators.hpp"
#include "core/overlay_port.hpp"
#include "net/message.hpp"
#include "obs/trace.hpp"

namespace ddp::core {

/// Outbound control-message seam. The engine implements this over its
/// connections (dialing a buddy member it is not yet connected to is the
/// engine's problem, not the protocol's).
class PoliceTransport {
 public:
  virtual ~PoliceTransport() = default;

  /// Advertise `members` (our current neighbour addresses) to `to`.
  virtual void send_neighbor_list(std::uint32_t to,
                                  const std::vector<std::uint32_t>& members) = 0;

  /// Send one Table-1 Neighbor_Traffic message to `to`. Serves both as a
  /// round-opening request (carrying our own observation of the suspect)
  /// and as the reply to another judge's request.
  virtual void send_neighbor_traffic(std::uint32_t to,
                                     const net::NeighborTraffic& report) = 0;
};

class LocalPolice {
 public:
  /// `self` is this node's overlay address. Only the threshold/indicator
  /// and cadence fields of the config are consulted (see file comment).
  LocalPolice(std::uint32_t self, const DdPoliceConfig& config,
              PoliceTransport& transport);

  /// Fired on every cut verdict, after the Decision is recorded. The owner
  /// disconnects and bans the suspect. Decision::judge/suspect carry
  /// overlay addresses in this context, not dense PeerIds.
  void set_cut_handler(std::function<void(std::uint32_t suspect,
                                          const Decision&)> handler) {
    cut_handler_ = std::move(handler);
  }

  void set_trace_sink(obs::TraceSink* sink) noexcept { tracer_.bind(sink); }

  /// Live per-link counter probe. When set, Neighbor_Traffic reports (both
  /// round-opening broadcasts and replies to other judges) read the rolling
  /// last-minute window at send time instead of the last completed-minute
  /// snapshot. Deployment nodes need this: minute boundaries are anchored
  /// to each process's own start, so a frozen snapshot on one host can
  /// predate the traffic another host is judging — the relayed flood then
  /// looks self-originated and honest forwarders get cut. Returning
  /// nullopt for a peer falls back to the snapshot.
  using TrafficProbe =
      std::function<std::optional<LinkMinute>(std::uint32_t peer)>;
  void set_traffic_probe(TrafficProbe probe) { probe_ = std::move(probe); }

  /// Membership bookkeeping; remove also abandons any round the peer is
  /// the suspect of.
  void add_neighbor(std::uint32_t peer);
  void remove_neighbor(std::uint32_t peer);

  /// The owner enacted a cut verdict against `peer`. Banned peers are
  /// excluded from future buddy groups and their reports are ignored; a
  /// round whose believed group intersects the ban set is skipped for the
  /// window, because its monitor evidence still contains the banned
  /// peer's flood — traffic the remaining group can no longer account
  /// for, which would read as self-originated and cut honest forwarders
  /// during the post-cut transient. The next window judges cleanly.
  void ban_peer(std::uint32_t peer);
  bool is_banned(std::uint32_t peer) const {
    return std::find(banned_.begin(), banned_.end(), peer) != banned_.end();
  }
  const std::vector<std::uint32_t>& neighbors() const noexcept {
    return neighbors_;
  }

  /// A neighbour-list advertisement arrived from `from`.
  void on_neighbor_list(std::uint32_t from,
                        const std::vector<std::uint32_t>& members,
                        double now_minutes);

  /// A Neighbor_Traffic message arrived from `from`.
  void on_neighbor_traffic(std::uint32_t from,
                           const net::NeighborTraffic& report,
                           double now_minutes);

  /// A protocol minute completed; `links` holds every live neighbour's
  /// monitor readings for it. Runs the periodic advertisement, the warning
  /// scan (opening rounds), and expires overdue rounds.
  void on_minute(double minute, const std::vector<LinkMinute>& links);

  /// Sub-minute heartbeat: closes rounds whose collect timeout expired.
  void on_tick(double now_minutes);

  const std::vector<Decision>& decisions() const noexcept { return decisions_; }
  std::uint64_t lists_sent() const noexcept { return lists_sent_; }
  std::uint64_t rounds_run() const noexcept { return rounds_; }
  std::uint64_t suspicions() const noexcept { return suspicions_; }

  /// The believed buddy group of `suspect` (its last advertisement, self
  /// excluded). Exposed for tests.
  std::vector<std::uint32_t> believed_group(std::uint32_t suspect) const;

  /// Whether `suspect` has ever advertised a neighbour list to us. Without
  /// one the Sec. 3.3 round cannot be addressed and the warning is held
  /// over to the next minute (churned links advertise on setup, so the
  /// gap is one advertisement round trip).
  bool has_snapshot(std::uint32_t suspect) const;

 private:
  struct Round {
    std::uint32_t suspect = 0;
    double opened_minute = 0.0;
    double deadline_minutes = 0.0;
    double my_out = 0.0;  ///< our Out_query(suspect) at flag time
    double my_in = 0.0;   ///< our In_query(suspect) at flag time
    bool retried = false;  ///< one re-request of silent members granted
    std::vector<std::uint32_t> members;  ///< queried members (self excluded)
    std::vector<MemberReport> received;  ///< answers so far, member-addressed
  };

  void open_round(std::uint32_t suspect, double my_out, double my_in,
                  double minute);
  void reconcile_rounds(std::uint32_t owner, double now_minutes);
  void close_round(Round& round, double now_minutes);
  void expire_rounds(double now_minutes);
  void maybe_reply(std::uint32_t requester, std::uint32_t suspect,
                   double now_minutes);
  net::NeighborTraffic own_report(std::uint32_t suspect,
                                  double now_minutes) const;

  std::uint32_t self_;
  DdPoliceConfig config_;
  PoliceTransport& transport_;
  obs::Tracer tracer_;
  std::function<void(std::uint32_t, const Decision&)> cut_handler_;

  std::vector<std::uint32_t> neighbors_;

  /// Last advertisement received per neighbour address. `last_shrink`
  /// is when a member was last seen LEAVING the list: for one monitor
  /// window after that, the rolling counters still hold traffic only the
  /// departed member could account for (it was typically the flood's
  /// entry edge, cut by the suspect itself), so judging is quarantined —
  /// see open_round. An attacker shedding members to stall its own
  /// verdict buys one window per member and then faces the k=1
  /// self-judgment on an empty list.
  struct ListSnapshot {
    std::uint32_t owner = 0;
    std::vector<std::uint32_t> members;
    double minute = -1.0;
    double last_shrink = -1e9;
  };
  std::vector<ListSnapshot> snapshots_;
  const ListSnapshot* snapshot_for(std::uint32_t owner) const;

  /// Latest completed-minute monitor readings (from on_minute), scanned by
  /// address — degree is small (Gnutella ~6).
  std::vector<LinkMinute> last_minute_;
  TrafficProbe probe_;

  std::vector<Round> rounds_open_;
  /// Round suppression: last minute we opened a round on each suspect.
  struct SuspectClock {
    std::uint32_t suspect = 0;
    double last_round = -1e9;
  };
  std::vector<SuspectClock> clocks_;
  SuspectClock& clock_for(std::uint32_t suspect);

  /// Cut confirmation (config.cut_confirmations > 1): per-suspect count of
  /// consecutive rounds whose indicators tripped CT. A round that closes
  /// clean resets the streak; a verdict only fires when the streak reaches
  /// the configured count. See the config field for why deployment judges
  /// want this (one-round backlog-drain spikes on a starved host).
  struct TripStreak {
    std::uint32_t suspect = 0;
    int trips = 0;
    double last_trip = -1e9;  ///< minute of the newest counted trip
  };
  std::vector<TripStreak> streaks_;
  /// Returns true when this tripping round completes the streak (the cut
  /// should fire); false while confirmation is still pending.
  bool record_trip(std::uint32_t suspect, double now_minutes);
  void clear_streak(std::uint32_t suspect);

  /// Reply suppression, per (suspect, requester): one report to each judge
  /// per suspect per window. Per-pair, not per-suspect — when an attack
  /// saturates the overlay, every monitor of a hot peer opens a round on
  /// it within the same instant, and a member that answers only the first
  /// judge leaves the others closing on silent-as-zero reports, which
  /// reads as self-originated flooding and cuts honest forwarders. Each
  /// judge asks once per round, so the reply volume stays bounded.
  struct ReportClock {
    std::uint32_t suspect = 0;
    std::uint32_t requester = 0;
    double last_report = -1e9;
  };
  std::vector<ReportClock> report_clocks_;
  double& report_clock(std::uint32_t suspect, std::uint32_t requester);

  /// Recently received Neighbor_Traffic observations, kept for one collect
  /// window. Judges' minute boundaries are per-process, so a member's
  /// round-opening broadcast (which doubles as its report to OUR round)
  /// can arrive before our own warning scan flags the suspect; without
  /// this cache that report is lost, the member will not repeat it inside
  /// the suppression window, and the round closes silent-as-zero against
  /// an honest peer. New rounds are seeded from the cache.
  struct CachedReport {
    std::uint32_t suspect = 0;
    std::uint32_t from = 0;
    double out_to_suspect = 0.0;
    double in_from_suspect = 0.0;
    double minute = 0.0;
  };
  std::vector<CachedReport> report_cache_;
  void cache_report(std::uint32_t from, const net::NeighborTraffic& report,
                    double now_minutes);

  double next_exchange_minute_ = 0.0;

  std::vector<std::uint32_t> banned_;

  std::vector<Decision> decisions_;
  std::uint64_t lists_sent_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t suspicions_ = 0;
};

}  // namespace ddp::core
