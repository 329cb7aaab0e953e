#pragma once

/// \file ddpolice.hpp
/// The DD-POLICE protocol (Sec. 3): every peer polices its direct
/// neighbours' query behaviour by cooperating with each neighbour's buddy
/// group. Three phases run at the engine's minute cadence:
///
///   1. neighbour-list exchange (Sec. 3.1) — periodic or event-driven;
///      received lists are snapshots that age until the next exchange, so
///      buddy groups can be stale (the source of misjudgment studied in
///      Sec. 3.7.1). Advertised lists are optionally verified with the
///      named peers; inconsistencies disconnect the liar.
///   2. neighbour query-traffic monitoring (Sec. 3.2) — per-link
///      per-minute Out_query/In_query counters, provided by the engine.
///   3. bad-peer recognition (Sec. 3.3) — a neighbour exceeding the
///      warning threshold triggers a buddy-group round: members exchange
///      Neighbor_Traffic messages (suppressed to one per suspect per
///      window), silent members count as zero (Sec. 3.4's timeout rule),
///      indicators g / s are computed and any member observing
///      g > CT or s > CT disconnects the suspect.
///
/// Compromised peers can cheat in this protocol; their reporting/list
/// behaviour is injected through ReportPolicy / ListPolicy so the
/// experiment harness can reproduce Sec. 3.4's case analysis.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/indicators.hpp"
#include "core/overlay_port.hpp"
#include "core/quarantine.hpp"
#include "fault/plane.hpp"
#include "obs/trace.hpp"
#include "topology/edge_index.hpp"
#include "util/rng.hpp"
#include "util/spans.hpp"
#include "util/types.hpp"

namespace ddp::snapshot {
class Writer;
class Reader;
}  // namespace ddp::snapshot

namespace ddp::core {

/// Truthful counters handed to a report policy.
struct TrafficTruth {
  double out_to_suspect = 0.0;
  double in_from_suspect = 0.0;
};

/// What `reporter` answers inside the buddy group of `suspect`;
/// std::nullopt models refusal / mute (treated as zeros after timeout).
/// A policy must be a pure function of (reporter, suspect, truth) that
/// draws no randomness: a member broadcasts one Neighbor_Traffic per round
/// (Sec. 3.3), so DdPolice asks the policy once per member per round and
/// hands that answer to every judge of the round.
using ReportPolicy = std::function<std::optional<TrafficTruth>(
    PeerId reporter, PeerId suspect, const TrafficTruth& truth)>;

/// What `owner` advertises as its neighbour list (the truth is passed in;
/// liars fabricate or withhold entries).
using ListPolicy =
    std::function<std::vector<PeerId>(PeerId owner, std::vector<PeerId> truth)>;

class AdaptiveThresholds;

/// One disconnect decision, for the metrics pipeline.
struct Decision {
  double minute = 0.0;
  PeerId judge = kInvalidPeer;
  PeerId suspect = kInvalidPeer;
  double g = 0.0;
  double s = 0.0;
  bool via_single = false;     ///< s (rather than g) crossed the threshold
  bool list_violation = false; ///< disconnected by the consistency check
  std::uint32_t believed_k = 0;   ///< buddy-group size the judge used
  std::uint32_t responders = 0;   ///< members that answered the round
  std::uint32_t true_degree = 0;  ///< suspect's actual degree at decision time
};

/// Checkpoint io for Decision, shared by every defense that records them.
void save_decision(snapshot::Writer& w, const Decision& d);
void load_decision(snapshot::Reader& r, Decision& d);

/// Definition 2.3 at cut threshold `ct` (Sec. 3.7.2): the one verdict
/// step both judges (DdPolice, LocalPolice) run once `judge`'s report set
/// on `suspect` is assembled. Computes g and s with the config's q and
/// capacity cap, emits indicator_computed (k = reports judged, responders
/// = members that answered) and returns the cut Decision when g > ct or
/// s > ct. true_degree is left to the driver; record_cut enacts the rest.
std::optional<Decision> verdict(const std::vector<MemberReport>& reports,
                                PeerId judge, PeerId suspect, double ct,
                                const DdPoliceConfig& config, double minute,
                                const obs::Tracer& tracer);

/// Record a cut verdict: append it to `decisions` and emit suspect_cut.
void record_cut(const Decision& d, std::vector<Decision>& decisions,
                const obs::Tracer& tracer);

class DdPolice {
 public:
  DdPolice(OverlayPort& port, const DdPoliceConfig& config, util::Rng rng);
  ~DdPolice();  // out-of-line: AdaptiveThresholds is incomplete here

  /// Install cheating behaviours (defaults are honest). The report policy
  /// is called once per (member, suspect) per round, so it must be pure
  /// and draw nothing (see ReportPolicy).
  void set_report_policy(ReportPolicy policy) { report_policy_ = std::move(policy); }
  void set_list_policy(ListPolicy policy) { list_policy_ = std::move(policy); }

  /// The learned per-link warning threshold and CT source (built when
  /// config.adaptive.enabled), or null: the paper's static constants.
  AdaptiveThresholds* adaptive() noexcept { return adaptive_.get(); }
  const AdaptiveThresholds* adaptive() const noexcept { return adaptive_.get(); }

  /// Attach a fault plane: control messages then traverse its
  /// UnreliableChannel (lost, delayed, duplicated or corrupted per its
  /// config); a corrupted one crosses as real encoded wire bytes that the
  /// receiver decodes, and an undamaged one arrives as the codec would
  /// return it. Peers the plane reports crashed or stalled stop
  /// answering, and each request runs the per-request timeout +
  /// bounded-retry + exponential-backoff loop before falling back to
  /// Sec. 3.4's count-as-zero rule. Null (the default) or a plane
  /// with all probabilities zero keeps the exact fault-free code path, so
  /// decisions stay bit-identical to an unfaulted run.
  void set_fault_plane(fault::FaultPlane* plane) noexcept { fault_ = plane; }

  /// Timeout/retry/corrupt-reject counters (zeros without a fault plane).
  const fault::ControlCounters& control_stats() const noexcept;

  /// Attach a trace sink (null detaches). Emits the control-plane
  /// vocabulary: neighbor_list / list_violation on exchanges,
  /// suspect_flagged / indicator / suspect_cut during detection, and
  /// traffic_request/reply/retry/timeout plus corrupt_reject / late_reply
  /// for each Neighbor_Traffic collection. Out-of-line because the sink is
  /// also forwarded to the (incomplete-here) adaptive policy.
  void set_trace_sink(obs::TraceSink* sink) noexcept;
  const obs::Tracer& tracer() const noexcept { return tracer_; }

  /// The quarantine ledger, or null under CutPolicy::kPermanent.
  const QuarantineLedger* ledger() const noexcept {
    return ledger_ ? &*ledger_ : nullptr;
  }
  QuarantineLedger* ledger() noexcept { return ledger_ ? &*ledger_ : nullptr; }

  /// Run one protocol step; call at every completed simulated minute.
  void on_minute(double minute);

  const std::vector<Decision>& decisions() const noexcept { return decisions_; }

  /// Counters for the overhead/behaviour analyses.
  std::uint64_t exchange_messages() const noexcept { return exchange_messages_; }
  std::uint64_t traffic_messages() const noexcept { return traffic_messages_; }
  std::uint64_t rounds_run() const noexcept { return rounds_; }
  std::uint64_t suspicions() const noexcept { return suspicions_; }

  /// The snapshot a peer holds about a neighbour (empty if none) —
  /// exposed for tests and the exchange-frequency study.
  std::vector<PeerId> snapshot_of(PeerId holder, PeerId about) const;

  /// Serialize durable protocol state (neighbour-list snapshots, exchange
  /// schedule, decisions, counters, ledger, rng) into the writer's open
  /// section. Per-minute scratch (flagged set, judge lists, send-peak
  /// table, membership marks, pending disconnects) is minute-local and
  /// excluded — checkpoints are taken at minute boundaries where it is
  /// empty by construction.
  void save(snapshot::Writer& w) const;

  /// Restore state saved by save(). The ledger presence (cut policy) must
  /// match the snapshot's; throws SnapshotError otherwise.
  void load(snapshot::Reader& r);

 private:
  /// A neighbour-list snapshot `holder` keeps about `about`. Snapshots
  /// deliberately outlive the holder-about edge (a cut or churned link
  /// does not erase what the holder learned), so they are NOT slot-keyed:
  /// each holder keeps a small dense vector scanned by `about` (buddy
  /// degree ~6), replacing the global (holder,about)-keyed hash map.
  struct Snapshot {
    PeerId about = kInvalidPeer;
    std::vector<PeerId> members;
    std::vector<PeerId> prev_members;  ///< previous advertisement generation
    double minute = -1.0;
  };

  const Snapshot* find_snapshot(PeerId holder, PeerId about) const noexcept;
  Snapshot& snapshot_for(PeerId holder, PeerId about);

  void exchange_phase(double minute);
  /// truth_ = p's neighbours, sorted.
  void sort_neighbors(PeerId p);
  /// sort_neighbors(p), and with verification on, adjacent_ marks p's
  /// neighbours for the consistency check.
  void list_truth(PeerId p);
  /// Send p's list (truth_, or the list policy's version of it) to one
  /// receiver and run its consistency check; true when the check cut the
  /// link, which changes p's list.
  bool advertise_to(PeerId p, PeerId receiver, double minute);
  void advertise(PeerId p, double minute);
  void detection_phase(double minute);
  void run_round(PeerId suspect, const std::vector<PeerId>& judges,
                 double minute);
  /// Append `judge`'s believed buddy group of `suspect` to `out`.
  void append_believed_group(PeerId judge, PeerId suspect,
                             std::vector<PeerId>& out);
  /// One judge's request to `member`, whose answer this round is `answer`.
  MemberReport collect_report(PeerId member, PeerId suspect,
                              const std::optional<TrafficTruth>& answer,
                              double minute);
  /// True when a fault plane with non-zero fault rates is attached.
  bool transport_faulty() const noexcept {
    return fault_ != nullptr && fault_->control_active();
  }
  MemberReport collect_over_faulty_transport(
      PeerId member, PeerId suspect,
      const std::optional<TrafficTruth>& answer, double minute);
  /// The list the receiver accepts (`advertised`, or its damaged decoding
  /// in received_), or null when no delivery succeeded.
  const std::vector<PeerId>* deliver_list_over_faulty_transport(
      PeerId sender, const std::vector<PeerId>& advertised);

  /// Per-peer marks that one clear() drops all at once (an epoch stamp):
  /// O(1) membership tests for the minute's loops, sized to the node count
  /// and reused, so a hub's list or round costs linear, not quadratic, time.
  class PeerMarks {
   public:
    /// Drop every mark; make room for `peers` peers.
    void clear(std::size_t peers) {
      if (marks_.size() < peers) marks_.resize(peers);
      if (++epoch_ == 0) {  // wrapped: stale stamps would read as current
        std::ranges::fill(marks_, Mark{});
        epoch_ = 1;
      }
    }
    void set(PeerId p, std::uint32_t value = 0) noexcept {
      marks_[p] = {epoch_, value};
    }
    bool has(PeerId p) const noexcept {
      return p < marks_.size() && marks_[p].epoch == epoch_;
    }
    /// The value set on a marked peer.
    std::uint32_t at(PeerId p) const noexcept { return marks_[p].value; }

   private:
    struct Mark {
      std::uint32_t epoch = 0;
      std::uint32_t value = 0;
    };
    std::vector<Mark> marks_;
    std::uint32_t epoch_ = 0;
  };

  OverlayPort& port_;
  DdPoliceConfig config_;
  util::Rng rng_;
  obs::Tracer tracer_;
  std::optional<QuarantineLedger> ledger_;  ///< engaged under kQuarantine
  ReportPolicy report_policy_;
  ListPolicy list_policy_;
  fault::FaultPlane* fault_ = nullptr;
  std::unique_ptr<AdaptiveThresholds> adaptive_;  ///< null => paper constants

  topology::PeerMap<std::vector<Snapshot>> snapshots_;  ///< by holder
  std::size_t snapshot_count_ = 0;  ///< total held snapshots (ping costing)
  std::vector<std::pair<PeerId, PeerId>> pending_disconnects_;
  std::vector<double> next_exchange_minute_;
  std::vector<std::vector<PeerId>> last_advertised_;  ///< event-driven diffing
  /// Exchange scratch, reused: one advertisement's receivers, the
  /// advertiser's sorted neighbours (also the event-driven comparison),
  /// a list policy's answer and a damaged list's decoding.
  std::vector<PeerId> receivers_;
  std::vector<PeerId> truth_;
  std::vector<PeerId> policy_list_;
  std::vector<PeerId> received_;
  /// One peer's link counters (link_minutes): each judge's in the flag
  /// scan, then each round's suspect's.
  std::vector<LinkMinute> links_;
  /// adjacent_: the advertiser's neighbours in a consistency check, the
  /// suspect's neighbours with their positions in links_ during a round.
  /// listed_: the previous list's entries in a check, a believed group
  /// while it is built, each union member's row in a round.
  PeerMarks adjacent_;
  PeerMarks listed_;
  /// Buddy-round scratch, reused across minutes: per-suspect judge lists
  /// (dense, by suspect) plus the suspects of this minute in first-flag
  /// order — the canonical round order.
  topology::PeerMap<std::vector<PeerId>> judges_scratch_;
  std::vector<PeerId> flagged_;
  /// A peer's largest and second-largest completed-minute send to one
  /// neighbour, and the neighbour receiving the largest: the DD-POLICE-r
  /// (r = 2) floor of a member asked about any suspect is `top` unless
  /// `top_to` is that suspect, then `second`. Counters and topology hold
  /// still through the detection phase, so one table per minute serves
  /// every judge and round.
  struct SendPeak {
    double top = 0.0;
    double second = 0.0;
    PeerId top_to = kInvalidPeer;
  };
  std::vector<SendPeak> send_peaks_;  ///< by PeerId, active peers only
  /// Round scratch: every judge's believed group, flattened in judge order
  /// (judge k's members are the group_spans_[k] range of groups_; a group
  /// equal to the previous judge's is stored once and shared), their
  /// sorted union, each union member's answer this round (answers_[i]
  /// belongs to union_scratch_[i]; nullopt when the member is unreachable
  /// or mute) and the report set being judged.
  std::vector<PeerId> groups_;
  std::vector<util::IndexSpan> group_spans_;
  std::vector<PeerId> union_scratch_;
  std::vector<std::optional<TrafficTruth>> answers_;
  std::vector<MemberReport> reports_;

  std::vector<Decision> decisions_;
  std::uint64_t exchange_messages_ = 0;
  std::uint64_t traffic_messages_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t suspicions_ = 0;
};

}  // namespace ddp::core
