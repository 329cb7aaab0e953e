#pragma once

/// \file config.hpp
/// DD-POLICE protocol parameters (Sec. 3). Defaults are the paper's
/// recommended operating point: neighbour lists exchanged every 2 minutes,
/// warning threshold 500 queries/min, cut threshold CT = 5.

#include <cstddef>
#include <string>
#include <string_view>

#include "util/types.hpp"

namespace ddp::core {

enum class ExchangePolicy : std::uint8_t {
  kPeriodic,     ///< fixed-frequency neighbour-list exchange (the paper's pick)
  kEventDriven,  ///< advertise on every join/leave (higher overhead, Sec. 3.7.1)
};

/// What a cut decision does to the suspect (Sec. 3.3 vs. the self-healing
/// extension). The paper's verdict is terminal; the quarantine ladder makes
/// it recoverable because Fig. 13 shows detection errors are nonzero.
enum class CutPolicy : std::uint8_t {
  kPermanent,   ///< the paper's behaviour: disconnected links stay down
  kQuarantine,  ///< quarantine -> probation -> reinstate/ban state machine
};

/// CLI name of a cut policy: permanent, quarantine ("?" past the last one).
std::string_view cut_policy_name(CutPolicy policy) noexcept;

/// Adaptive cut bands (the "learned CT" extension). Instead of one global
/// warning threshold and one global CT, each monitor learns a per-link
/// {min, lambda, max} band of normal per-minute rates from its own history
/// window and derives two rails from it:
///
///   r1 = max(k1 * band.max, band_floor)   — suspicion rail
///   r2 = (k2 / k1) * r1                   — malicious rail
///
/// A neighbour above r1 enters local suspicion (its query budget is cut to
/// suspicious_budget until it stays inside the band again); a neighbour
/// above r2 additionally faces a tightened cut threshold (malicious_ct) in
/// the very buddy round the static defense would have run at CT. The
/// default (enabled = false) leaves DD-POLICE byte-identical to the paper.
struct AdaptiveConfig {
  /// Master switch. Off = paper-exact static thresholds.
  bool enabled = false;

  /// History window (minutes of per-link samples) a band is estimated from.
  std::size_t window_minutes = 10;

  /// How often bands are re-estimated, minutes.
  double estimate_period_minutes = 2.0;

  /// A band is only trusted ("mature") once it has at least this many
  /// samples; immature links fall back to the static thresholds.
  std::size_t min_samples = 4;

  /// Suspicion rail multiplier: rates above k1 * band.max are suspicious.
  double k1 = 2.0;

  /// Cut rail multiplier: rates above (k2/k1) * r1 are treated as
  /// malicious (CT tightened to malicious_ct). Must be > k1.
  double k2 = 4.0;

  /// Lower clamp on the suspicion rail, queries/minute, so quiet links
  /// don't turn a handful of queries into an alarm.
  double band_floor = 50.0;

  /// Query-budget fraction applied to a locally suspicious peer.
  double suspicious_budget = 0.5;

  /// In-band minutes required before a suspicious peer's budget is
  /// restored.
  double suspicion_exit_minutes = 3.0;

  /// The tightened CT used in buddy rounds against a neighbour whose rate
  /// exceeded the malicious rail. Clamped to the static CT (never looser).
  double malicious_ct = 2.0;
};

struct DdPoliceConfig {
  /// CT — disconnect when g(j,t) or s(j,t,i) exceeds this (Sec. 3.7.2;
  /// the paper settles on 5 after the Figure 12-14 study).
  double cut_threshold = 5.0;

  /// Per-link warning threshold, queries/minute: a neighbour sending more
  /// marks itself suspicious and triggers a buddy-group round (Sec. 3.3
  /// uses 500).
  double warning_threshold = 500.0;

  /// q — the good-peer issue bound in the indicator denominators
  /// (Definition 2.1; the paper argues 100 queries/min).
  double good_issue_bound = 100.0;

  /// Known per-peer query-servicing capacity (the Sec. 2.3 calibration:
  /// ~10,000/min). The indicators credit a suspect with at most this much
  /// forwardable input — output beyond it cannot be explained by relaying.
  /// Set to +infinity to compute the paper's literal Definitions 2.1/2.2.
  double capacity_bound_per_minute = 10000.0;

  /// Neighbour-list exchange policy and period (Sec. 3.1 / 3.7.1).
  ExchangePolicy exchange_policy = ExchangePolicy::kPeriodic;
  double exchange_period_minutes = 2.0;

  /// Verify advertised lists with the named peers and disconnect liars
  /// (Sec. 3.1's consistency check).
  bool verify_neighbor_lists = true;

  /// Buddy-group radius r (Sec. 3.5). r = 1 consults the suspect's direct
  /// neighbours; r = 2 additionally cross-checks member reports against
  /// flow-balance estimates derived from *their* neighbourhoods, which
  /// defeats colluding deflaters.
  int buddy_radius = 1;

  /// Neighbor_Traffic suppression window, seconds: a member answers at
  /// most one round per suspect within this window (Sec. 3.3 uses 5 s; at
  /// the engine's minute cadence this caps rounds at one per minute).
  double suppression_window_seconds = 5.0;

  /// How long a judge waits for BG replies before treating silent members
  /// as having sent zero queries (Sec. 3.4's timeout rule).
  double collect_timeout_seconds = 5.0;

  /// Periodic keep-alive pings among BG members (overhead accounting).
  double ping_period_minutes = 1.0;

  /// Consecutive tripping rounds (Definition 2.3 over CT) required before
  /// a cut verdict fires. 1 is the paper's behaviour: the first bad round
  /// cuts. Deployment nodes (LocalPolice) use 2: on a real host a judge
  /// that was descheduled for seconds drains its socket backlog into one
  /// rolling-window bucket, which inflates every neighbour's apparent
  /// output for exactly one round — a persistence requirement absorbs the
  /// spike while a flooder, which trips every round, merely waits one
  /// more round for its verdict. Trips older than two protocol minutes,
  /// or closer together than half a minute (a starved judge's catch-up
  /// rounds), don't chain. The simulation judge (DdPolice) has no
  /// confirmation gate, so experiments::validate_config refuses any value
  /// but 1 for a simulated scenario.
  int cut_confirmations = 1;

  // ---- Control-plane robustness under unreliable transport (src/fault) ----
  // These only matter when a fault::FaultPlane with non-zero probabilities
  // is attached; on a perfect transport the hardened request loop is
  // bypassed entirely.

  /// Re-sends of a Neighbor_Traffic request after the first attempt fails
  /// (drop, corrupt reply, late reply, unresponsive member). Only after the
  /// last retry does Sec. 3.4's count-as-zero rule apply.
  int max_report_retries = 2;

  /// Re-sends of an unacknowledged Neighbor_List advertisement. Exhausted
  /// retries leave the receiver with its stale snapshot.
  int max_exchange_retries = 2;

  /// Exponential backoff between retries: retry k waits
  /// retry_backoff_base_seconds * 2^(k-1) seconds before re-sending.
  double retry_backoff_base_seconds = 2.0;

  // ---- Self-healing cut ladder (quarantine -> probation -> reinstate/ban) --
  // Only consulted when cut_policy == CutPolicy::kQuarantine; the default
  // reproduces the paper's terminal disconnect bit-for-bit.

  /// Terminal cut (paper) or the recoverable quarantine ladder.
  CutPolicy cut_policy = CutPolicy::kPermanent;

  /// Base quarantine window after the first offense, minutes. Repeat
  /// offenders wait quarantine_minutes * quarantine_growth^strikes.
  double quarantine_minutes = 10.0;

  /// Exponential growth factor applied per prior strike.
  double quarantine_growth = 2.0;

  /// Length of the probation window after release, minutes. The peer is
  /// reconnected with probation_links edges and re-scored by its new buddy
  /// group; surviving the window reinstates it at full budget.
  double probation_minutes = 5.0;

  /// Fraction of the peer's normal query budget allowed while on probation.
  double probation_budget = 0.25;

  /// Number of overlay links granted on probational reconnection.
  int probation_links = 2;

  /// Strikes (cut decisions) after which the peer is banned outright.
  int max_strikes = 3;

  // ---- Adaptive cut bands (learned per-link thresholds) -------------------
  // Only consulted when adaptive.enabled; the default keeps the static
  // paper thresholds bit-for-bit.
  AdaptiveConfig adaptive{};
};

/// Range-checks a DdPoliceConfig. Returns an empty string when every field
/// is usable, otherwise a human-readable description of the first problem.
std::string validate(const DdPoliceConfig& cfg);

}  // namespace ddp::core
