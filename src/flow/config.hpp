#pragma once

/// \file config.hpp
/// Parameters of the flow-level engine (see network.hpp for the model).

#include <cstddef>
#include <string_view>

#include "util/types.hpp"

namespace ddp::flow {

/// How a peer's finite service capacity is divided among its in-links.
enum class ServiceDiscipline : std::uint8_t {
  /// Pooled FIFO: all arrivals share one queue; overload drops
  /// indiscriminately (plain Gnutella, the paper's default).
  kPooledFifo,
  /// Max-min fair share per in-link: the application-layer load-balancing
  /// defense of Daswani & Garcia-Molina (the paper's related work [21]).
  kFairShare,
};

/// How a peer sheds load when arrivals exceed its service capacity.
enum class AdmissionPolicy : std::uint8_t {
  /// Class-blind tail drop: every arriving query is equally likely to be
  /// discarded (plain Gnutella; the paper's model).
  kClassBlind,
  /// Priority shedding: a control-plane reserve is held back so defense
  /// messages are shed last, good query traffic is admitted first from
  /// the remaining budget, and attack-class traffic is shed first.
  kPriority,
};

/// CLI name of an admission policy: blind, priority ("?" past the last one).
constexpr std::string_view admission_name(AdmissionPolicy policy) noexcept {
  switch (policy) {
    case AdmissionPolicy::kClassBlind: return "blind";
    case AdmissionPolicy::kPriority: return "priority";
  }
  return "?";
}

struct FlowConfig {
  /// Initial TTL of query floods (Gnutella default, as in the paper).
  std::size_t ttl = 7;

  /// Capacity-sharing policy at each peer.
  ServiceDiscipline discipline = ServiceDiscipline::kPooledFifo;

  /// Overload shedding policy (kClassBlind reproduces the paper exactly).
  AdmissionPolicy admission = AdmissionPolicy::kClassBlind;

  /// Fraction of per-peer capacity held back for control-plane messages
  /// under kPriority (Neighbor_List / Neighbor_Traffic / Ping never starve
  /// even while the peer is being flooded). Ignored under kClassBlind.
  double control_reserve_fraction = 0.05;

  /// Engine tick, seconds. Per-minute protocol state rotates every
  /// 60 / tick ticks; 1 s is fine-grained enough for every experiment.
  double tick_seconds = 1.0;

  /// Good-peer query service capacity (queries/minute; paper Sec. 2.3).
  double capacity_per_minute = 10000.0;

  /// Good-peer issue rate (queries/minute; paper Sec. 3.5).
  double good_issue_per_minute = 0.3;

  /// Attack sourcing target before link clamping (paper Sec. 3.5:
  /// Q_d = min(20000, link capacity)).
  double attack_target_per_minute = 20000.0;

  /// Apply per-link bandwidth clamps from the BandwidthMap.
  bool bandwidth_limits = true;

  /// One-way per-hop latency (seconds) for the response-time model.
  double hop_latency = 0.08;

  /// Queueing-delay ceiling per hop, seconds (finite queues bound waiting).
  double max_queue_delay = 2.0;

  /// Re-derive the duplicate-damping profile from the live topology every
  /// this many minutes (0 = calibrate once at start). Churn slowly deforms
  /// the overlay, so periodic recalibration keeps delta(h) honest.
  double recalibrate_minutes = 10.0;

  /// Origins sampled when calibrating the coverage profile, and again for
  /// the closed-loop damping fit. Validated to [1, 4096].
  std::size_t calibration_samples = 64;

  /// Fraction of each link's in-flight volume that actually arrives
  /// (data-plane fault injection; src/fault). 1.0 — the default — is a
  /// perfect transport and is applied as an exact multiplicative identity,
  /// so fault-free runs stay bit-identical. Values > 1 model duplication.
  double link_reliability = 1.0;

  /// Worker threads for the tick sweeps. 1 (the default) sweeps every
  /// peer as one span on the calling thread, with no pool; more split the
  /// sweeps into one degree-weighted peer span per worker; 0 resolves to
  /// one worker per hardware thread.
  /// Output is byte-identical at any value — per-span contributions are
  /// folded back in canonical peer order, so this is a throughput knob
  /// only and is deliberately excluded from the scenario config digest.
  unsigned jobs = 1;
};

}  // namespace ddp::flow
