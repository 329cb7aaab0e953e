#pragma once

/// \file extensions.hpp
/// Studies beyond the paper's printed evaluation, for run_study
/// (study.hpp): the quantified defense comparison its related-work section
/// argues qualitatively (Sec. 4), and the robustness ablations its
/// future-work section motivates (Sec. 5) — control-plane faults, topology
/// family, degree cutoff, churn regime, attacker persistence (rejoin),
/// attack-rate detectability and adaptive cut bands.

#include <cstdint>
#include <vector>

#include "experiments/study.hpp"

namespace ddp::experiments {

/// All four defenses under the identical campaign, plus the healthy
/// baseline row. Quantifies Sec. 4's qualitative claims: the naive strawman
/// cuts forwarders, fair-share survives but cannot identify, DD-POLICE both
/// restores service and names the agents. The trailing fault columns read
/// each run's own counters (zero on these fault-free runs).
Study defense_comparison(std::size_t agents);

/// DD-POLICE detection quality as the control plane degrades: sweeps
/// message-loss probability x delay jitter on the Neighbor_List /
/// Neighbor_Traffic channel (corruption rides along at loss/4). The
/// loss = jitter = 0 row exercises the exact fault-free code path, so it
/// doubles as a regression anchor: its decisions are bit-identical to a
/// run without any fault plane.
Study fault_ablation(std::size_t agents, const std::vector<double>& losses,
                     const std::vector<double>& jitters);

/// DD-POLICE across overlay families (Barabási–Albert / Waxman /
/// Erdős–Rényi / two-tier) — the defense must not depend on the power-law
/// shape.
Study topology_ablation(std::size_t agents);

/// DD-POLICE on the hub-suppressed scale-free family: sweeps the
/// hard-cutoff generator's exponent (k_c = n^(1/exponent), exponent 1 =
/// plain Barabási–Albert, larger = harder hub cap) and records detection
/// latency, false cuts and the attack traffic each agent lands before its
/// verdict. The interesting axis: capping hubs removes the high-degree
/// peers whose buddy groups are largest (k big -> strong relay bound), so
/// the study shows whether the defense leans on hubs or works as well
/// when the flood has to spread through mid-degree peers.
Study cutoff_ablation(const Scale& scale, std::size_t agents,
                      const std::vector<double>& exponents);

/// Sensitivity of the buddy-group scheme to membership dynamics: a static
/// overlay, the paper's 60-minute lifetimes, a fast-churn regime, and the
/// alternative lifetime distributions.
Study churn_ablation(std::size_t agents);

/// Sec. 3.7.2 notes that nothing stops an isolated agent from walking
/// back in; this study quantifies the resulting steady state where
/// DD-POLICE re-detects agents every round trip.
Study rejoin_study(std::size_t agents);

/// How slow can an agent go and still be caught? Sweeps the per-link
/// sourcing rate Q_d below and above the warning threshold: the
/// detectability cliff is the protocol's blind spot (an agent throttled
/// under the warning threshold is invisible — but also nearly harmless).
Study attack_rate_sweep(std::size_t agents);

/// Static-vs-adaptive cut bands against the attackers the paper's global
/// constants cannot see: a low-and-slow ramp and an on-off pulse that stay
/// under the 500 q/min warning threshold, a threshold-probing agent, a
/// colluding buddy group covering its own — plus a flash crowd (agents = 0)
/// as the false-cut stressor. Every run has forensics on; detection latency
/// and damage-before-cut come from the per-agent storylines.
Study adaptive_ct_ablation(std::size_t agents);

}  // namespace ddp::experiments
