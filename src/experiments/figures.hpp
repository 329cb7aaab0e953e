#pragma once

/// \file figures.hpp
/// The paper's evaluation as studies for run_study (study.hpp): one study
/// per figure family and per Sec. 3 analysis. Bench binaries run these and
/// print the columns their figure plots; integration tests assert the
/// paper-shape properties on reduced scales.

#include <cstdint>
#include <vector>

#include "experiments/study.hpp"

namespace ddp::experiments {

/// Figs 9-11: traffic, response time and success rate vs the agent count
/// (scale.agent_counts), each for no defense / DD-POLICE / no attack.
Study agent_sweep(const Scale& scale);

/// Fig 12: damage rate D(t) per minute under a fixed attack, for no defense
/// and DD-POLICE at each cut threshold (paper: CT in {3, 7, 10}, 100
/// agents). One seed; columns "minute" then one series per label, in label
/// order.
StudyResult damage_timelines(const Scale& scale,
                             const std::vector<double>& cut_thresholds,
                             std::size_t agents, std::uint64_t seed);

/// Figs 13-14: error counts, recovery and detection time vs the cut
/// threshold. With `with_quarantine`, each threshold also runs the same
/// seed under CutPolicy::kQuarantine: how fast a falsely cut honest peer
/// gets its service back, and what that does to S(t). The permanent-cut
/// columns come from the same runs either way.
Study ct_sweep(const std::vector<double>& cut_thresholds, std::size_t agents,
               bool with_quarantine);

/// Sec. 3.7.1: periodic neighbour-list exchange every `periods_minutes`
/// (plus event-driven) vs errors and exchange overhead.
Study exchange_frequency_study(const std::vector<double>& periods_minutes,
                               bool include_event_driven, std::size_t agents);

/// Sec. 3.4: agents that cheat in their reports or neighbour lists.
Study cheat_ablation(std::size_t agents);

/// Sec. 3.5: DD-POLICE-r at r in {1, 2}, honest vs deflating agents.
Study radius_ablation(std::size_t agents);

}  // namespace ddp::experiments
