#pragma once

/// \file study.hpp
/// The study runner behind every figure and ablation sweep. A study
/// declares three things — its cases (leading label cells plus a config
/// edit), the measurement of one (case, trial) cell, and its columns — and
/// run_study does everything the sweeps share:
///
///   - trial t runs with seed `seed + 1000003 * t`;
///   - one run_baseline per trial (the no-attack reference for S(t) and
///     damage), or one per (case, trial) when the case edits the world
///     (topology model, churn regime) the baseline must share;
///   - every cell is evaluated through SweepRunner, so `jobs` only changes
///     wall clock;
///   - each column of each case reduces, in trial order, to the sum of the
///     cells' numerators over the sum of their denominators, or -1 when
///     that denominator is 0. A plain mean gives every trial denominator 1;
///     a latency gives denominator 0 to the trials that never detected; a
///     pooled mean gives each trial its own record count.
///
/// StudyResult keeps the reduced sums; StudyResult::table is the one
/// renderer every sweep bench prints and writes its CSV with.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "experiments/scenario.hpp"
#include "util/table.hpp"

namespace ddp::experiments {

/// Common sweep scale; default is laptop-sized, DDP_FULL=1 selects the
/// paper's 2,000-peer configuration.
struct Scale {
  std::size_t peers = 600;
  double total_minutes = 26.0;
  double attack_start = 5.0;
  double warmup_minutes = 8.0;  ///< measurement window start (post-attack)
  std::uint32_t trials = 2;
  std::vector<std::size_t> agent_counts{0, 1, 2, 5, 10, 20, 50, 100, 200};
  /// Worker threads for the study runner (0 = one per hardware thread).
  /// Results are jobs-invariant: every reduction runs in (case, trial)
  /// order, so jobs only changes wall clock.
  unsigned jobs = 1;
};

/// Laptop scale, or the paper's full scale (2,000 peers) when DDP_FULL is
/// true; trials overridable via DDP_TRIALS (>= 1), jobs via DDP_JOBS
/// ([0, 256]). A malformed or out-of-range variable keeps the default and
/// stores a message in `problem` (see util::env).
Scale default_scale(std::string& problem);

/// paper_scenario at the sweep's scale (run length, measurement window,
/// attack start).
ScenarioConfig scaled_scenario(const Scale& scale, std::size_t agents,
                               defense::Kind kind, std::uint64_t seed);

/// One column's share of one cell.
struct Ratio {
  double num = 0.0;
  double den = 0.0;
};

/// A per-trial sample, averaged over every trial.
template <typename T>
Ratio mean(T x) {
  return {static_cast<double>(x), 1.0};
}

/// A sample only some trials have (a detection, a recovery), averaged over
/// the trials that have it.
inline Ratio when(bool measured, double x) {
  return measured ? Ratio{x, 1.0} : Ratio{};
}

/// First-detection latency of a run (minutes), over the trials that
/// detected at all.
inline Ratio detection(const ScenarioResult& run) {
  return when(run.errors.mean_detection_minute >= 0.0,
              run.errors.mean_detection_minute);
}

/// Share of the `agents` attackers a run identified, in percent (0 when
/// there are none).
inline double identified_pct(std::size_t agents, const ScenarioResult& run) {
  const double n = static_cast<double>(agents);
  return n > 0.0
             ? (n - static_cast<double>(run.errors.false_positive)) / n * 100.0
             : 0.0;
}

/// How a column's reduced value is displayed.
enum class Unit : std::uint8_t {
  kAsIs,
  kPercent,    ///< a fraction shown as percent (x * 100)
  kThousands,  ///< shown in thousands (x / 1000)
};

struct Column {
  std::string header;
  int precision = 1;
  Unit unit = Unit::kAsIs;
};

using ConfigEdit = std::function<void(ScenarioConfig&)>;

struct Case {
  std::vector<std::string> labels;  ///< one per Study::label_headers
  ConfigEdit edit;                  ///< the case's change to the cell config
  /// A change to the simulated world (topology, churn) that the baseline
  /// shares; a case with one gets its own baseline per trial.
  ConfigEdit world = nullptr;
};

/// What a measurement sees of its (case, trial) cell.
struct Cell {
  const Scale& scale;
  /// scaled_scenario(study agents, DD-POLICE, trial seed), then the case's
  /// world and config edits.
  ScenarioConfig config;
  /// The trial's no-attack run in the same world; null when the study
  /// runs none.
  const ScenarioResult* baseline = nullptr;

  /// `config` with the defense removed (the attacked, undefended curve).
  ScenarioConfig undefended() const;
  /// Damage of `run` against the baseline's success rate, from the attack
  /// start on (only in studies that run baselines).
  metrics::DamageAnalysis damage(const ScenarioResult& run) const;
};

struct Study {
  std::vector<std::string> label_headers;
  std::vector<Case> cases;
  std::vector<Column> columns;
  /// One Ratio per column, in column order.
  std::function<std::vector<Ratio>(const Cell&)> measure;
  std::size_t agents = 0;  ///< attack size of every cell config
  bool baseline = true;    ///< run the no-attack reference per trial
};

/// The reduced rows of one study, one per case.
struct StudyResult {
  std::vector<std::string> label_headers;
  std::vector<Column> columns;
  std::vector<std::vector<std::string>> labels;  ///< [row][label]
  std::vector<std::vector<Ratio>> sums;          ///< [row][column]

  std::size_t rows() const noexcept { return sums.size(); }
  /// Sum of numerators over sum of denominators; -1 when the latter is 0.
  double value(std::size_t row, std::string_view header) const;
  const std::string& label(std::size_t row, std::string_view header) const;
  /// The label cells, then the named columns in the given order (every
  /// column when `headers` is empty). Throws std::out_of_range on an
  /// unknown header.
  util::Table table(const std::vector<std::string>& headers = {}) const;
};

/// Run every (case, trial) cell of `study` and reduce it as described in
/// the file comment.
StudyResult run_study(const Study& study, const Scale& scale,
                      std::uint64_t seed);

}  // namespace ddp::experiments
