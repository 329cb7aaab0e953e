#include "experiments/study.hpp"

#include <algorithm>
#include <stdexcept>

#include "experiments/sweep.hpp"
#include "util/config.hpp"

namespace ddp::experiments {

namespace {

std::size_t find_header(const std::vector<std::string>& headers,
                        std::string_view header) {
  const auto it = std::find(headers.begin(), headers.end(), header);
  if (it == headers.end()) {
    throw std::out_of_range("study has no column " + std::string(header));
  }
  return static_cast<std::size_t>(it - headers.begin());
}

std::size_t find_column(const std::vector<Column>& columns,
                        std::string_view header) {
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (columns[c].header == header) return c;
  }
  throw std::out_of_range("study has no column " + std::string(header));
}

double reduce(const Ratio& sum) {
  return sum.den > 0.0 ? sum.num / sum.den : -1.0;
}

/// The reduced value in the column's display unit; -1 ("never measured")
/// prints as is.
double shown(const Column& col, const Ratio& sum) {
  const double v = reduce(sum);
  if (sum.den <= 0.0) return v;
  switch (col.unit) {
    case Unit::kPercent:
      return v * 100.0;
    case Unit::kThousands:
      return v / 1000.0;
    case Unit::kAsIs:
      break;
  }
  return v;
}

}  // namespace

Scale default_scale(std::string& problem) {
  Scale s;
  if (util::env("DDP_FULL", false, problem)) {
    s.peers = 2000;
    s.total_minutes = 40.0;
    s.attack_start = 5.0;
    s.warmup_minutes = 10.0;
    s.trials = 3;
  }
  s.trials = util::env("DDP_TRIALS", s.trials, problem, 1);
  s.jobs = util::env("DDP_JOBS", s.jobs, problem, 0, util::kMaxJobs);
  return s;
}

ScenarioConfig scaled_scenario(const Scale& scale, std::size_t agents,
                               defense::Kind kind, std::uint64_t seed) {
  ScenarioConfig cfg = paper_scenario(scale.peers, agents, kind, seed);
  cfg.total_minutes = scale.total_minutes;
  cfg.warmup_minutes = scale.warmup_minutes;
  cfg.attack.start_minute = scale.attack_start;
  return cfg;
}

ScenarioConfig Cell::undefended() const {
  ScenarioConfig cfg = config;
  cfg.defense = defense::Kind::kNone;
  return cfg;
}

metrics::DamageAnalysis Cell::damage(const ScenarioResult& run) const {
  return metrics::analyze_damage(run.history,
                                 baseline->summary.avg_success_rate,
                                 scale.attack_start);
}

double StudyResult::value(std::size_t row, std::string_view header) const {
  return reduce(sums.at(row)[find_column(columns, header)]);
}

const std::string& StudyResult::label(std::size_t row,
                                      std::string_view header) const {
  return labels.at(row)[find_header(label_headers, header)];
}

util::Table StudyResult::table(const std::vector<std::string>& headers) const {
  std::vector<std::size_t> picked;
  if (headers.empty()) {
    for (std::size_t c = 0; c < columns.size(); ++c) picked.push_back(c);
  }
  for (const auto& h : headers) picked.push_back(find_column(columns, h));

  std::vector<std::string> all = label_headers;
  for (std::size_t c : picked) all.push_back(columns[c].header);
  util::Table t(all);
  for (std::size_t r = 0; r < rows(); ++r) {
    t.row();
    for (const auto& l : labels[r]) t.cell(l);
    for (std::size_t c : picked) {
      t.cell(shown(columns[c], sums[r][c]), columns[c].precision);
    }
  }
  return t;
}

StudyResult run_study(const Study& study, const Scale& scale,
                      std::uint64_t seed) {
  const std::size_t trials = scale.trials;
  const auto trial_seed = [seed](std::size_t t) {
    return seed + 1000003ULL * t;
  };
  const auto world_config = [&](const Case* c, std::size_t agents,
                                defense::Kind kind, std::size_t t) {
    ScenarioConfig cfg = scaled_scenario(scale, agents, kind, trial_seed(t));
    if (c != nullptr && c->world) c->world(cfg);
    return cfg;
  };

  // Baseline worlds: the shared one (null) when some case keeps the
  // default world, then one per case that edits it.
  std::vector<const Case*> worlds;
  std::vector<std::size_t> world_of(study.cases.size(), 0);
  if (study.baseline) {
    const bool shared = std::any_of(study.cases.begin(), study.cases.end(),
                                    [](const Case& c) { return !c.world; });
    if (shared) worlds.push_back(nullptr);
    for (std::size_t i = 0; i < study.cases.size(); ++i) {
      if (!study.cases[i].world) continue;
      world_of[i] = worlds.size();
      worlds.push_back(&study.cases[i]);
    }
  }

  SweepRunner runner(scale.jobs);
  const auto baselines = runner.map(worlds.size() * trials, [&](std::size_t i) {
    return run_baseline(
        world_config(worlds[i / trials], 0, defense::Kind::kNone, i % trials));
  });
  const auto cells =
      runner.map(study.cases.size() * trials, [&](std::size_t i) {
        const std::size_t ci = i / trials;
        const std::size_t t = i % trials;
        const Case& c = study.cases[ci];
        Cell cell{scale,
                  world_config(&c, study.agents, defense::Kind::kDdPolice, t),
                  study.baseline ? &baselines[world_of[ci] * trials + t]
                                 : nullptr};
        if (c.edit) c.edit(cell.config);
        auto ratios = study.measure(cell);
        if (ratios.size() != study.columns.size()) {
          throw std::logic_error("study measurement returned " +
                                 std::to_string(ratios.size()) +
                                 " values for " +
                                 std::to_string(study.columns.size()) +
                                 " columns");
        }
        return ratios;
      });

  StudyResult out{study.label_headers, study.columns, {}, {}};
  for (std::size_t ci = 0; ci < study.cases.size(); ++ci) {
    out.labels.push_back(study.cases[ci].labels);
    std::vector<Ratio> sums(study.columns.size());
    for (std::size_t t = 0; t < trials; ++t) {
      const auto& cell = cells[ci * trials + t];
      for (std::size_t k = 0; k < sums.size(); ++k) {
        sums[k].num += cell[k].num;
        sums[k].den += cell[k].den;
      }
    }
    out.sums.push_back(std::move(sums));
  }
  return out;
}

}  // namespace ddp::experiments
