#include "experiments/figures.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "experiments/sweep.hpp"
#include "topology/coverage.hpp"

namespace ddp::experiments {

// ================================================================ Figs 9-11

Study agent_sweep(const Scale& scale) {
  Study s;
  s.label_headers = {"agents"};
  for (std::size_t k : scale.agent_counts) {
    s.cases.push_back({{std::to_string(k)},
                       [k](ScenarioConfig& c) { c.attack.agents = k; }});
  }
  s.columns = {{"traffic_no_defense(10^3/min)", 1, Unit::kThousands},
               {"traffic_dd_police(10^3/min)", 1, Unit::kThousands},
               {"traffic_no_attack(10^3/min)", 1, Unit::kThousands},
               {"response_no_defense(s)", 3},
               {"response_dd_police(s)", 3},
               {"response_no_attack(s)", 3},
               {"success_no_defense(%)", 1, Unit::kPercent},
               {"success_dd_police(%)", 1, Unit::kPercent},
               {"success_no_attack(%)", 1, Unit::kPercent}};
  s.measure = [](const Cell& c) {
    const ScenarioResult& base = *c.baseline;
    const auto none = c.config.attack.agents == 0
                          ? base
                          : run_scenario(c.undefended());
    const auto ddp = run_scenario(c.config);
    return std::vector<Ratio>{
        mean(none.summary.avg_traffic_per_minute),
        mean(ddp.summary.avg_traffic_per_minute),
        mean(base.summary.avg_traffic_per_minute),
        mean(none.summary.avg_response_time),
        mean(ddp.summary.avg_response_time),
        mean(base.summary.avg_response_time),
        mean(none.summary.avg_success_rate),
        mean(ddp.summary.avg_success_rate),
        mean(base.summary.avg_success_rate)};
  };
  return s;
}

// ==================================================================== Fig 12

StudyResult damage_timelines(const Scale& scale,
                             const std::vector<double>& cut_thresholds,
                             std::size_t agents, std::uint64_t seed) {
  // Run 0 is the baseline of the damage definition (Sec. 3.7.2), run 1 the
  // undefended overlay, then one DD-POLICE run per threshold.
  SweepRunner runner(scale.jobs);
  const auto runs = runner.map(cut_thresholds.size() + 2, [&](std::size_t i) {
    if (i == 0) {
      return run_baseline(
          scaled_scenario(scale, 0, defense::Kind::kNone, seed));
    }
    ScenarioConfig cfg = scaled_scenario(
        scale, agents, i == 1 ? defense::Kind::kNone : defense::Kind::kDdPolice,
        seed);
    if (i > 1) cfg.ddpolice.cut_threshold = cut_thresholds[i - 2];
    return run_scenario(cfg);
  });
  std::map<std::string, const ScenarioResult*> series{
      {"no DD-POLICE", &runs[1]}};
  for (std::size_t i = 0; i < cut_thresholds.size(); ++i) {
    series["DD-POLICE-" + util::format_double(cut_thresholds[i], 0)] =
        &runs[i + 2];
  }

  const double s_base = runs[0].summary.avg_success_rate;
  StudyResult out;
  out.columns.push_back({"minute", 0});
  for (const auto& entry : series) out.columns.push_back({entry.first, 1});
  for (std::size_t m = 0; m < runs[1].history.size(); ++m) {
    std::vector<Ratio> row{mean(runs[1].history[m].minute)};
    for (const auto& entry : series) {
      const auto& history = entry.second->history;
      row.push_back(mean(
          m < history.size() && s_base > 0.0
              ? std::max(0.0, (s_base - history[m].success_rate) / s_base) *
                    100.0
              : 0.0));
    }
    out.labels.emplace_back();
    out.sums.push_back(std::move(row));
  }
  return out;
}

// ================================================================ Figs 13-14

namespace {

/// End-of-run success probability of the reinstated honest peers still
/// standing clear: each one's own flood scored through the engine's hit
/// model. -1 when there is none.
double reinstated_success(const ScenarioView& view) {
  std::vector<PeerId> peers;
  for (const auto& rec : view.ledger->reinstatements()) {
    peers.push_back(rec.peer);
  }
  std::sort(peers.begin(), peers.end());
  peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
  const auto& g = view.net->graph();
  double sum = 0.0;
  std::size_t n = 0;
  for (PeerId p : peers) {
    if (view.attack->is_agent(p)) continue;
    if (p >= g.node_count() || !g.is_active(p)) continue;
    if (view.ledger->standing(p) != core::Standing::kClear) continue;
    const auto prof = topology::flood_coverage(g, p, view.net->config().ttl);
    sum += view.net->content().average_hit_probability(prof.total_reach());
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : -1.0;
}

}  // namespace

Study ct_sweep(const std::vector<double>& cut_thresholds, std::size_t agents,
               bool with_quarantine) {
  Study s;
  s.agents = agents;
  s.label_headers = {"cut_threshold"};
  for (double ct : cut_thresholds) {
    s.cases.push_back({{util::format_double(ct, 0)}, [ct](ScenarioConfig& c) {
                         c.ddpolice.cut_threshold = ct;
                       }});
  }
  s.columns = {{"false_negative(good cut)", 1},
               {"false_positive(bad missed)", 1},
               {"false_judgment", 1},
               {"recovery_time(min)", 2},
               {"detection_time(min)", 2},
               {"stabilized_damage(%)", 1}};
  if (with_quarantine) {
    s.columns.insert(s.columns.end(),
                     {{"reinstate_time(min)", 2},
                      {"honest_reinstated", 1},
                      {"reinstated_success(%)", 1, Unit::kPercent},
                      {"success_permanent(%)", 1, Unit::kPercent},
                      {"success_quarantine(%)", 1, Unit::kPercent}});
  }
  s.measure = [with_quarantine](const Cell& c) {
    const auto r = run_scenario(c.config);
    const auto dmg = c.damage(r);
    std::vector<Ratio> v{
        mean(r.errors.false_negative), mean(r.errors.false_positive),
        mean(r.errors.false_judgment),
        // A run whose damage never recovers contributes the remaining run
        // length (a conservative lower bound, flagged in EXPERIMENTS.md).
        mean(dmg.recovery_minutes >= 0.0
                 ? dmg.recovery_minutes
                 : c.scale.total_minutes - c.scale.attack_start),
        detection(r), mean(dmg.stabilized_damage)};
    if (!with_quarantine) return v;

    // Same seed, same threshold, the quarantine ladder instead of the
    // permanent cut. The inspect hook keeps the last minute that had a
    // reinstated honest peer: an end-of-run snapshot. While cut, the same
    // peers sit at reach 0.
    ScenarioConfig qcfg = c.config;
    qcfg.ddpolice.cut_policy = core::CutPolicy::kQuarantine;
    double success = -1.0;
    qcfg.inspect = [&success](double /*minute*/, const ScenarioView& view) {
      if (view.ledger == nullptr || view.net == nullptr ||
          view.attack == nullptr) {
        return;
      }
      if (const double now = reinstated_success(view); now >= 0.0) {
        success = now;
      }
    };
    const auto qr = run_scenario(qcfg);
    Ratio latency;
    std::vector<PeerId> honest;
    for (const auto& rec : qr.reinstatements) {
      if (rec.peer < qr.is_bad.size() && qr.is_bad[rec.peer] == 0) {
        latency.num += rec.reinstate_minute - rec.cut_minute;
        latency.den += 1.0;
        honest.push_back(rec.peer);
      }
    }
    std::sort(honest.begin(), honest.end());
    honest.erase(std::unique(honest.begin(), honest.end()), honest.end());
    v.insert(v.end(),
             {latency, mean(honest.size()), when(success >= 0.0, success),
              mean(r.summary.avg_success_rate),
              mean(qr.summary.avg_success_rate)});
    return v;
  };
  return s;
}

// ========================================================== Sec. 3.7.1 study

Study exchange_frequency_study(const std::vector<double>& periods_minutes,
                               bool include_event_driven, std::size_t agents) {
  Study s;
  s.agents = agents;
  s.label_headers = {"policy"};
  const auto add = [&s](core::ExchangePolicy policy, double period) {
    s.cases.push_back(
        {{policy == core::ExchangePolicy::kEventDriven
              ? "event-driven"
              : "periodic s=" + util::format_double(period, 0)},
         [policy, period](ScenarioConfig& c) {
           c.ddpolice.exchange_policy = policy;
           c.ddpolice.exchange_period_minutes = period;
         }});
  };
  for (double p : periods_minutes) add(core::ExchangePolicy::kPeriodic, p);
  if (include_event_driven) add(core::ExchangePolicy::kEventDriven, 0.0);
  s.columns = {{"false_negative", 1},
               {"false_positive", 1},
               {"false_judgment", 1},
               {"exchange_msgs/min", 0},
               {"stabilized_damage(%)", 1}};
  s.measure = [](const Cell& c) {
    const auto r = run_scenario(c.config);
    return std::vector<Ratio>{
        mean(r.errors.false_negative), mean(r.errors.false_positive),
        mean(r.errors.false_judgment),
        mean(static_cast<double>(r.defense_exchange_messages) /
             c.scale.total_minutes),
        mean(c.damage(r).stabilized_damage)};
  };
  return s;
}

// ============================================================ Sec. 3.4 study

Study cheat_ablation(std::size_t agents) {
  Study s;
  s.agents = agents;
  s.label_headers = {"report", "list"};
  using attack::ListStrategy;
  using attack::ReportStrategy;
  for (const auto& [report, list] :
       std::vector<std::pair<ReportStrategy, ListStrategy>>{
           {ReportStrategy::kHonest, ListStrategy::kHonest},
           {ReportStrategy::kInflate, ListStrategy::kHonest},
           {ReportStrategy::kDeflate, ListStrategy::kHonest},
           {ReportStrategy::kMute, ListStrategy::kHonest},
           {ReportStrategy::kHonest, ListStrategy::kFabricate},
           {ReportStrategy::kHonest, ListStrategy::kWithhold}}) {
    s.cases.push_back({{std::string(attack::report_strategy_name(report)),
                        std::string(attack::list_strategy_name(list))},
                       [report = report, list = list](ScenarioConfig& c) {
                         c.attack.behavior.report = report;
                         c.attack.behavior.list = list;
                       }});
  }
  s.columns = {{"bad_identified(%)", 1},
               {"detection_time(min)", 2},
               {"false_negative", 1},
               {"stabilized_damage(%)", 1}};
  s.measure = [agents](const Cell& c) {
    const auto r = run_scenario(c.config);
    return std::vector<Ratio>{mean(identified_pct(agents, r)), detection(r),
                              mean(r.errors.false_negative),
                              mean(c.damage(r).stabilized_damage)};
  };
  return s;
}

// ============================================================ Sec. 3.5 study

Study radius_ablation(std::size_t agents) {
  Study s;
  s.agents = agents;
  s.label_headers = {"r", "agents_report"};
  for (int radius : {1, 2}) {
    for (auto report :
         {attack::ReportStrategy::kHonest, attack::ReportStrategy::kDeflate}) {
      s.cases.push_back({{std::to_string(radius),
                          std::string(attack::report_strategy_name(report))},
                         [radius, report](ScenarioConfig& c) {
                           c.ddpolice.buddy_radius = radius;
                           c.attack.behavior.report = report;
                         }});
    }
  }
  s.columns = {{"false_negative", 1},
               {"false_positive", 1},
               {"stabilized_damage(%)", 1},
               {"protocol_msgs/min", 0}};
  s.measure = [](const Cell& c) {
    const auto r = run_scenario(c.config);
    return std::vector<Ratio>{
        mean(r.errors.false_negative), mean(r.errors.false_positive),
        mean(c.damage(r).stabilized_damage),
        mean(static_cast<double>(r.defense_traffic_messages) /
             c.scale.total_minutes)};
  };
  return s;
}

}  // namespace ddp::experiments
