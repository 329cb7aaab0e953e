// Quickstart: build a small unstructured P2P overlay, unleash a query-flood
// DDoS against it, and watch DD-POLICE identify and disconnect the agents.
//
// Usage:
//   quickstart [peers=600] [agents=30] [minutes=25] [ct=5] [seed=42]
//
// Prints the per-minute damage to the search service and the protocol's
// detection record — the whole paper in one screen of output.

#include <cstdio>
#include <iostream>

#include "experiments/scenario.hpp"
#include "metrics/damage.hpp"
#include "util/config.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ddp;
  util::Options opts(argc, argv);
  const auto peers = opts.get("peers", std::size_t{600});
  const auto agents = opts.get("agents", std::size_t{30});
  const double minutes = opts.get("minutes", 25.0);
  const double ct = opts.get("ct", 5.0);
  const auto seed = opts.get("seed", std::uint64_t{42});
  // The defended run carries every setting; check it before any run.
  experiments::ScenarioConfig ddp_cfg =
      experiments::paper_scenario(peers, agents, defense::Kind::kDdPolice, seed);
  ddp_cfg.total_minutes = minutes;
  ddp_cfg.ddpolice.cut_threshold = ct;
  std::string err = opts.error();
  if (err.empty()) err = experiments::validate_config(ddp_cfg);
  if (util::refuse("quickstart", err)) return 2;

  std::cout << "DD-POLICE quickstart: " << peers << " peers, " << agents
            << " DDoS agents, CT=" << ct << "\n";

  // A reference run without any attack gives the healthy success rate S.
  experiments::ScenarioConfig base_cfg =
      experiments::paper_scenario(peers, 0, defense::Kind::kNone, seed);
  base_cfg.total_minutes = minutes;
  const auto baseline = experiments::run_baseline(base_cfg);
  std::printf("healthy overlay: success=%.1f%%  response=%.2fs  traffic=%.0f msg/min\n",
              baseline.summary.avg_success_rate * 100.0,
              baseline.summary.avg_response_time,
              baseline.summary.avg_traffic_per_minute);

  // The same overlay under attack, undefended.
  experiments::ScenarioConfig none_cfg =
      experiments::paper_scenario(peers, agents, defense::Kind::kNone, seed);
  none_cfg.total_minutes = minutes;
  const auto undefended = experiments::run_scenario(none_cfg);

  // And defended by DD-POLICE.
  const auto defended = experiments::run_scenario(ddp_cfg);

  std::printf("under attack   : success=%.1f%%  response=%.2fs  traffic=%.0f msg/min\n",
              undefended.summary.avg_success_rate * 100.0,
              undefended.summary.avg_response_time,
              undefended.summary.avg_traffic_per_minute);
  std::printf("with DD-POLICE : success=%.1f%%  response=%.2fs  traffic=%.0f msg/min\n",
              defended.summary.avg_success_rate * 100.0,
              defended.summary.avg_response_time,
              defended.summary.avg_traffic_per_minute);

  const auto dmg_none = metrics::analyze_damage(
      undefended.history, baseline.summary.avg_success_rate, 0.0);
  const auto dmg_ddp = metrics::analyze_damage(
      defended.history, baseline.summary.avg_success_rate, 0.0);

  util::Table t({"minute", "damage_no_defense(%)", "damage_dd_police(%)"});
  for (std::size_t i = 0; i < dmg_none.damage.size(); ++i) {
    t.row()
        .cell(dmg_none.damage.time_at(i), 0)
        .cell(dmg_none.damage.value_at(i), 1)
        .cell(i < dmg_ddp.damage.size() ? dmg_ddp.damage.value_at(i) : 0.0, 1);
  }
  t.print(std::cout, "damage rate timeline");

  std::printf("\nDD-POLICE record: %zu agents, %zu correct disconnects, "
              "%zu good peers wrongly cut, %zu agents never identified, "
              "%zu rejoin attempts\n",
              agents, defended.errors.bad_cut_events,
              defended.errors.false_negative, defended.errors.false_positive,
              defended.attack_rejoins);
  if (defended.errors.mean_detection_minute >= 0.0) {
    std::printf("mean detection latency: %.2f minutes after attack start\n",
                defended.errors.mean_detection_minute);
  }
  return 0;
}
