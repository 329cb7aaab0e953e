// A defended overlay, minute by minute: 800 peers with realistic churn,
// an attack campaign that starts mid-run with cheating agents, and a
// DD-POLICE deployment whose protocol activity is narrated as it happens —
// suspicions raised, buddy-group rounds, disconnect decisions, agents
// walking back in and being caught again.
//
// Usage: defended_overlay [peers=800] [agents=40] [minutes=30] [ct=5]
//                         [cheat=deflate|honest|inflate|mute|collude]
//                         [rejoin=1]
//                         [seed=2007]

#include <cstdio>
#include <iostream>

#include "experiments/scenario.hpp"
#include "metrics/damage.hpp"
#include "util/config.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ddp;
  util::Options opts(argc, argv);
  const auto peers = opts.get("peers", std::size_t{800});
  const auto agents = opts.get("agents", std::size_t{40});
  const auto seed = opts.get("seed", std::uint64_t{2007});

  experiments::ScenarioConfig cfg =
      experiments::paper_scenario(peers, agents, defense::Kind::kDdPolice, seed);
  cfg.total_minutes = opts.get("minutes", 30.0);
  cfg.ddpolice.cut_threshold = opts.get("ct", cfg.ddpolice.cut_threshold);
  cfg.attack.behavior.report =
      opts.get("cheat", attack::ReportStrategy::kDeflate,
               attack::report_strategy_name);
  cfg.attack.rejoin = opts.get("rejoin", true);
  std::string err = opts.error();
  if (err.empty()) err = experiments::validate_config(cfg);
  if (util::refuse("defended_overlay", err)) return 2;

  std::printf("defended overlay: %zu peers, %zu agents (%s reporters, rejoin=%s), "
              "CT=%.0f, attack at minute %.0f\n\n",
              peers, agents,
              attack::report_strategy_name(cfg.attack.behavior.report).data(),
              cfg.attack.rejoin ? "on" : "off", cfg.ddpolice.cut_threshold,
              cfg.attack.start_minute);

  const auto baseline = experiments::run_baseline(cfg);
  const auto r = experiments::run_scenario(cfg);

  // Narrate the run: damage per minute with protocol decisions inlined.
  std::size_t decision_idx = 0;
  for (const auto& m : r.history) {
    const double damage =
        baseline.summary.avg_success_rate > 0
            ? std::max(0.0, (baseline.summary.avg_success_rate - m.success_rate) /
                                baseline.summary.avg_success_rate * 100.0)
            : 0.0;
    std::printf("min %4.0f | success %5.1f%% | damage %5.1f%% | traffic %9.0f | ",
                m.minute, m.success_rate * 100.0, damage, m.traffic_messages);
    std::size_t cuts_bad = 0, cuts_good = 0, liars = 0;
    while (decision_idx < r.decisions.size() &&
           r.decisions[decision_idx].minute <= m.minute) {
      const auto& d = r.decisions[decision_idx++];
      if (d.list_violation) ++liars;
      else if (r.is_bad[d.suspect]) ++cuts_bad;
      else ++cuts_good;
    }
    if (cuts_bad + cuts_good + liars == 0) std::printf("-\n");
    else
      std::printf("cut %zu agent links, %zu good links%s\n", cuts_bad, cuts_good,
                  liars ? " (+list violations)" : "");
  }

  const auto dmg = metrics::analyze_damage(
      r.history, baseline.summary.avg_success_rate, cfg.attack.start_minute);
  std::printf("\nsummary: peak damage %.1f%%, stabilized %.1f%%, "
              "recovery(20%%->15%%) %s\n",
              dmg.peak_damage, dmg.stabilized_damage,
              dmg.recovery_minutes >= 0
                  ? (util::format_double(dmg.recovery_minutes, 1) + " min").c_str()
                  : "not reached");
  std::printf("protocol: %llu exchange msgs, %llu round msgs, %llu rounds; "
              "agents identified %zu/%zu, good peers wrongly cut %zu, "
              "agent rejoins %zu\n",
              static_cast<unsigned long long>(r.defense_exchange_messages),
              static_cast<unsigned long long>(r.defense_traffic_messages),
              static_cast<unsigned long long>(r.defense_rounds),
              agents - r.errors.false_positive, agents, r.errors.false_negative,
              r.attack_rejoins);
  return 0;
}
