// End-to-end integration tests: whole scaled-down experiments asserting the
// paper-shape properties every figure depends on. These run the same code
// paths as the bench binaries, at sizes that keep ctest fast.

#include <gtest/gtest.h>

#include "experiments/extensions.hpp"
#include "experiments/figures.hpp"
#include "experiments/scenario.hpp"
#include "metrics/damage.hpp"

namespace ddp::experiments {
namespace {

Scale tiny_scale() {
  Scale s;
  s.peers = 200;
  s.total_minutes = 14.0;
  s.attack_start = 3.0;
  s.warmup_minutes = 6.0;
  s.trials = 1;
  s.agent_counts = {0, 5, 20};
  return s;
}

TEST(Scenario, BaselineOverlayIsHealthy) {
  ScenarioConfig cfg = paper_scenario(200, 0, defense::Kind::kNone, 1);
  cfg.total_minutes = 10.0;
  const auto r = run_baseline(cfg);
  EXPECT_GT(r.summary.avg_success_rate, 0.7);
  EXPECT_GT(r.summary.avg_traffic_per_minute, 0.0);
  EXPECT_GT(r.final_active_peers, 100.0);
  EXPECT_TRUE(r.decisions.empty());
  EXPECT_EQ(r.errors.false_judgment, 0u);
}

TEST(Scenario, AttackDegradesService) {
  ScenarioConfig base = paper_scenario(200, 0, defense::Kind::kNone, 2);
  base.total_minutes = 12.0;
  base.attack.start_minute = 3.0;
  const auto healthy = run_baseline(base);
  ScenarioConfig atk = paper_scenario(200, 15, defense::Kind::kNone, 2);
  atk.total_minutes = 12.0;
  atk.attack.start_minute = 3.0;
  atk.warmup_minutes = 4.0;
  const auto attacked = run_scenario(atk);
  EXPECT_LT(attacked.summary.avg_success_rate,
            healthy.summary.avg_success_rate - 0.1);
  EXPECT_GT(attacked.summary.avg_traffic_per_minute,
            healthy.summary.avg_traffic_per_minute * 2.0);
  EXPECT_GT(attacked.summary.avg_response_time,
            healthy.summary.avg_response_time);
}

TEST(Scenario, DdPoliceRestoresService) {
  const std::uint64_t seed = 3;
  ScenarioConfig base = paper_scenario(250, 0, defense::Kind::kNone, seed);
  base.total_minutes = 16.0;
  const auto healthy = run_baseline(base);

  ScenarioConfig none = paper_scenario(250, 15, defense::Kind::kNone, seed);
  none.total_minutes = 16.0;
  none.attack.start_minute = 3.0;
  ScenarioConfig ddp = none;
  ddp.defense = defense::Kind::kDdPolice;

  const auto r_none = run_scenario(none);
  const auto r_ddp = run_scenario(ddp);

  const auto dmg_none = metrics::analyze_damage(
      r_none.history, healthy.summary.avg_success_rate, 3.0);
  const auto dmg_ddp = metrics::analyze_damage(
      r_ddp.history, healthy.summary.avg_success_rate, 3.0);

  // DD-POLICE ends much closer to healthy than the undefended run.
  EXPECT_LT(dmg_ddp.stabilized_damage, dmg_none.stabilized_damage * 0.6);
  // And it identified most agents.
  EXPECT_LT(r_ddp.errors.false_positive, 15u / 3);
  EXPECT_GT(r_ddp.errors.bad_cut_events, 0u);
}

TEST(Scenario, DdPoliceOverheadIsModest) {
  ScenarioConfig cfg = paper_scenario(200, 0, defense::Kind::kDdPolice, 4);
  cfg.total_minutes = 10.0;
  const auto with = run_scenario(cfg);
  ScenarioConfig cfg2 = paper_scenario(200, 0, defense::Kind::kNone, 4);
  cfg2.total_minutes = 10.0;
  const auto without = run_scenario(cfg2);
  // "slightly higher average traffic cost" (Sec. 3.7.2) — the protocol
  // overhead exists but is small relative to search traffic.
  EXPECT_GT(with.summary.avg_overhead_per_minute, 0.0);
  EXPECT_LT(with.summary.avg_overhead_per_minute,
            without.summary.avg_traffic_per_minute * 0.25);
}

TEST(Figures, AgentSweepPaperShape) {
  const Scale s = tiny_scale();
  const auto sweep = run_study(agent_sweep(s), s, 5);
  ASSERT_EQ(sweep.rows(), 3u);
  const auto traffic_none = [&](std::size_t i) {
    return sweep.value(i, "traffic_no_defense(10^3/min)");
  };
  const auto success_none = [&](std::size_t i) {
    return sweep.value(i, "success_no_defense(%)");
  };
  // Traffic under attack grows with agent count (Fig. 9's no-defense curve)
  EXPECT_GT(traffic_none(2), traffic_none(0) * 1.5);
  // Success under attack decays with agent count (Fig. 11).
  EXPECT_LT(success_none(2), success_none(0));
  // DD-POLICE sits between no-defense and no-attack at high agent counts.
  EXPECT_GT(sweep.value(2, "success_dd_police(%)"), success_none(2));
  // Tables render one line per row plus headers.
  EXPECT_EQ(sweep.table({"traffic_no_defense(10^3/min)"}).rows(), 3u);
  EXPECT_EQ(sweep.table({"response_no_defense(s)"}).rows(), 3u);
  EXPECT_EQ(sweep.table({"success_no_defense(%)"}).rows(), 3u);
}

TEST(Figures, DamageTimelinesShape) {
  Scale s = tiny_scale();
  s.total_minutes = 12.0;
  const auto tl = damage_timelines(s, {3.0, 7.0}, 15, 6);
  ASSERT_EQ(tl.columns.size(), 4u);  // minute + no-defense + two CTs
  ASSERT_GT(tl.rows(), 0u);
  ASSERT_EQ(tl.sums.front().size(), tl.columns.size());
  // Attack bites after the start minute in the undefended series.
  double peak_none = 0.0, late_ct3 = 0.0, late_none = 0.0;
  for (std::size_t i = 0; i < tl.rows(); ++i) {
    const double none = tl.value(i, "no DD-POLICE");
    peak_none = std::max(peak_none, none);
    if (tl.value(i, "minute") >= s.total_minutes - 3.0) {
      late_ct3 = std::max(late_ct3, tl.value(i, "DD-POLICE-3"));
      late_none = std::max(late_none, none);
    }
  }
  EXPECT_GT(peak_none, 15.0);
  // DD-POLICE's late damage is below the undefended late damage.
  EXPECT_LT(late_ct3, late_none);
  EXPECT_EQ(tl.table().rows(), tl.rows());
}

TEST(Figures, CtSweepErrorTrends) {
  Scale s = tiny_scale();
  const auto sweep = run_study(ct_sweep({2.0, 30.0}, 15, false), s, 7);
  ASSERT_EQ(sweep.rows(), 2u);
  // Fig. 13: a laxer threshold wrongly cuts fewer good peers...
  EXPECT_LE(sweep.value(1, "false_negative(good cut)"),
            sweep.value(0, "false_negative(good cut)"));
  // ...and the tables render.
  EXPECT_EQ(sweep.table({"false_negative(good cut)"}).rows(), 2u);
  EXPECT_EQ(sweep.table({"recovery_time(min)"}).rows(), 2u);
}

TEST(Figures, ExchangeFrequencyStudyRuns) {
  Scale s = tiny_scale();
  s.total_minutes = 10.0;
  const auto sweep =
      run_study(exchange_frequency_study({1.0, 5.0}, true, 10), s, 8);
  ASSERT_EQ(sweep.rows(), 3u);
  EXPECT_EQ(sweep.label(0, "policy"), "periodic s=1");
  EXPECT_EQ(sweep.label(2, "policy"), "event-driven");
  // More frequent exchange costs more messages (Sec. 3.7.1's tradeoff).
  EXPECT_GT(sweep.value(0, "exchange_msgs/min"),
            sweep.value(1, "exchange_msgs/min"));
  EXPECT_EQ(sweep.table().rows(), 3u);
}

TEST(Figures, CheatAblationCoversAllCases) {
  Scale s = tiny_scale();
  s.total_minutes = 10.0;
  const auto sweep = run_study(cheat_ablation(10), s, 9);
  ASSERT_EQ(sweep.rows(), 6u);
  // Sec. 3.4's conclusion: cheating does not save the attackers — they are
  // identified under every reporting strategy.
  for (std::size_t i = 0; i < sweep.rows(); ++i) {
    EXPECT_GT(sweep.value(i, "bad_identified(%)"), 50.0)
        << sweep.label(i, "report") << "/" << sweep.label(i, "list");
  }
  EXPECT_EQ(sweep.table().rows(), 6u);
}

TEST(Figures, RadiusAblationRuns) {
  Scale s = tiny_scale();
  s.total_minutes = 10.0;
  const auto sweep = run_study(radius_ablation(10), s, 10);
  ASSERT_EQ(sweep.rows(), 4u);
  EXPECT_EQ(sweep.table().rows(), 4u);
  // r = 2 with deflating agents wrongly cuts no more good peers than r = 1.
  double r1_deflate = -1.0, r2_deflate = -1.0;
  for (std::size_t i = 0; i < sweep.rows(); ++i) {
    if (sweep.label(i, "agents_report") == "deflate") {
      (sweep.label(i, "r") == "1" ? r1_deflate : r2_deflate) =
          sweep.value(i, "false_negative");
    }
  }
  EXPECT_LE(r2_deflate, r1_deflate + 0.5);
}

TEST(Figures, DefaultScaleHonorsEnvironment) {
  unsetenv("DDP_FULL");
  unsetenv("DDP_TRIALS");
  std::string problem;
  const Scale lap = default_scale(problem);
  EXPECT_EQ(lap.peers, 600u);
  setenv("DDP_FULL", "1", 1);
  setenv("DDP_TRIALS", "5", 1);
  const Scale full = default_scale(problem);
  EXPECT_EQ(full.peers, 2000u);
  EXPECT_EQ(full.trials, 5u);
  EXPECT_EQ(problem, "");
  // A malformed value keeps the default and names the variable.
  setenv("DDP_TRIALS", "0", 1);
  EXPECT_EQ(default_scale(problem).trials, 3u);
  EXPECT_EQ(problem, "DDP_TRIALS must be an integer in [1, 4294967295], got '0'");
  unsetenv("DDP_FULL");
  unsetenv("DDP_TRIALS");
}

TEST(Scenario, DeterministicForSameSeed) {
  ScenarioConfig cfg = paper_scenario(150, 10, defense::Kind::kDdPolice, 11);
  cfg.total_minutes = 8.0;
  const auto a = run_scenario(cfg);
  const auto b = run_scenario(cfg);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.history[i].traffic_messages,
                     b.history[i].traffic_messages);
    EXPECT_DOUBLE_EQ(a.history[i].success_rate, b.history[i].success_rate);
  }
  EXPECT_EQ(a.decisions.size(), b.decisions.size());
}

// A BA overlay is built with m(m+1) + 2m(n-m-1) directed slots, so the
// flow engine's ceiling of 2^23 - 1 fixes the largest overlay the
// configuration may ask for, checked before any graph is generated.
TEST(Scenario, RefusesBaOverlayPastTheFlowSlotCeiling) {
  ScenarioConfig cfg = paper_scenario(1'500'000, 0, defense::Kind::kNone, 1);
  const std::string err = validate_config(cfg);
  EXPECT_NE(err.find("topo.nodes must be at most 1398103"), std::string::npos)
      << err;
  cfg.topo.nodes = 1'398'103;
  EXPECT_EQ(validate_config(cfg), "");
  cfg.topo.nodes = 1'398'104;
  EXPECT_NE(validate_config(cfg), "");
  // The ceiling moves with the links per joining peer.
  cfg.topo.ba_links_per_node = 1;
  cfg.topo.nodes = 1'500'000;
  EXPECT_EQ(validate_config(cfg), "");
  // Other models are sized by the engine itself when it is built.
  cfg.topo.ba_links_per_node = 3;
  cfg.topo.model = topology::Model::kErdosRenyi;
  EXPECT_EQ(validate_config(cfg), "");
}

TEST(Extensions, DefenseComparisonShape) {
  Scale s = tiny_scale();
  s.total_minutes = 12.0;
  const auto sweep = run_study(defense_comparison(12), s, 21);
  ASSERT_EQ(sweep.rows(), 5u);
  const std::size_t healthy = 0, none = 1, naive = 2, ddp = 4;
  const auto success = [&](std::size_t i) {
    return sweep.value(i, "success(%)");
  };
  EXPECT_GT(success(healthy), success(none));
  // DD-POLICE restores more service than no defense.
  EXPECT_GT(success(ddp), success(none));
  // The strawman wrongly cuts more good peers than DD-POLICE.
  EXPECT_GE(sweep.value(naive, "good_wrongly_cut"),
            sweep.value(ddp, "good_wrongly_cut"));
  EXPECT_GT(sweep.value(ddp, "bad_identified(%)"), 50.0);
  EXPECT_EQ(sweep.table().rows(), 5u);
}

TEST(Extensions, TopologyAblationRuns) {
  Scale s = tiny_scale();
  s.total_minutes = 10.0;
  const auto sweep = run_study(topology_ablation(10), s, 22);
  ASSERT_EQ(sweep.rows(), 4u);  // BA, Waxman, ER, two-tier
  for (std::size_t i = 0; i < sweep.rows(); ++i) {
    const std::string& model = sweep.label(i, "topology");
    EXPECT_GT(sweep.value(i, "healthy_success(%)"), 50.0) << model;
    EXPECT_GE(sweep.value(i, "defended_success(%)"),
              sweep.value(i, "attacked_success(%)") - 5.0)
        << model;
  }
  EXPECT_EQ(sweep.table().rows(), 4u);
}

TEST(Extensions, ChurnAblationShape) {
  Scale s = tiny_scale();
  s.total_minutes = 10.0;
  const auto sweep = run_study(churn_ablation(10), s, 23);
  ASSERT_EQ(sweep.rows(), 5u);
  // A static overlay wrongly cuts (essentially) nobody; fast churn is the
  // staleness worst case.
  EXPECT_LE(sweep.value(0, "good_wrongly_cut"), 1.0);
  EXPECT_GE(sweep.value(2, "good_wrongly_cut"),
            sweep.value(0, "good_wrongly_cut"));
  EXPECT_EQ(sweep.table().rows(), 5u);
}

TEST(Extensions, RejoinStudyShape) {
  Scale s = tiny_scale();
  s.total_minutes = 12.0;
  const auto sweep = run_study(rejoin_study(10), s, 24);
  ASSERT_EQ(sweep.rows(), 4u);
  EXPECT_DOUBLE_EQ(sweep.value(0, "rejoin_events"), 0.0);  // one-shot
  // Persistent attackers force continued disconnect work.
  EXPECT_GE(sweep.value(3, "agent_links_cut"),
            sweep.value(0, "agent_links_cut"));
  EXPECT_EQ(sweep.table().rows(), 4u);
}

TEST(Extensions, AttackRateDetectabilityCliff) {
  Scale s = tiny_scale();
  s.total_minutes = 10.0;
  const auto sweep = run_study(attack_rate_sweep(10), s, 25);
  ASSERT_EQ(sweep.rows(), 7u);
  // Below the 500/min warning threshold nothing is suspected...
  EXPECT_LT(sweep.value(0, "bad_identified(%)"), 30.0);
  // ...well above it, identification is near-total.
  EXPECT_GT(sweep.value(sweep.rows() - 1, "bad_identified(%)"), 70.0);
  EXPECT_EQ(sweep.table().rows(), 7u);
}

TEST(Scenario, NaiveCutHurtsMoreGoodPeersThanDdPolice) {
  const std::uint64_t seed = 12;
  ScenarioConfig naive = paper_scenario(250, 10, defense::Kind::kNaiveCut, seed);
  naive.total_minutes = 12.0;
  ScenarioConfig ddp = paper_scenario(250, 10, defense::Kind::kDdPolice, seed);
  ddp.total_minutes = 12.0;
  const auto r_naive = run_scenario(naive);
  const auto r_ddp = run_scenario(ddp);
  // The Sec. 2.1 argument: blind rate cutting wrongly disconnects the
  // forwarders; DD-POLICE's buddy groups exonerate them.
  EXPECT_GT(r_naive.errors.false_negative, r_ddp.errors.false_negative);
}

}  // namespace
}  // namespace ddp::experiments
