// Chaos soak harness tests: a short hostile schedule must run with zero
// invariant violations, the checker must actually report violations when
// given an unachievable floor, and scenario configuration validation must
// reject out-of-range knobs with actionable messages.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "experiments/soak.hpp"

namespace ddp::experiments {
namespace {

TEST(SoakHarness, ShortChaosScheduleRunsClean) {
  // Reduced-scale version of the 8-hour CI soak: rejoining agents, churn,
  // link faults, crash/stall faults, quarantine + priority + repair.
  SoakConfig cfg = chaos_soak_config(150, 15, 30.0, 5);
  const SoakReport rep = run_soak(cfg);
  EXPECT_TRUE(rep.passed()) << soak_verdict(rep);
  EXPECT_GT(rep.checks, 0u);
  // The schedule must actually exercise the ladder, not vacuously pass.
  EXPECT_GT(rep.result.quarantine.quarantines, 0u);
}

TEST(SoakHarness, UnachievableConnectivityFloorIsReported) {
  SoakConfig cfg = chaos_soak_config(100, 10, 15.0, 6);
  cfg.min_honest_connectivity = 1.1;  // > 1: every sweep must fail
  cfg.check_warmup_minutes = 5.0;
  const SoakReport rep = run_soak(cfg);
  EXPECT_FALSE(rep.passed());
  EXPECT_GT(rep.violation_count, 0u);
  ASSERT_FALSE(rep.violations.empty());
  EXPECT_NE(rep.violations.front().what.find("connectivity"),
            std::string::npos);
  EXPECT_NE(soak_verdict(rep).find("FAIL"), std::string::npos);
}

TEST(SoakHarness, ViolationRecordingIsCapped) {
  SoakConfig cfg = chaos_soak_config(100, 10, 20.0, 7);
  cfg.min_honest_connectivity = 1.1;
  cfg.check_warmup_minutes = 1.0;
  cfg.max_recorded_violations = 3;
  const SoakReport rep = run_soak(cfg);
  EXPECT_LE(rep.violations.size(), 3u);
  EXPECT_GT(rep.violation_count, 3u);  // all are still counted
}

// ----------------------------------------------------- config validation

TEST(ScenarioValidate, AcceptsPaperDefaults) {
  EXPECT_EQ(validate_config(
                paper_scenario(100, 10, defense::Kind::kDdPolice, 1)),
            "");
  EXPECT_EQ(validate_config(chaos_soak_config(100, 10, 30.0, 1).scenario),
            "");
}

TEST(ScenarioValidate, RejectsOutOfRangeKnobs) {
  const auto base = paper_scenario(100, 10, defense::Kind::kDdPolice, 1);

  auto cfg = base;
  cfg.flow.ttl = 0;
  EXPECT_NE(validate_config(cfg), "");

  cfg = base;
  cfg.flow.capacity_per_minute = -10.0;
  EXPECT_NE(validate_config(cfg), "");

  cfg = base;
  cfg.fault.channel.drop_probability = 1.5;
  EXPECT_NE(validate_config(cfg), "");

  cfg = base;
  cfg.ddpolice.cut_threshold = 0.0;
  EXPECT_NE(validate_config(cfg), "");

  cfg = base;
  cfg.ddpolice.probation_budget = 2.0;
  EXPECT_NE(validate_config(cfg), "");

  cfg = base;
  cfg.warmup_minutes = cfg.total_minutes + 1.0;
  EXPECT_NE(validate_config(cfg), "");

  cfg = base;
  cfg.attack.agents = cfg.topo.nodes;
  EXPECT_NE(validate_config(cfg), "");

  // The damping calibration floods every sampled origin twice per call;
  // its sample count is bounded on both sides.
  for (const std::size_t samples : {std::size_t{0}, std::size_t{4097}}) {
    cfg = base;
    cfg.flow.calibration_samples = samples;
    EXPECT_NE(validate_config(cfg).find("flow.calibration_samples"),
              std::string::npos);
  }
  for (const std::size_t samples : {std::size_t{1}, std::size_t{4096}}) {
    cfg = base;
    cfg.flow.calibration_samples = samples;
    EXPECT_EQ(validate_config(cfg), "");
  }

  // The simulated judge cuts on the first tripping round; a confirmation
  // count it would silently ignore is refused instead.
  cfg = base;
  cfg.ddpolice.cut_confirmations = 2;
  EXPECT_NE(validate_config(cfg).find("cut_confirmations"), std::string::npos);
}

TEST(ScenarioValidate, MessagesNameTheOffendingKnob) {
  auto cfg = paper_scenario(100, 10, defense::Kind::kDdPolice, 1);
  cfg.flow.tick_seconds = 0.0;
  EXPECT_NE(validate_config(cfg).find("flow.tick_seconds"),
            std::string::npos);
  cfg = paper_scenario(100, 10, defense::Kind::kDdPolice, 1);
  cfg.ddpolice.quarantine_growth = 0.5;
  EXPECT_NE(validate_config(cfg).find("quarantine_growth"),
            std::string::npos);
}

TEST(ScenarioValidate, RunScenarioThrowsOnInvalidConfig) {
  auto cfg = paper_scenario(60, 5, defense::Kind::kNone, 2);
  cfg.flow.tick_seconds = 0.0;
  EXPECT_THROW(run_scenario(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace ddp::experiments
