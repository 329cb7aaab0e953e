// Adaptive-CT tests: config validation, band learning and the two rails on
// a hand-driven overlay, the suspicion state machine (budget reduction and
// timed exit), the band poison guard, snapshot fidelity of the learned
// state, and the end-to-end property the subsystem exists for — a
// low-and-slow attacker that static DD-POLICE never even flags is cut by
// the learned bands.

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "core/adaptive.hpp"
#include "core/config.hpp"
#include "experiments/scenario.hpp"
#include "fake_overlay.hpp"
#include "snapshot/snapshot.hpp"
#include "topology/graph.hpp"

namespace ddp::core {
namespace {

using test::FakeOverlay;

constexpr double kInf = std::numeric_limits<double>::infinity();

// ----------------------------------------------------------- validation

DdPoliceConfig adaptive_on() {
  DdPoliceConfig cfg;
  cfg.adaptive.enabled = true;
  return cfg;
}

TEST(AdaptiveValidate, DefaultsPassEnabledOrNot) {
  EXPECT_EQ(validate(DdPoliceConfig{}), "");
  EXPECT_EQ(validate(adaptive_on()), "");
}

TEST(AdaptiveValidate, RejectsInvertedRails) {
  DdPoliceConfig cfg = adaptive_on();
  cfg.adaptive.k1 = 4.0;
  cfg.adaptive.k2 = 2.0;
  EXPECT_NE(validate(cfg).find("k1"), std::string::npos);
  cfg.adaptive.k1 = cfg.adaptive.k2;  // equal rails are just as meaningless
  EXPECT_NE(validate(cfg), "");
  cfg.adaptive.k1 = 0.0;
  cfg.adaptive.k2 = 4.0;
  EXPECT_NE(validate(cfg), "");
}

TEST(AdaptiveValidate, RejectsDegenerateWindowAndSamples) {
  DdPoliceConfig cfg = adaptive_on();
  cfg.adaptive.window_minutes = 0;
  EXPECT_NE(validate(cfg).find("window_minutes"), std::string::npos);

  cfg = adaptive_on();
  cfg.adaptive.min_samples = 0;
  EXPECT_NE(validate(cfg).find("min_samples"), std::string::npos);
  cfg.adaptive.min_samples = cfg.adaptive.window_minutes + 1;
  EXPECT_NE(validate(cfg), "");

  cfg = adaptive_on();
  cfg.adaptive.estimate_period_minutes = 0.0;
  EXPECT_NE(validate(cfg), "");
}

TEST(AdaptiveValidate, RejectsOutOfRangeKnobs) {
  DdPoliceConfig cfg = adaptive_on();
  cfg.adaptive.suspicious_budget = 1.5;
  EXPECT_NE(validate(cfg), "");

  cfg = adaptive_on();
  cfg.adaptive.band_floor = -1.0;
  EXPECT_NE(validate(cfg), "");

  cfg = adaptive_on();
  cfg.adaptive.malicious_ct = 0.0;
  EXPECT_NE(validate(cfg), "");

  cfg = adaptive_on();
  cfg.adaptive.suspicion_exit_minutes = -1.0;
  EXPECT_NE(validate(cfg), "");
}

TEST(AdaptiveValidate, DisabledKnobsAreNotChecked) {
  // Off = paper mode: whatever garbage sits in the unused knobs must not
  // block a run (callers toggle enabled without re-sanitizing the rest).
  DdPoliceConfig cfg;
  cfg.adaptive.k1 = 9.0;
  cfg.adaptive.k2 = 1.0;
  cfg.adaptive.window_minutes = 0;
  EXPECT_EQ(validate(cfg), "");
}

TEST(AdaptiveValidate, ScenarioRequiresMonitors) {
  // Bands are learned from DD-POLICE's own monitors; adaptive mode with
  // any other defense has nothing to learn from and must be rejected.
  experiments::ScenarioConfig cfg =
      experiments::paper_scenario(100, 10, defense::Kind::kNone, 1);
  cfg.ddpolice.adaptive.enabled = true;
  EXPECT_NE(experiments::validate_config(cfg).find("adaptive"),
            std::string::npos);

  experiments::ScenarioConfig ok =
      experiments::paper_scenario(100, 10, defense::Kind::kDdPolice, 1);
  ok.ddpolice.adaptive.enabled = true;
  EXPECT_EQ(experiments::validate_config(ok), "");
  ok.ddpolice.adaptive.k1 = 4.0;
  ok.ddpolice.adaptive.k2 = 2.0;
  EXPECT_NE(experiments::validate_config(ok), "");
}

// ------------------------------------------------- bands on a fake port

// Tight knobs so tests mature quickly: window 6, estimate every 2 min,
// mature at 4 samples, rails at 2x / 4x band.max with a 50 q/min floor.
DdPoliceConfig tight_config() {
  DdPoliceConfig cfg;
  cfg.adaptive.enabled = true;
  cfg.adaptive.window_minutes = 6;
  cfg.adaptive.estimate_period_minutes = 2.0;
  cfg.adaptive.min_samples = 4;
  cfg.adaptive.k1 = 2.0;
  cfg.adaptive.k2 = 4.0;
  cfg.adaptive.band_floor = 50.0;
  cfg.adaptive.suspicious_budget = 0.5;
  cfg.adaptive.suspicion_exit_minutes = 2.0;
  cfg.adaptive.malicious_ct = 2.0;
  return cfg;
}

/// The thresholds `judge` applies to `suspect`, read as DdPolice reads
/// them: by the slot of suspect -> judge, and that link's rate.
double warning(const AdaptiveThresholds& adp, const FakeOverlay& port,
               PeerId judge, PeerId suspect) {
  return adp.warning_threshold(port.graph().edge_slot(suspect, judge));
}

double cut(const AdaptiveThresholds& adp, const FakeOverlay& port,
           PeerId judge, PeerId suspect) {
  return adp.cut_threshold(port.graph().edge_slot(suspect, judge),
                           port.sent_last_minute(suspect, judge));
}

TEST(AdaptiveBands, LearnsBandAndDerivesRails) {
  FakeOverlay port(2);
  port.mutable_graph().add_edge(0, 1);
  port.set_rate(0, 1, 120.0);
  port.set_rate(1, 0, 80.0);
  AdaptiveThresholds adp(port, tight_config());

  // Immature: rails are +inf and the static thresholds apply unchanged.
  adp.on_minute(1.0);
  adp.on_minute(2.0);  // re-estimate runs but 2 samples < min_samples
  EXPECT_FALSE(adp.band(0, 1).mature);
  EXPECT_EQ(adp.suspicion_rail(0, 1), kInf);
  EXPECT_DOUBLE_EQ(warning(adp, port, 1, 0), 500.0);
  EXPECT_DOUBLE_EQ(cut(adp, port, 1, 0), 5.0);

  adp.on_minute(3.0);
  adp.on_minute(4.0);  // 4 samples at the minute-4 estimate: mature
  const auto band = adp.band(0, 1);
  ASSERT_TRUE(band.mature);
  EXPECT_DOUBLE_EQ(band.min, 120.0);
  EXPECT_DOUBLE_EQ(band.lambda, 120.0);
  EXPECT_DOUBLE_EQ(band.max, 120.0);
  EXPECT_DOUBLE_EQ(adp.suspicion_rail(0, 1), 240.0);   // k1 * max
  EXPECT_DOUBLE_EQ(adp.malicious_rail(0, 1), 480.0);   // (k2/k1) * r1
  EXPECT_GE(adp.band_reestimates(), 1u);

  // The reverse direction learned its own (quieter) band; its rail sits
  // on the floor-clamped side of 2 * 80.
  EXPECT_DOUBLE_EQ(adp.suspicion_rail(1, 0), 160.0);

  // Unknown links stay static.
  EXPECT_EQ(adp.suspicion_rail(0, 0), kInf);
  EXPECT_DOUBLE_EQ(warning(adp, port, 0, 99), 500.0);
}

TEST(AdaptiveBands, FloorClampsQuietLinks) {
  FakeOverlay port(2);
  port.mutable_graph().add_edge(0, 1);
  port.set_rate(0, 1, 2.0);  // near-silent link: 2 q/min normal
  AdaptiveThresholds adp(port, tight_config());
  for (double m = 1.0; m <= 4.0; m += 1.0) adp.on_minute(m);
  ASSERT_TRUE(adp.band(0, 1).mature);
  // 2 * 2 q/min would alarm on a handful of queries; the floor holds.
  EXPECT_DOUBLE_EQ(adp.suspicion_rail(0, 1), 50.0);
  EXPECT_DOUBLE_EQ(adp.malicious_rail(0, 1), 100.0);
}

TEST(AdaptiveBands, ThresholdsTightenOnlyPastTheRails) {
  FakeOverlay port(2);
  port.mutable_graph().add_edge(0, 1);
  port.set_rate(0, 1, 120.0);
  AdaptiveThresholds adp(port, tight_config());
  for (double m = 1.0; m <= 4.0; m += 1.0) adp.on_minute(m);

  // Mature band at 120: warning drops to r1, CT stays static while the
  // live rate is below the malicious rail...
  EXPECT_DOUBLE_EQ(warning(adp, port, 1, 0), 240.0);
  EXPECT_DOUBLE_EQ(cut(adp, port, 1, 0), 5.0);

  // ...and tightens to malicious_ct the minute the rate crosses r2.
  port.set_rate(0, 1, 600.0);  // > 480
  EXPECT_DOUBLE_EQ(cut(adp, port, 1, 0), 2.0);
}

TEST(AdaptiveBands, MaliciousCtNeverLoosensThePaperCt) {
  DdPoliceConfig cfg = tight_config();
  cfg.adaptive.malicious_ct = 7.0;  // looser than CT = 5: must clamp
  FakeOverlay port(2);
  port.mutable_graph().add_edge(0, 1);
  port.set_rate(0, 1, 120.0);
  AdaptiveThresholds adp(port, cfg);
  for (double m = 1.0; m <= 4.0; m += 1.0) adp.on_minute(m);
  port.set_rate(0, 1, 600.0);
  EXPECT_DOUBLE_EQ(cut(adp, port, 1, 0), 5.0);
}

// ------------------------------------------------- suspicion state machine

TEST(AdaptiveSuspicion, EntryReducesBudgetAndTimedExitRestoresIt) {
  FakeOverlay port(2);
  port.mutable_graph().add_edge(0, 1);
  port.set_rate(0, 1, 120.0);
  AdaptiveThresholds adp(port, tight_config());
  for (double m = 1.0; m <= 4.0; m += 1.0) adp.on_minute(m);
  EXPECT_FALSE(adp.suspicious(0));
  EXPECT_EQ(adp.currently_suspicious(), 0u);

  // Cross r1 (240) but not r2 (480): local suspicion, budget halved.
  port.set_rate(0, 1, 300.0);
  adp.on_minute(5.0);
  EXPECT_TRUE(adp.suspicious(0));
  EXPECT_EQ(adp.currently_suspicious(), 1u);
  EXPECT_EQ(adp.suspicion_entries(), 1u);
  EXPECT_DOUBLE_EQ(port.budget(0), 0.5);

  // Back in band: the exit needs suspicion_exit_minutes consecutive
  // quiet minutes before the budget is restored.
  port.set_rate(0, 1, 120.0);
  adp.on_minute(6.0);
  EXPECT_TRUE(adp.suspicious(0));
  EXPECT_DOUBLE_EQ(port.budget(0), 0.5);
  adp.on_minute(7.0);
  EXPECT_FALSE(adp.suspicious(0));
  EXPECT_EQ(adp.currently_suspicious(), 0u);
  EXPECT_EQ(adp.suspicion_exits(), 1u);
  EXPECT_DOUBLE_EQ(port.budget(0), 1.0);
}

TEST(AdaptiveSuspicion, RelapseResetsTheExitClock) {
  FakeOverlay port(2);
  port.mutable_graph().add_edge(0, 1);
  port.set_rate(0, 1, 120.0);
  AdaptiveThresholds adp(port, tight_config());
  for (double m = 1.0; m <= 4.0; m += 1.0) adp.on_minute(m);

  port.set_rate(0, 1, 300.0);
  adp.on_minute(5.0);          // entry (r1 = 240)
  port.set_rate(0, 1, 120.0);
  adp.on_minute(6.0);          // 1 quiet minute banked
  // Relapse far above r2: poison-guarded out of the window, so the rails
  // hold, and the banked quiet minute is forfeited.
  port.set_rate(0, 1, 2000.0);
  adp.on_minute(7.0);
  port.set_rate(0, 1, 120.0);
  adp.on_minute(8.0);
  EXPECT_TRUE(adp.suspicious(0));  // only 1 quiet minute again
  adp.on_minute(9.0);
  EXPECT_FALSE(adp.suspicious(0));
  // One continuous suspicious episode: the relapse extended it rather
  // than opening a second one.
  EXPECT_EQ(adp.suspicion_entries(), 1u);
  EXPECT_EQ(adp.suspicion_exits(), 1u);
}

TEST(AdaptiveSuspicion, PoisonGuardFreezesBandUnderAttack) {
  FakeOverlay port(2);
  port.mutable_graph().add_edge(0, 1);
  port.set_rate(0, 1, 120.0);
  AdaptiveThresholds adp(port, tight_config());
  for (double m = 1.0; m <= 4.0; m += 1.0) adp.on_minute(m);
  ASSERT_DOUBLE_EQ(adp.band(0, 1).max, 120.0);

  // A flood far above r2 runs through several re-estimates. The mature
  // band must refuse every poisoned sample: the attacker cannot ramp its
  // own "normal" upward by attacking.
  port.set_rate(0, 1, 5000.0);
  for (double m = 5.0; m <= 10.0; m += 1.0) adp.on_minute(m);
  EXPECT_DOUBLE_EQ(adp.band(0, 1).max, 120.0);
  EXPECT_DOUBLE_EQ(adp.suspicion_rail(0, 1), 240.0);
  EXPECT_TRUE(adp.suspicious(0));
  EXPECT_DOUBLE_EQ(cut(adp, port, 1, 0), 2.0);
}

TEST(AdaptiveSuspicion, DriftBetweenTheRailsKeepsAdapting) {
  FakeOverlay port(2);
  port.mutable_graph().add_edge(0, 1);
  port.set_rate(0, 1, 120.0);
  AdaptiveThresholds adp(port, tight_config());
  for (double m = 1.0; m <= 4.0; m += 1.0) adp.on_minute(m);

  // Legitimate load growth to 300 q/min sits between r1 (240) and r2
  // (480): suspicious at first, but the samples keep entering the window,
  // so the band follows and the suspicion clears without intervention.
  port.set_rate(0, 1, 300.0);
  for (double m = 5.0; m <= 12.0; m += 1.0) adp.on_minute(m);
  EXPECT_DOUBLE_EQ(adp.band(0, 1).max, 300.0);
  EXPECT_DOUBLE_EQ(adp.suspicion_rail(0, 1), 600.0);
  EXPECT_FALSE(adp.suspicious(0));
}

TEST(AdaptiveSuspicion, DepartedPeerSuspicionDissolves) {
  FakeOverlay port(3);
  port.mutable_graph().add_edge(0, 1);
  port.mutable_graph().add_edge(1, 2);
  port.set_rate(0, 1, 120.0);
  port.set_rate(1, 2, 120.0);
  AdaptiveThresholds adp(port, tight_config());
  for (double m = 1.0; m <= 4.0; m += 1.0) adp.on_minute(m);
  port.set_rate(0, 1, 999.0);
  adp.on_minute(5.0);
  ASSERT_TRUE(adp.suspicious(0));

  port.mutable_graph().set_active(0, false);  // churn takes the peer out
  adp.on_minute(6.0);
  EXPECT_FALSE(adp.suspicious(0));
  EXPECT_EQ(adp.currently_suspicious(), 0u);
}

// --------------------------------------------------------------- snapshot

TEST(AdaptiveSnapshot, SaveLoadSaveIsByteIdentical) {
  const DdPoliceConfig cfg = tight_config();
  FakeOverlay port(4);
  port.mutable_graph().add_edge(0, 1);
  port.mutable_graph().add_edge(1, 2);
  port.mutable_graph().add_edge(2, 3);
  AdaptiveThresholds a(port, cfg);
  // Mixed history: maturation, one suspicion entry, one poisoned sample.
  for (double m = 1.0; m <= 4.0; m += 1.0) {
    port.set_rate(0, 1, 100.0 + m);
    port.set_rate(1, 2, 40.0);
    port.set_rate(2, 3, 7.0);
    a.on_minute(m);
  }
  port.set_rate(0, 1, 2000.0);
  a.on_minute(5.0);

  const auto serialize = [](const AdaptiveThresholds& adp) {
    snapshot::Writer w;
    w.begin_section(snapshot::section_id("ADPT"));
    adp.save(w);
    w.end_section();
    return w.finish(0);
  };
  const auto bytes = serialize(a);

  AdaptiveThresholds b(port, cfg);
  snapshot::Reader r = snapshot::Reader::from_bytes(bytes);
  r.begin_section(snapshot::section_id("ADPT"));
  b.load(r);
  r.end_section();
  EXPECT_EQ(serialize(b), bytes);
  EXPECT_EQ(b.suspicion_entries(), a.suspicion_entries());
  EXPECT_EQ(b.currently_suspicious(), a.currently_suspicious());
  EXPECT_TRUE(b.suspicious(0));
  EXPECT_DOUBLE_EQ(b.suspicion_rail(0, 1), a.suspicion_rail(0, 1));
}

// ------------------------------------------------------------ end to end

// The reason the subsystem exists: a ramping attacker that settles at
// 400 q/min total (scale 0.02 of the 20,000 q/min flood) stays under the
// static 500 q/min warning threshold on every link — static DD-POLICE
// never opens a buddy round on it — but sits well above any learned
// normal band.
TEST(AdaptiveDetection, CutsLowAndSlowThatStaticNeverFlags) {
  experiments::ScenarioConfig cfg =
      experiments::paper_scenario(150, 10, defense::Kind::kDdPolice, 42);
  cfg.total_minutes = 24.0;
  cfg.attack.start_minute = 4.0;
  cfg.attack.sourcing = attack::SourcingStrategy::kRamp;
  cfg.attack.ramp_minutes = 6.0;
  cfg.attack.ramp_target_scale = 0.02;

  const auto agents_cut = [](const experiments::ScenarioResult& r) {
    std::set<PeerId> cut;
    for (const auto& d : r.decisions) {
      if (d.suspect < r.is_bad.size() && r.is_bad[d.suspect] != 0) {
        cut.insert(d.suspect);
      }
    }
    return cut.size();
  };

  const auto static_result = experiments::run_scenario(cfg);
  EXPECT_EQ(agents_cut(static_result), 0u);

  cfg.ddpolice.adaptive.enabled = true;
  const auto adaptive_result = experiments::run_scenario(cfg);
  EXPECT_GE(agents_cut(adaptive_result), 5u);  // a majority of the 10
  EXPECT_GT(adaptive_result.band_reestimates, 0u);
  EXPECT_GT(adaptive_result.suspicion_entries, 0u);
}

}  // namespace
}  // namespace ddp::core
