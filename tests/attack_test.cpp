// Attack substrate tests: campaign orchestration, agent selection, rejoin
// behaviour and strategy plumbing.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>

#include "attack/scenario.hpp"
#include "experiments/scenario.hpp"
#include "topology/generators.hpp"
#include "util/config.hpp"

namespace ddp::attack {
namespace {

struct World {
  topology::Graph graph;
  std::unique_ptr<topology::BandwidthMap> bandwidth;
  std::unique_ptr<workload::ContentModel> content;
  std::unique_ptr<flow::FlowNetwork> net;

  explicit World(std::size_t peers, std::uint64_t seed = 1) {
    util::Rng rng(seed);
    graph = topology::paper_topology(peers, rng);
    util::Rng bw_rng = rng.fork("bw");
    bandwidth = std::make_unique<topology::BandwidthMap>(peers, bw_rng);
    workload::ContentConfig cc;
    content = std::make_unique<workload::ContentModel>(cc, peers);
    flow::FlowConfig fc;
    fc.bandwidth_limits = false;
    net = std::make_unique<flow::FlowNetwork>(graph, *bandwidth, *content, fc,
                                              rng.fork("flow"));
  }
};

TEST(AttackScenario, StartsAtConfiguredMinute) {
  World w(100);
  AttackConfig cfg;
  cfg.agents = 10;
  cfg.start_minute = 3.0;
  AttackScenario atk(*w.net, cfg, util::Rng(2));
  w.net->add_minute_hook([&](double m) { atk.on_minute(m); });
  w.net->run_minutes(2.0);
  EXPECT_FALSE(atk.started());
  EXPECT_DOUBLE_EQ(w.net->last_minute_report().attack_issued, 0.0);
  w.net->run_minutes(3.0);
  EXPECT_TRUE(atk.started());
  EXPECT_GT(w.net->last_minute_report().attack_issued, 0.0);
}

TEST(AttackScenario, PicksDistinctActiveAgents) {
  World w(100);
  AttackConfig cfg;
  cfg.agents = 25;
  cfg.start_minute = 0.0;
  AttackScenario atk(*w.net, cfg, util::Rng(3));
  atk.on_minute(0.0);
  ASSERT_EQ(atk.agents().size(), 25u);
  std::set<PeerId> uniq(atk.agents().begin(), atk.agents().end());
  EXPECT_EQ(uniq.size(), 25u);
  for (PeerId a : atk.agents()) {
    EXPECT_TRUE(atk.is_agent(a));
    EXPECT_EQ(w.net->kind(a), PeerKind::kBad);
  }
  EXPECT_FALSE(atk.is_agent(kInvalidPeer));
}

TEST(AttackScenario, NoRejoinKeepsIsolatedAgentsOut) {
  World w(60);
  AttackConfig cfg;
  cfg.agents = 1;
  cfg.start_minute = 0.0;
  cfg.rejoin = false;
  AttackScenario atk(*w.net, cfg, util::Rng(4));
  w.net->add_minute_hook([&](double m) { atk.on_minute(m); });
  w.net->run_minutes(1.0);
  const PeerId agent = atk.agents()[0];
  w.net->on_peer_offline(agent);  // simulate the defense isolating it
  w.net->run_minutes(6.0);
  EXPECT_EQ(w.net->graph().degree(agent), 0u);
  EXPECT_EQ(atk.rejoins(), 0u);
}

TEST(AttackScenario, RejoinReconnectsAfterGap) {
  World w(60);
  AttackConfig cfg;
  cfg.agents = 1;
  cfg.start_minute = 0.0;
  cfg.rejoin = true;
  cfg.rejoin_after_minutes = 2.0;
  cfg.rejoin_links = 3;
  AttackScenario atk(*w.net, cfg, util::Rng(5));
  w.net->add_minute_hook([&](double m) { atk.on_minute(m); });
  w.net->run_minutes(1.0);
  const PeerId agent = atk.agents()[0];
  w.net->on_peer_offline(agent);
  w.net->run_minutes(6.0);
  EXPECT_GE(w.net->graph().degree(agent), 1u);
  EXPECT_EQ(atk.rejoins(), 1u);
}

TEST(AttackScenario, StrategyNames) {
  EXPECT_EQ(report_strategy_name(ReportStrategy::kHonest), "honest");
  EXPECT_EQ(report_strategy_name(ReportStrategy::kDeflate), "deflate");
  EXPECT_EQ(report_strategy_name(ReportStrategy::kInflate), "inflate");
  EXPECT_EQ(report_strategy_name(ReportStrategy::kMute), "mute");
  EXPECT_EQ(report_strategy_name(ReportStrategy::kCollude), "collude");
  EXPECT_EQ(list_strategy_name(ListStrategy::kFabricate), "fabricate");
  EXPECT_EQ(list_strategy_name(ListStrategy::kWithhold), "withhold");
  EXPECT_EQ(list_strategy_name(ListStrategy::kHonest), "honest");
  EXPECT_EQ(sourcing_strategy_name(SourcingStrategy::kConstant), "constant");
  EXPECT_EQ(sourcing_strategy_name(SourcingStrategy::kRamp), "ramp");
  EXPECT_EQ(sourcing_strategy_name(SourcingStrategy::kPulse), "pulse");
  EXPECT_EQ(sourcing_strategy_name(SourcingStrategy::kProbe), "probe");
}

// `value` read as an E through the CLI option reader; nullopt when the
// reader rejects it.
template <class E, class Name>
std::optional<E> read_name(std::string_view value, Name name) {
  const std::string arg = "k=" + std::string(value);
  const char* argv[] = {"prog", arg.c_str()};
  util::Options o(2, argv);
  const E e = o.get("k", E{}, name);
  if (!o.error().empty()) return std::nullopt;
  return e;
}

TEST(AttackScenario, StrategyNamesRoundTrip) {
  // Every enumerator survives name -> option read (the ddpsim CLI addresses
  // strategies by these strings); unknown and miscased names are rejected.
  for (const auto s :
       {ReportStrategy::kHonest, ReportStrategy::kInflate,
        ReportStrategy::kDeflate, ReportStrategy::kMute,
        ReportStrategy::kCollude}) {
    EXPECT_EQ(read_name<ReportStrategy>(report_strategy_name(s),
                                        report_strategy_name),
              s);
  }
  for (const auto s : {ListStrategy::kHonest, ListStrategy::kFabricate,
                       ListStrategy::kWithhold}) {
    EXPECT_EQ(
        read_name<ListStrategy>(list_strategy_name(s), list_strategy_name), s);
  }
  for (const auto s :
       {SourcingStrategy::kConstant, SourcingStrategy::kRamp,
        SourcingStrategy::kPulse, SourcingStrategy::kProbe}) {
    EXPECT_EQ(read_name<SourcingStrategy>(sourcing_strategy_name(s),
                                          sourcing_strategy_name),
              s);
  }
  EXPECT_FALSE(read_name<ReportStrategy>("bogus", report_strategy_name));
  EXPECT_FALSE(read_name<ListStrategy>("", list_strategy_name));
  EXPECT_FALSE(read_name<SourcingStrategy>("Constant", sourcing_strategy_name));
}

TEST(Sourcing, ConstantScheduleIsThePaperAgent) {
  AttackConfig c;
  c.sourcing = SourcingStrategy::kConstant;
  for (const double t : {0.0, 0.5, 7.0, 1e6}) {
    EXPECT_DOUBLE_EQ(schedule_scale(c, t), 1.0);
  }
}

TEST(Sourcing, RampScheduleIsLinearAndSaturates) {
  AttackConfig c;
  c.sourcing = SourcingStrategy::kRamp;
  c.ramp_minutes = 8.0;
  c.ramp_target_scale = 0.06;
  EXPECT_DOUBLE_EQ(schedule_scale(c, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(schedule_scale(c, 4.0), 0.03);
  EXPECT_DOUBLE_EQ(schedule_scale(c, 8.0), 0.06);
  EXPECT_DOUBLE_EQ(schedule_scale(c, 100.0), 0.06);
  EXPECT_DOUBLE_EQ(schedule_scale(c, -5.0), 0.0);  // pre-activation clamps
  c.ramp_minutes = 0.0;  // degenerate ramp: jump straight to the target
  EXPECT_DOUBLE_EQ(schedule_scale(c, 0.0), 0.06);
}

TEST(Sourcing, PulseScheduleHasTheConfiguredDutyCycle) {
  AttackConfig c;
  c.sourcing = SourcingStrategy::kPulse;
  c.pulse_on_minutes = 1.0;
  c.pulse_off_minutes = 3.0;
  c.pulse_scale = 0.5;
  EXPECT_DOUBLE_EQ(schedule_scale(c, 0.0), 0.5);
  EXPECT_DOUBLE_EQ(schedule_scale(c, 0.99), 0.5);
  EXPECT_DOUBLE_EQ(schedule_scale(c, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(schedule_scale(c, 3.99), 0.0);
  EXPECT_DOUBLE_EQ(schedule_scale(c, 4.0), 0.5);  // period wraps
  EXPECT_DOUBLE_EQ(schedule_scale(c, 41.5), 0.0);
  c.pulse_on_minutes = 0.0;  // degenerate period: always-on at pulse_scale
  c.pulse_off_minutes = 0.0;
  EXPECT_DOUBLE_EQ(schedule_scale(c, 2.0), 0.5);
}

TEST(Sourcing, ProbeScheduleStartsAtTheFirstRung) {
  // kProbe is stateful (climb until links drop, then back off); the pure
  // schedule only pins its deterministic starting point.
  AttackConfig c;
  c.sourcing = SourcingStrategy::kProbe;
  c.probe_step_scale = 0.05;
  EXPECT_DOUBLE_EQ(schedule_scale(c, 0.0), 0.05);
  EXPECT_DOUBLE_EQ(schedule_scale(c, 30.0), 0.05);
}

TEST(AttackScenario, ColludersFrameHonestForwardersUnderChurn) {
  // Input into the suspect subtracts in the indicators. A colluding
  // member covers a fellow agent by inflating the input credit (the
  // capacity-credit cap defeats that at full flood rate, so agents still
  // get cut) and frames an honest suspect by deflating it — the flood an
  // honest peer dutifully forwards then looks like issuing. With the
  // paper's churn running, collusion must raise the honest-framing count
  // without ever protecting the agents from the capacity-credit check.
  experiments::ScenarioConfig cfg =
      experiments::paper_scenario(150, 12, defense::Kind::kDdPolice, 99);
  cfg.total_minutes = 16.0;
  cfg.attack.start_minute = 2.0;

  experiments::ScenarioConfig collude = cfg;
  collude.attack.behavior.report = ReportStrategy::kCollude;

  const auto honest_run = experiments::run_scenario(cfg);
  const auto collude_run = experiments::run_scenario(collude);

  const auto cut_count = [](const experiments::ScenarioResult& r, bool bad) {
    std::set<PeerId> cut;
    for (const auto& d : r.decisions) {
      if (d.suspect < r.is_bad.size() && (r.is_bad[d.suspect] != 0) == bad) {
        cut.insert(d.suspect);
      }
    }
    return cut.size();
  };

  EXPECT_GT(cut_count(honest_run, true), 0u);
  EXPECT_GT(cut_count(collude_run, true), 0u);
  // Framing: deflated reports get honest forwarders wrongly cut...
  EXPECT_GT(cut_count(collude_run, false), cut_count(honest_run, false));
  // ...but never a majority of the 138 honest peers.
  EXPECT_LT(cut_count(collude_run, false), 138u / 2);
}

TEST(AttackScenario, MoreAgentsThanPeersClamped) {
  World w(10);
  AttackConfig cfg;
  cfg.agents = 50;
  cfg.start_minute = 0.0;
  AttackScenario atk(*w.net, cfg, util::Rng(6));
  atk.on_minute(0.0);
  EXPECT_LE(atk.agents().size(), 10u);
  EXPECT_GE(atk.agents().size(), 9u);
}

}  // namespace
}  // namespace ddp::attack
