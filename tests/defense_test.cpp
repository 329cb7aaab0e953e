// Defense-layer tests: the naive rate-cut strawman of Sec. 2.1 (cuts
// innocent forwarders), the fair-share comparator [21], and DD-POLICE's
// quarantine ladder at scenario level.

#include <gtest/gtest.h>

#include <memory>

#include "defense/defense.hpp"
#include "flow/flow_port.hpp"
#include "experiments/scenario.hpp"
#include "topology/generators.hpp"

namespace ddp::defense {
namespace {

struct World {
  topology::Graph graph;
  std::unique_ptr<topology::BandwidthMap> bandwidth;
  std::unique_ptr<workload::ContentModel> content;
  std::unique_ptr<flow::FlowNetwork> net;

  explicit World(std::size_t peers, std::uint64_t seed = 9) {
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

TEST(KindNames, AllDistinct) {
  EXPECT_EQ(kind_name(Kind::kNone), "none");
  EXPECT_EQ(kind_name(Kind::kDdPolice), "dd-police");
  EXPECT_EQ(kind_name(Kind::kNaiveCut), "naive-cut");
  EXPECT_EQ(kind_name(Kind::kFairShare), "fair-share");
}

TEST(NaiveCut, CutsTheAttackerButAlsoForwarders) {
  World w(120);
  w.net->set_kind(3, PeerKind::kBad);
  flow::FlowPort port(*w.net);
  NaiveCutDefense naive(port, 500.0);
  w.net->add_minute_hook([&](double m) { naive.on_minute(m); });
  w.net->run_minutes(4.0);
  bool agent_cut = false;
  std::size_t innocents = 0;
  for (const auto& d : naive.decisions()) {
    if (d.suspect == 3) agent_cut = true;
    else ++innocents;
  }
  EXPECT_TRUE(agent_cut);
  // Sec. 2.1: "disconnecting all the peers who send out a large number of
  // queries is dangerous" — the strawman cuts innocent forwarders too.
  EXPECT_GT(innocents, 0u);
}

TEST(NaiveCut, QuietNetworkUntouched) {
  World w(80);
  flow::FlowPort port(*w.net);
  NaiveCutDefense naive(port, 500.0);
  w.net->add_minute_hook([&](double m) { naive.on_minute(m); });
  w.net->run_minutes(3.0);
  EXPECT_TRUE(naive.decisions().empty());
}

TEST(FairShare, ScenarioLevelComparisonAgainstNone) {
  // Fair share should preserve noticeably more search success than the
  // undefended network under the same attack (and never disconnect).
  using namespace ddp::experiments;
  ScenarioConfig none = paper_scenario(150, 10, Kind::kNone, 77);
  none.total_minutes = 12.0;
  none.churn.enabled = false;
  ScenarioConfig fair = none;
  fair.defense = Kind::kFairShare;
  const auto r_none = run_scenario(none);
  const auto r_fair = run_scenario(fair);
  EXPECT_GT(r_fair.summary.avg_success_rate,
            r_none.summary.avg_success_rate + 0.02);
  EXPECT_TRUE(r_fair.decisions.empty());
}

TEST(QuarantineScenario, RejoiningAttackersClimbTheLadderUnderChurn) {
  // Churn and attack rejoin both re-wire peers behind the ledger's back;
  // the sweep must keep blocked peers isolated and the ladder must still
  // converge on persistent offenders.
  using namespace ddp::experiments;
  ScenarioConfig cfg = paper_scenario(150, 15, Kind::kDdPolice, 99);
  cfg.total_minutes = 18.0;
  cfg.attack.rejoin = true;
  cfg.ddpolice.cut_policy = core::CutPolicy::kQuarantine;
  cfg.ddpolice.quarantine_minutes = 2.0;
  cfg.ddpolice.probation_minutes = 1.0;
  cfg.ddpolice.max_strikes = 3;
  const auto r = run_scenario(cfg);
  EXPECT_GT(r.quarantine.quarantines, 0u);
  // Repeat offenders must escalate: with rejoin on, somebody is caught
  // again — more quarantine episodes than agents, or an outright ban.
  EXPECT_TRUE(r.quarantine.bans > 0 || r.quarantine.quarantines > 15u);
  // Cut agents with pending rejoins were re-wired at least once and the
  // sweep had to strip the leaked edges.
  EXPECT_GT(r.quarantine.re_isolations, 0u);
}

TEST(QuarantineScenario, ChurnOfflineQuarantineLeavesNoLeakedState) {
  // Quarantined peers that churn offline must not leak standing: the run
  // must end with a coherent ledger (verified inside the scenario via the
  // quarantine stats) and deferred releases accounted for.
  using namespace ddp::experiments;
  ScenarioConfig cfg = paper_scenario(150, 15, Kind::kDdPolice, 101);
  cfg.total_minutes = 18.0;
  cfg.churn.mean_lifetime = minutes(6.0);  // aggressive churn
  cfg.churn.lifetime_variance = 3.0 * kMinute * kMinute;
  cfg.ddpolice.cut_policy = core::CutPolicy::kQuarantine;
  cfg.ddpolice.quarantine_minutes = 3.0;
  cfg.ddpolice.probation_minutes = 2.0;
  const auto r = run_scenario(cfg);
  EXPECT_GT(r.quarantine.quarantines, 0u);
  // Probations can never outnumber releases from quarantine, and every
  // reinstatement requires a probation first.
  EXPECT_LE(r.quarantine.reinstatements, r.quarantine.probations);
  EXPECT_LE(r.quarantine.probations, r.quarantine.quarantines);
}

TEST(QuarantineScenario, PermanentPolicyReportsNoQuarantineActivity) {
  using namespace ddp::experiments;
  ScenarioConfig cfg = paper_scenario(120, 10, Kind::kDdPolice, 55);
  cfg.total_minutes = 12.0;
  const auto r = run_scenario(cfg);  // default CutPolicy::kPermanent
  EXPECT_EQ(r.quarantine.quarantines, 0u);
  EXPECT_EQ(r.quarantine.bans, 0u);
  EXPECT_TRUE(r.reinstatements.empty());
}

}  // namespace
}  // namespace ddp::defense
