// Flow-level engine tests: conservation and reach against exact coverage
// profiles (cross-validation with the BFS model), per-link monitors, ghost
// counters, capacity and bandwidth clamping, fair-share discipline, minute
// rotation, the churn driver, and absolute outputs pinned bit-for-bit.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "flow/churn_driver.hpp"
#include "flow/network.hpp"
#include "snapshot/snapshot.hpp"
#include "topology/generators.hpp"

namespace ddp::flow {
namespace {

struct World {
  topology::Graph graph;
  std::unique_ptr<topology::BandwidthMap> bandwidth;
  std::unique_ptr<workload::ContentModel> content;
  std::unique_ptr<FlowNetwork> net;

  World(topology::Graph g, FlowConfig cfg = {}, std::uint64_t seed = 11,
        double mean_replicas = 8.0)
      : graph(std::move(g)) {
    util::Rng rng(seed);
    util::Rng bw_rng = rng.fork("bw");
    bandwidth = std::make_unique<topology::BandwidthMap>(graph.node_count(),
                                                         bw_rng);
    workload::ContentConfig cc;
    cc.objects = 500;
    cc.mean_replicas = mean_replicas;
    content = std::make_unique<workload::ContentModel>(cc, graph.node_count());
    net = std::make_unique<FlowNetwork>(graph, *bandwidth, *content, cfg,
                                        rng.fork("flow"));
  }
};

FlowConfig quiet_config() {
  FlowConfig cfg;
  cfg.bandwidth_limits = false;  // isolate the mechanics under test
  return cfg;
}

TEST(FlowNetwork, IdleNetworkCarriesOnlyGoodIssuance) {
  util::Rng rng(1);
  World w(topology::paper_topology(100, rng), quiet_config());
  w.net->run_minutes(3.0);
  const auto& r = w.net->last_minute_report();
  EXPECT_GT(r.good_issued, 0.0);
  EXPECT_DOUBLE_EQ(r.attack_issued, 0.0);
  EXPECT_GT(r.traffic_messages, r.good_issued);  // flooding multiplies
  EXPECT_DOUBLE_EQ(r.dropped, 0.0);              // far below capacity
}

TEST(FlowNetwork, ReachMatchesExactCoverageProfile) {
  // Cross-validation: with no congestion the flow engine's per-query reach
  // must match the BFS coverage profile it was calibrated against.
  util::Rng rng(2);
  topology::Graph g = topology::paper_topology(200, rng);
  const auto exact = topology::average_coverage(g, 7, 200, rng);
  World w(std::move(g), quiet_config());
  w.net->run_minutes(3.0);
  const auto& r = w.net->last_minute_report();
  EXPECT_NEAR(r.reach_per_query, exact.total_reach(),
              exact.total_reach() * 0.12);
}

TEST(FlowNetwork, SuccessHighOnHealthyOverlay) {
  util::Rng rng(3);
  World w(topology::paper_topology(300, rng), quiet_config());
  w.net->run_minutes(3.0);
  EXPECT_GT(w.net->last_minute_report().success_rate, 0.8);
}

TEST(FlowNetwork, AttackRaisesTrafficAndDrops) {
  util::Rng rng(4);
  World base(topology::paper_topology(200, rng), quiet_config(), 11);
  base.net->run_minutes(3.0);
  const double base_traffic = base.net->last_minute_report().traffic_messages;

  util::Rng rng2(4);
  World atk(topology::paper_topology(200, rng2), quiet_config(), 11);
  for (PeerId a = 0; a < 5; ++a) atk.net->set_kind(a, PeerKind::kBad);
  atk.net->run_minutes(3.0);
  const auto& r = atk.net->last_minute_report();
  EXPECT_GT(r.traffic_messages, 2.0 * base_traffic);
  EXPECT_GT(r.attack_issued, 0.0);
  EXPECT_GT(r.dropped, 0.0);
  EXPECT_LT(r.success_rate,
            base.net->last_minute_report().success_rate);
}

TEST(FlowNetwork, PerLinkMonitorSeesAttackRate) {
  // Star: attacker at the hub sends Q_d per link.
  topology::Graph g(5);
  for (PeerId i = 1; i < 5; ++i) g.add_edge(0, i);
  FlowConfig cfg = quiet_config();
  World w(std::move(g), cfg);
  w.net->set_kind(0, PeerKind::kBad);
  w.net->run_minutes(2.0);
  // Q_d = 20,000/min per link (no bandwidth limits here).
  EXPECT_NEAR(w.net->sent_last_minute(0, 1), 20000.0, 1500.0);
  EXPECT_NEAR(w.net->sent_last_minute(0, 4), 20000.0, 1500.0);
}

TEST(FlowNetwork, GoodIssuerFloodsFullCopyPerLink) {
  topology::Graph g(4);
  for (PeerId i = 1; i < 4; ++i) g.add_edge(0, i);
  FlowConfig cfg = quiet_config();
  cfg.good_issue_per_minute = 60.0;  // 1/s, easy to see
  World w(std::move(g), cfg);
  // Only peer 0 issues.
  for (PeerId p = 1; p < 4; ++p) w.net->set_issue_scale(p, 0.0);
  w.net->run_minutes(2.0);
  // Flooding copies the full rate onto every link.
  EXPECT_NEAR(w.net->sent_last_minute(0, 1), 60.0, 3.0);
  EXPECT_NEAR(w.net->sent_last_minute(0, 3), 60.0, 3.0);
}

TEST(FlowNetwork, CapacityClampsForwarding) {
  // Line: 0 (attacker) -> 1 -> 2. Peer 1 can service only capacity/min, so
  // what it forwards to 2 is bounded by capacity regardless of input.
  topology::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  FlowConfig cfg = quiet_config();
  cfg.capacity_per_minute = 6000.0;
  World w(std::move(g), cfg);
  w.net->set_kind(0, PeerKind::kBad);  // sends 20,000/min into peer 1
  w.net->run_minutes(2.0);
  EXPECT_NEAR(w.net->sent_last_minute(0, 1), 20000.0, 1500.0);
  // Peer 1 (degree 2) forwards fresh * (deg-1)/deg of <= 6000 processed.
  EXPECT_LT(w.net->sent_last_minute(1, 2), 6000.0);
  EXPECT_GT(w.net->last_minute_report().dropped, 10000.0);
}

TEST(FlowNetwork, BandwidthLimitsClampSlowLinks) {
  topology::Graph g(2);
  g.add_edge(0, 1);
  FlowConfig cfg;  // bandwidth limits ON
  // Find a seed where peer 0 is a modem (22% chance; scan a few seeds).
  for (std::uint64_t seed = 1; seed < 60; ++seed) {
    util::Rng rng(seed);
    topology::BandwidthMap bw(2, rng);
    if (bw.peer_class(0) == topology::BandwidthClass::kModem) {
      workload::ContentConfig cc;
      workload::ContentModel content(cc, 2);
      topology::Graph g2(2);
      g2.add_edge(0, 1);
      FlowNetwork net(g2, bw, content, cfg, util::Rng(7));
      net.set_kind(0, PeerKind::kBad);
      net.run_minutes(2.0);
      // Modem upstream 56 Kbps -> ~7000 queries/min ceiling.
      EXPECT_LT(net.sent_last_minute(0, 1), 7100.0);
      EXPECT_GT(net.sent_last_minute(0, 1), 5000.0);
      return;
    }
  }
  FAIL() << "no modem seed found";
}

TEST(FlowNetwork, GhostCountersSurviveDisconnectWithinMinute) {
  topology::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  World w(std::move(g), quiet_config());
  w.net->set_kind(0, PeerKind::kBad);
  w.net->run_minutes(2.0);
  const double before = w.net->sent_last_minute(0, 1);
  ASSERT_GT(before, 1000.0);
  w.net->disconnect(0, 1);
  // The monitors still answer for the completed minute...
  EXPECT_DOUBLE_EQ(w.net->sent_last_minute(0, 1), before);
  // ...but the ghost expires at the next rotation.
  w.net->run_minutes(1.0);
  EXPECT_DOUBLE_EQ(w.net->sent_last_minute(0, 1), 0.0);
}

TEST(FlowNetwork, DisconnectSeversFlow) {
  topology::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  World w(std::move(g), quiet_config());
  w.net->set_kind(0, PeerKind::kBad);
  w.net->run_minutes(1.0);
  w.net->disconnect(0, 1);
  w.net->run_minutes(2.0);
  EXPECT_DOUBLE_EQ(w.net->sent_last_minute(0, 1), 0.0);
  EXPECT_LT(w.net->sent_last_minute(1, 2), 100.0);
  EXPECT_FALSE(w.net->graph().has_edge(0, 1));
}

TEST(FlowNetwork, FairShareProtectsLightLinks) {
  // Peer 1 has two feeders: attacker 0 and a good issuer 2; sink 3.
  // Under pooled FIFO both suffer the same loss ratio; under fair share the
  // light (good) link is served fully.
  auto build = [](ServiceDiscipline d) {
    topology::Graph g(4);
    g.add_edge(0, 1);
    g.add_edge(2, 1);
    g.add_edge(1, 3);
    FlowConfig cfg;
    cfg.bandwidth_limits = false;
    cfg.capacity_per_minute = 5000.0;
    cfg.discipline = d;
    cfg.good_issue_per_minute = 300.0;
    auto w = std::make_unique<World>(std::move(g), cfg);
    w->net->set_kind(0, PeerKind::kBad);
    w->net->set_issue_scale(1, 0.0);
    w->net->set_issue_scale(3, 0.0);
    w->net->run_minutes(3.0);
    return w;
  };
  const auto pooled = build(ServiceDiscipline::kPooledFifo);
  const auto fair = build(ServiceDiscipline::kFairShare);
  // Good flood share surviving through peer 1: measure good reach.
  EXPECT_GT(fair->net->last_minute_report().reach_per_query,
            pooled->net->last_minute_report().reach_per_query * 1.5);
}

TEST(FlowNetwork, MinuteHooksFireOncePerMinute) {
  util::Rng rng(5);
  World w(topology::paper_topology(50, rng), quiet_config());
  std::vector<double> minutes;
  w.net->add_minute_hook([&](double m) { minutes.push_back(m); });
  w.net->run_minutes(3.0);
  ASSERT_EQ(minutes.size(), 3u);
  EXPECT_DOUBLE_EQ(minutes[0], 1.0);
  EXPECT_DOUBLE_EQ(minutes[2], 3.0);
}

TEST(FlowNetwork, OverheadCountedIntoReport) {
  util::Rng rng(6);
  World w(topology::paper_topology(50, rng), quiet_config());
  w.net->add_minute_hook([&](double) { w.net->add_overhead_messages(123.0); });
  w.net->run_minutes(2.0);
  // Overhead added during minute 1's hook lands in minute 2's report.
  EXPECT_DOUBLE_EQ(w.net->last_minute_report().overhead_messages, 123.0);
}

TEST(FlowNetwork, HistoryAccumulates) {
  util::Rng rng(7);
  World w(topology::paper_topology(50, rng), quiet_config());
  w.net->run_minutes(5.0);
  ASSERT_EQ(w.net->minute_history().size(), 5u);
  EXPECT_DOUBLE_EQ(w.net->minute_history()[4].minute, 5.0);
}

TEST(FlowNetwork, RecalibrateHandlesChangedTopology) {
  util::Rng rng(8);
  World w(topology::paper_topology(80, rng), quiet_config());
  w.net->run_minutes(1.0);
  // Remove a chunk of edges and recalibrate; reach must shrink with it.
  const double reach_before = w.net->last_minute_report().reach_per_query;
  for (PeerId p = 0; p < 40; ++p) w.net->mutable_graph().set_active(p, false);
  w.net->recalibrate();
  w.net->run_minutes(2.0);
  EXPECT_LT(w.net->last_minute_report().reach_per_query, reach_before);
}

TEST(FlowNetwork, ResponseTimeGrowsUnderLoad) {
  util::Rng rng(9);
  World idle(topology::paper_topology(150, rng), quiet_config(), 21);
  idle.net->run_minutes(3.0);
  util::Rng rng2(9);
  World busy(topology::paper_topology(150, rng2), quiet_config(), 21);
  for (PeerId a = 0; a < 10; ++a) busy.net->set_kind(a, PeerKind::kBad);
  busy.net->run_minutes(3.0);
  EXPECT_GT(busy.net->last_minute_report().response_time,
            idle.net->last_minute_report().response_time);
}

// ------------------------------------------------------------ churn driver

TEST(ChurnDriver, TurnsPeersOffAndOn) {
  util::Rng rng(10);
  World w(topology::paper_topology(200, rng), quiet_config());
  workload::ChurnConfig cc;
  cc.mean_lifetime = minutes(3.0);
  cc.lifetime_variance = 1.5 * kMinute * kMinute;
  cc.mean_offline = minutes(2.0);
  workload::ChurnModel model(cc);
  ChurnDriver churn(*w.net, model, util::Rng(77));
  std::size_t joins = 0, leaves = 0;
  churn.on_join = [&](PeerId) { ++joins; };
  churn.on_leave = [&](PeerId) { ++leaves; };
  w.net->add_minute_hook([&](double m) { churn.on_minute(m); });
  w.net->run_minutes(10.0);
  EXPECT_GT(leaves, 50u);
  EXPECT_GT(joins, 10u);
  EXPECT_EQ(churn.leaves(), leaves);
  EXPECT_EQ(churn.joins(), joins);
  // Population remains bounded and the overlay survives.
  EXPECT_GT(w.net->graph().active_count(), 50u);
  EXPECT_GT(w.net->last_minute_report().success_rate, 0.2);
}

TEST(ChurnDriver, DisabledChurnDoesNothing) {
  util::Rng rng(11);
  World w(topology::paper_topology(100, rng), quiet_config());
  workload::ChurnConfig cc;
  cc.enabled = false;
  workload::ChurnModel model(cc);
  ChurnDriver churn(*w.net, model, util::Rng(1));
  w.net->add_minute_hook([&](double m) { churn.on_minute(m); });
  w.net->run_minutes(5.0);
  EXPECT_EQ(churn.leaves(), 0u);
  EXPECT_EQ(w.net->graph().active_count(), 100u);
}

TEST(ChurnDriver, RejoiningPeerIsWiredIn) {
  util::Rng rng(12);
  World w(topology::paper_topology(100, rng), quiet_config());
  workload::ChurnConfig cc;
  cc.mean_lifetime = minutes(1.0);
  cc.lifetime_variance = 0.25 * kMinute * kMinute;
  cc.mean_offline = minutes(1.0);
  workload::ChurnModel model(cc);
  ChurnDriver churn(*w.net, model, util::Rng(5));
  w.net->add_minute_hook([&](double m) { churn.on_minute(m); });
  w.net->run_minutes(8.0);
  ASSERT_GT(churn.joins(), 0u);
  // Every active peer that rejoined has edges again.
  std::size_t isolated_active = 0;
  for (PeerId p = 0; p < w.net->graph().node_count(); ++p) {
    if (w.net->graph().is_active(p) && w.net->graph().degree(p) == 0) {
      ++isolated_active;
    }
  }
  EXPECT_LT(isolated_active, 5u);
}

// ---------------------------------------------- drop classes & admission

TEST(FlowNetwork, PerClassDropAccountingSumsToTotal) {
  util::Rng rng(41);
  World w(topology::paper_topology(200, rng), quiet_config(), 11);
  for (PeerId a = 0; a < 5; ++a) w.net->set_kind(a, PeerKind::kBad);
  w.net->run_minutes(3.0);
  const auto& r = w.net->last_minute_report();
  ASSERT_GT(r.dropped, 0.0);
  EXPECT_GT(r.dropped_attack, 0.0);
  EXPECT_GE(r.dropped_good, 0.0);
  // The per-class split is pure side accounting of the same drops.
  EXPECT_NEAR(r.dropped_good + r.dropped_attack, r.dropped,
              1e-6 * r.dropped + 1e-9);
  // Under a flood, the overload is overwhelmingly attack volume.
  EXPECT_GT(r.dropped_attack, r.dropped_good);
}

TEST(FlowNetwork, QuietNetworkDropsNothingInEitherClass) {
  util::Rng rng(42);
  World w(topology::paper_topology(100, rng), quiet_config());
  w.net->run_minutes(2.0);
  const auto& r = w.net->last_minute_report();
  EXPECT_DOUBLE_EQ(r.dropped_good, 0.0);
  EXPECT_DOUBLE_EQ(r.dropped_attack, 0.0);
}

TEST(FlowNetwork, PriorityAdmissionShedsAttackTrafficFirst) {
  auto report_for = [](AdmissionPolicy admission) {
    util::Rng rng(43);
    FlowConfig cfg;
    cfg.bandwidth_limits = false;
    cfg.admission = admission;
    World w(topology::paper_topology(200, rng), cfg, 11);
    for (PeerId a = 0; a < 5; ++a) w.net->set_kind(a, PeerKind::kBad);
    w.net->run_minutes(3.0);
    return w.net->last_minute_report();
  };
  const auto blind = report_for(AdmissionPolicy::kClassBlind);
  const auto prio = report_for(AdmissionPolicy::kPriority);
  ASSERT_GT(blind.dropped_good, 0.0);  // blind tail drop hits good traffic
  // Priority shedding spends the scarce budget on the good class.
  EXPECT_LT(prio.dropped_good, blind.dropped_good);
  EXPECT_GT(prio.dropped_attack, 0.0);
  EXPECT_GE(prio.success_rate + 1e-9, blind.success_rate);
}

// --------------------------------------------- pinned absolute outputs

// One FNV-1a hash of the bytes FlowNetwork::save writes: roles, every
// link's in-flight vector and minute counters, the calibration, the minute
// accumulators, the report history and the rng position.
std::uint64_t saved_state_hash(const FlowNetwork& net) {
  snapshot::Writer w;
  w.begin_section(1);
  net.save(w);
  w.end_section();
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : w.finish(0)) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Flow modes the golden gate never runs, pinned bit-for-bit. The
// jobs-invariance tests only compare one-span with multi-span runs, so an
// engine change that moved both would pass them; these constants would
// not. A 150-peer overlay with bandwidth limits on and three agents drive
// both service drops and sender-side clamp drops in every mode. The ttl1
// and ttl8 modes run the pooled engine at both ends of the TTL range,
// where the kernels' fixed-width loops meet the live TTL entries. The
// state hash pins every link's in-flight vector and minute counters after
// the run, which the report and the sums above see only in aggregate.
struct PinnedOutputs {
  MinuteReport report;
  double in_flight = 0.0;
  std::vector<double> agent_sent;  ///< agent out-links, adjacency order
  std::uint64_t state_hash = 0;    ///< saved_state_hash after the run
};

constexpr std::array<PeerId, 3> kPinnedAgents{40, 90, 140};

PinnedOutputs run_pinned(const FlowConfig& cfg) {
  util::Rng rng(77);
  World w(topology::paper_topology(150, rng), cfg, 5);
  for (const PeerId a : kPinnedAgents) w.net->set_kind(a, PeerKind::kBad);
  w.net->run_minutes(3.0);
  PinnedOutputs out;
  out.report = w.net->last_minute_report();
  out.in_flight = w.net->total_in_flight();
  for (const PeerId a : kPinnedAgents) {
    for (const PeerId q : w.graph.neighbors(a)) {
      out.agent_sent.push_back(w.net->sent_last_minute(a, q));
    }
  }
  out.state_hash = saved_state_hash(*w.net);
  return out;
}

struct PinnedMode {
  const char* name;
  MinuteReport report;  ///< fields in declaration order
  double in_flight;
  std::vector<double> agent_sent;
  std::uint64_t state_hash;
};

FlowConfig pinned_config(const std::string& mode) {
  FlowConfig cfg;
  if (mode == "fair") cfg.discipline = ServiceDiscipline::kFairShare;
  if (mode == "priority") cfg.admission = AdmissionPolicy::kPriority;
  if (mode == "lossy") cfg.link_reliability = 0.9;
  if (mode == "duplicating") cfg.link_reliability = 1.1;
  if (mode == "ttl1") cfg.ttl = 1;
  if (mode == "ttl8") cfg.ttl = 8;
  return cfg;
}

TEST(FlowPinned, AbsoluteOutputsMatchRecordedValues) {
  const std::vector<PinnedMode> modes = {
    {"pooled",
     {0x1.8p+1, 0x1.9130acb788209p+20, 0x1.8fb051b35ba6fp+20,
      0x1.60ccccccccf0fp+5, 0x1.7ae8000000004p+17, 0x1.205e0983fd1b1p+19,
      0x1.114bcb2e6def2p+5, 0x1.c61192983bcedp-1, 0x1.16b3b5ba73daep+2,
      0x1.69bdef79fd866p-1, 0x0p+0, 0x0p+0,
      0x1.7e9ce0303fa81p+10, 0x1.1f9ebb13e4f71p+19},
     0x1.abefa72a2b047p+14,
     {0x1.74eaf325904fbp+14, 0x1.74eaf325904fbp+14, 0x1.b580000000006p+12,
      0x1.74eaf325904fbp+14, 0x1.74eaf325904fbp+14, 0x1.6e211f9e1f114p+14,
      0x1.6e211f9e1f114p+14, 0x1.6e211f9e1f114p+14, 0x1.6ae65d9584374p+14,
      0x1.b580000000006p+12, 0x1.6ae65d9584374p+14},
     0x558ced0157229d16ull},
    {"fair",
     {0x1.8p+1, 0x1.df5cc7b421b68p+19, 0x1.d5a46623b27efp+19,
      0x1.60ccccccccf0fp+5, 0x1.7ae8000000004p+17, 0x1.1238e0e3c7758p+18,
      0x1.7ee9c36b88764p+6, 0x1.f9930690ebd42p-1, 0x1.c07898d1f766dp+1,
      0x1.e259aef669bb6p-2, 0x0p+0, 0x0p+0,
      0x1.48901f53e58fcp+10, 0x1.10f050c47390ep+18},
     0x1.1b4cc67039a55p+14,
     {0x1.6c8ebe246d33ep+14, 0x1.6c8ebe246d33ep+14, 0x1.b580000000006p+12,
      0x1.6c8ebe246d33ep+14, 0x1.6c8ebe246d33ep+14, 0x1.5d24fc55cac5ap+14,
      0x1.5d24fc55cac5ap+14, 0x1.5d24fc55cac5ap+14, 0x1.5c95be07157d8p+14,
      0x1.b580000000006p+12, 0x1.5c95be07157d8p+14},
     0x7680887865d4efd4ull},
    {"priority",
     {0x1.8p+1, 0x1.7b4d5dec161d2p+20, 0x1.7388a1d49a881p+20,
      0x1.60ccccccccf0fp+5, 0x1.7ae8000000004p+17, 0x1.12697674e0fedp+19,
      0x1.16d27209b7c9ep+7, 0x1.fe612ce2326d5p-1, 0x1.06881e774cafcp+2,
      0x1.5c1d3b8a8b393p-1, 0x0p+0, 0x0p+0,
      0x1.26a2d9cd6a59dp+3, 0x1.12684fd207311p+19},
     0x1.9496ca956cd92p+14,
     {0x1.71c6bbde77befp+14, 0x1.71c6bbde77befp+14, 0x1.b580000000006p+12,
      0x1.71c6bbde77befp+14, 0x1.71c6bbde77befp+14, 0x1.6b8814f721a26p+14,
      0x1.6b8814f721a26p+14, 0x1.6b8814f721a26p+14, 0x1.6887c10c6cfd9p+14,
      0x1.b580000000006p+12, 0x1.6887c10c6cfd9p+14},
     0x0cbd84480c757d83ull},
    {"lossy",
     {0x1.8p+1, 0x1.8d62f5c845692p+20, 0x1.8bf9f5b19e91cp+20,
      0x1.60ccccccccf0fp+5, 0x1.7ae8000000004p+17, 0x1.d40b9fbeb1829p+18,
      0x1.eade14bb50b5ap+4, 0x1.bd0328c334aa1p-1, 0x1.0e40b7914b91fp+2,
      0x1.52dbc06d0f245p-1, 0x0p+0, 0x1.3de8c4a037576p+17,
      0x1.1fafdf156ff18p+10, 0x1.d2ebefdf9c11bp+18},
     0x1.a7e1062af487p+14,
     {0x1.74ec1901644bfp+14, 0x1.74ec1901644bfp+14, 0x1.b580000000006p+12,
      0x1.74ec1901644bfp+14, 0x1.74ec1901644bfp+14, 0x1.6e197b3469b96p+14,
      0x1.6e197b3469b96p+14, 0x1.6e197b3469b96p+14, 0x1.6b0b84aa74404p+14,
      0x1.b580000000006p+12, 0x1.6b0b84aa74404p+14},
     0x4d1ec71a2fa851d2ull},
    {"duplicating",
     {0x1.8p+1, 0x1.94c9b10c26dd4p+20, 0x1.9331eab372732p+20,
      0x1.60ccccccccf0fp+5, 0x1.7ae8000000004p+17, 0x1.590390c754289p+19,
      0x1.2dd185299681fp+5, 0x1.cdeccb3c03958p-1, 0x1.25f900117df94p+2,
      0x1.7fc39c533a245p-1, 0x0p+0, 0x0p+0,
      0x1.e8dc76d6adb67p+10, 0x1.580f228be8d61p+19},
     0x1.afc6122f185a3p+14,
     {0x1.74ecc209f990dp+14, 0x1.74ecc209f990dp+14, 0x1.b580000000006p+12,
      0x1.74ecc209f990dp+14, 0x1.74ecc209f990dp+14, 0x1.6e27535b67d5p+14,
      0x1.6e27535b67d5p+14, 0x1.6e27535b67d5p+14, 0x1.6ac83efb1b459p+14,
      0x1.b580000000006p+12, 0x1.6ac83efb1b459p+14},
     0x0b6ca35823935661ull},
    {"ttl1",
     {0x1.8p+1, 0x1.7b6b8ccccdfd8p+17, 0x1.7ae800000001ap+17,
      0x1.60ccccccccf0fp+5, 0x1.7ae8000000004p+17, 0x1.5fa6cccccccb4p+16,
      0x1.6d464ef45697p+2, 0x1.0296cbda5b93ap-1, 0x1.ef352562ba4e6p+1,
      0x1.1ca5404f33d3ep-4, 0x0p+0, 0x0p+0,
      0x1.6ce4e6411fp+3, 0x1.5f9b65a59ac49p+16},
     0x1.94b6fc962fdp+11,
     {0x1.388p+14, 0x1.388p+14, 0x1.b580000000006p+12, 0x1.388p+14,
      0x1.388p+14, 0x1.388p+14, 0x1.388p+14, 0x1.388p+14, 0x1.388p+14,
      0x1.b580000000006p+12, 0x1.388p+14},
     0x078b2629abccbfa1ull},
    // Floods cover this overlay before their last hop, so the calibration
    // forwards nothing into hop 8 and ttl 8 reproduces the pooled ttl-7
    // values; its issuance still fills the last TTL entry of every link.
    {"ttl8",
     {0x1.8p+1, 0x1.9130acb788209p+20, 0x1.8fb051b35ba6fp+20,
      0x1.60ccccccccf0fp+5, 0x1.7ae8000000004p+17, 0x1.205e0983fd1b1p+19,
      0x1.114bcb2e6def2p+5, 0x1.c61192983bcedp-1, 0x1.16b3b5ba73daep+2,
      0x1.69bdef79fd866p-1, 0x0p+0, 0x0p+0,
      0x1.7e9ce0303fa81p+10, 0x1.1f9ebb13e4f71p+19},
     0x1.abefa72a2b047p+14,
     {0x1.74eaf325904fbp+14, 0x1.74eaf325904fbp+14, 0x1.b580000000006p+12,
      0x1.74eaf325904fbp+14, 0x1.74eaf325904fbp+14, 0x1.6e211f9e1f114p+14,
      0x1.6e211f9e1f114p+14, 0x1.6e211f9e1f114p+14, 0x1.6ae65d9584374p+14,
      0x1.b580000000006p+12, 0x1.6ae65d9584374p+14},
     0x0517a3712fbf1cd2ull},
  };
  for (const PinnedMode& m : modes) {
    SCOPED_TRACE(m.name);
    const PinnedOutputs o = run_pinned(pinned_config(m.name));
    const MinuteReport& r = o.report;
    const MinuteReport& e = m.report;
    EXPECT_EQ(r.minute, e.minute);
    EXPECT_EQ(r.traffic_messages, e.traffic_messages);
    EXPECT_EQ(r.attack_messages, e.attack_messages);
    EXPECT_EQ(r.good_issued, e.good_issued);
    EXPECT_EQ(r.attack_issued, e.attack_issued);
    EXPECT_EQ(r.dropped, e.dropped);
    EXPECT_EQ(r.reach_per_query, e.reach_per_query);
    EXPECT_EQ(r.success_rate, e.success_rate);
    EXPECT_EQ(r.response_time, e.response_time);
    EXPECT_EQ(r.mean_utilization, e.mean_utilization);
    EXPECT_EQ(r.overhead_messages, e.overhead_messages);
    EXPECT_EQ(r.transport_lost, e.transport_lost);
    EXPECT_EQ(r.dropped_good, e.dropped_good);
    EXPECT_EQ(r.dropped_attack, e.dropped_attack);
    EXPECT_EQ(o.in_flight, m.in_flight);
    EXPECT_EQ(o.agent_sent, m.agent_sent);
    EXPECT_EQ(o.state_hash, m.state_hash);
  }
}

// Mid-minute rewiring pinned bit-for-bit. Scenario runs change the graph
// only in the minute hooks, right after the rotation zeroed every running
// per-link counter, so they never carry a link's running minute across a
// topology change or tick a recycled slot with half a minute behind it.
// Here, 1.5 minutes into the pooled run, links are cut (one of them an
// agent's), new links recycle the freed slots, one link is added through
// the graph alone with no on_edge_added, and a peer next to an agent goes
// offline. The state hash is pinned right after the rewiring, before any
// tick, and at minute 2, where the cut minute's counters have completed;
// the outputs are pinned again at minute 3.
TEST(FlowPinned, MidMinuteRewiringMatchesRecordedValues) {
  util::Rng rng(77);
  World w(topology::paper_topology(150, rng), FlowConfig{}, 5);
  for (const PeerId a : kPinnedAgents) w.net->set_kind(a, PeerKind::kBad);
  w.net->run_minutes(1.5);

  // The first peer after `p` that is active and not yet p's neighbour.
  const auto stranger = [&w](PeerId p) {
    PeerId q = (p + 1) % 150;
    while (!w.graph.is_active(q) || q == p || w.graph.has_edge(p, q)) {
      q = (q + 1) % 150;
    }
    return q;
  };
  for (const PeerId p : {PeerId{12}, PeerId{40}, PeerId{77}}) {
    w.net->disconnect(p, w.graph.neighbors(p).front());
  }
  for (const PeerId p : {PeerId{5}, PeerId{60}, PeerId{101}}) {
    const PeerId q = stranger(p);
    ASSERT_TRUE(w.graph.add_edge(p, q));
    w.net->on_edge_added(p, q);
  }
  ASSERT_TRUE(w.net->mutable_graph().add_edge(90, stranger(90)));
  const PeerId offline = w.graph.neighbors(140).back();
  w.net->on_peer_offline(offline);
  w.graph.set_active(offline, false);
  EXPECT_EQ(saved_state_hash(*w.net), 0x055296328d827fdcull);

  w.net->run_until_minute(2.0);
  EXPECT_EQ(saved_state_hash(*w.net), 0xd7de7476cfd51162ull);

  w.net->run_until_minute(3.0);
  const MinuteReport& r = w.net->last_minute_report();
  const std::vector<double> report = {
      r.minute,           r.traffic_messages,  r.attack_messages,
      r.good_issued,      r.attack_issued,     r.dropped,
      r.reach_per_query,  r.success_rate,      r.response_time,
      r.mean_utilization, r.overhead_messages, r.transport_lost,
      r.dropped_good,     r.dropped_attack};
  EXPECT_EQ(report,
            (std::vector<double>{
                0x1.8p+1, 0x1.6cb77330acd22p+20, 0x1.6b11fbf79fe6ap+20,
                0x1.5e66666666893p+5, 0x1.53d8p+17, 0x1.f5173e3c48961p+18,
                0x1.2e1876314b01p+5, 0x1.cdff0dc6a7fc7p-1,
                0x1.0d56c3691d29fp+2, 0x1.52d213f622f1p-1, 0x0p+0, 0x0p+0,
                0x1.764f1bb10e589p+10, 0x1.f3a0ef2097873p+18}));
  EXPECT_EQ(w.net->total_in_flight(), 0x1.8507f24c0d014p+14);
  std::vector<double> agent_sent;
  for (const PeerId a : kPinnedAgents) {
    for (const PeerId q : w.graph.neighbors(a)) {
      agent_sent.push_back(w.net->sent_last_minute(a, q));
    }
  }
  EXPECT_EQ(agent_sent,
            (std::vector<double>{
                0x1.70f7eb4ad21bap+14, 0x1.70f7eb4ad21bap+14,
                0x1.b580000000006p+12, 0x1.70f7eb4ad21bap+14,
                0x1.74ea4a21875c2p+14, 0x1.74ea4a21875c2p+14,
                0x1.74ea4a21875c2p+14, 0x1.74ea4a21875c2p+14,
                0x1.5232e9641ba04p+14, 0x1.b580000000006p+12}));
  EXPECT_EQ(saved_state_hash(*w.net), 0xaeda3d5523153f91ull);
}

// The damping calibration pinned bit-for-bit. FlowNetwork::save holds the
// coverage profile, the per-hop damping, the calibration minute and the
// rng position, so saved_state_hash covers every calibration output and
// the draws it made. Each mode is hashed right after
// construction and again after an in-run recalibration on a churned
// overlay: a tenth of the peers offline, some isolated and some cut to
// degree 1. TTLs 1, 7 and 8 cover the empty, the paper's and the longest
// impulse; the sample counts fall on both sides of a 64-origin batch and
// of the active count (where average_coverage floods every origin).
struct CalibrationPin {
  std::size_t ttl;
  std::size_t samples;
  std::uint64_t built;         ///< after the constructor's calibration
  std::uint64_t recalibrated;  ///< after the in-run one on the churned graph
};

TEST(FlowPinned, CalibrationMatchesRecordedValues) {
  constexpr std::size_t kPeers = 240;
  const std::vector<CalibrationPin> pins = {
    {1, 1, 0x54739e2ccdc72ae7ull, 0x2536f62387559713ull},
    {1, 64, 0x8c34f2c126671eb7ull, 0xc0ea1554629828e2ull},
    {1, 65, 0x34d420a3366ba88aull, 0x688e90ef4323b9f2ull},
    {1, 300, 0xc556fd84aec8485bull, 0xb7320e4e9cadb663ull},
    {7, 1, 0x59a207b6c44e5cb7ull, 0x79ef8cb81ec4596bull},
    {7, 64, 0xaaddca434b202c56ull, 0x47c22e6fbb006a0dull},
    {7, 65, 0xc63ba012d29126e5ull, 0x95e6b8b1b2687af1ull},
    {7, 300, 0xe993f33681fa1fcbull, 0x5d508ee568f64296ull},
    {8, 1, 0x19d3635fbfe821a5ull, 0xb44dd6b7ea585e24ull},
    {8, 64, 0x9f83fd1316f92a42ull, 0x8bfdbe0c647a6097ull},
    {8, 65, 0x8a07f6f30b22cef2ull, 0xfb9710012b616471ull},
    {8, 300, 0x4acf22b2ed582aafull, 0xe33d40f01cfb32fbull},
  };
  for (const CalibrationPin& pin : pins) {
    SCOPED_TRACE("ttl " + std::to_string(pin.ttl) + ", samples " +
                 std::to_string(pin.samples));
    FlowConfig cfg;
    cfg.ttl = pin.ttl;
    cfg.calibration_samples = pin.samples;
    cfg.recalibrate_minutes = 1.0;
    util::Rng rng(91);
    World w(topology::paper_topology(kPeers, rng), cfg, 13);
    w.net->set_kind(7, PeerKind::kBad);
    EXPECT_EQ(saved_state_hash(*w.net), pin.built);

    for (PeerId p = 0; p < kPeers; p += 10) {
      w.net->on_peer_offline(p);
      w.graph.set_active(p, false);
    }
    for (PeerId p = 5; p < kPeers; p += 40) w.net->on_peer_offline(p);
    for (PeerId p = 25; p < kPeers; p += 40) {
      while (w.graph.degree(p) > 1) {
        w.net->disconnect(p, w.graph.neighbors(p).front());
      }
    }
    w.net->run_minutes(1.0);
    EXPECT_EQ(w.net->minute_history().size(), 1u);
    EXPECT_EQ(saved_state_hash(*w.net), pin.recalibrated);
  }
}

}  // namespace
}  // namespace ddp::flow
