// Property-based tests: randomized invariants that must hold across the
// whole parameter space — codec robustness under fuzzed input, graph
// invariants under random mutation, monitor-window equivalence against a
// brute-force oracle, flow-engine conservation laws, cross-engine
// agreement, and protocol quiescence on honest overlays.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <tuple>

#include "core/ddpolice.hpp"
#include "flow/flow_port.hpp"
#include "experiments/scenario.hpp"
#include "flow/network.hpp"
#include "net/message.hpp"
#include "p2p/network.hpp"
#include "topology/coverage.hpp"
#include "topology/generators.hpp"
#include "util/rate_window.hpp"
#include "util/rng.hpp"

namespace ddp {
namespace {

// ------------------------------------------------------------ codec fuzz

TEST(Property, DecoderNeverCrashesOnRandomBytes) {
  util::Rng rng(1);
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<std::uint8_t> buf(rng.below(64));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.below(256));
    (void)net::decode(buf);  // must not crash; success is fine but rare
  }
}

TEST(Property, DecoderNeverCrashesOnCorruptedValidMessages) {
  util::Rng rng(2);
  net::Message m;
  m.header.guid = net::Guid::random(rng);
  m.payload = net::Query{0, "corrupt me"};
  const auto clean = net::encode(m);
  for (int trial = 0; trial < 5000; ++trial) {
    auto buf = clean;
    // Flip 1-4 random bytes.
    const std::uint32_t flips = 1 + rng.below(4);
    for (std::uint32_t f = 0; f < flips; ++f) {
      buf[rng.below(static_cast<std::uint32_t>(buf.size()))] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    std::string err;
    const auto out = net::decode(buf, &err);
    if (out) {
      // If it decodes, the framing must be self-consistent.
      EXPECT_EQ(out->header.payload_length + net::kHeaderSize, buf.size());
    }
  }
}

TEST(Property, EncodeDecodeIdentityUnderRandomQueries) {
  util::Rng rng(3);
  for (int trial = 0; trial < 500; ++trial) {
    net::Message m;
    m.header.guid = net::Guid::random(rng);
    m.header.ttl = static_cast<std::uint8_t>(rng.below(16));
    m.header.hops = static_cast<std::uint8_t>(rng.below(16));
    std::string s;
    const std::uint32_t len = rng.below(40);
    for (std::uint32_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>('a' + rng.below(26)));
    }
    m.payload = net::Query{static_cast<std::uint16_t>(rng.below(65536)), s};
    const auto out = net::decode(net::encode(m));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(std::get<net::Query>(out->payload).search, s);
    EXPECT_EQ(out->header.ttl, m.header.ttl);
  }
}

// ------------------------------------------------------- graph invariants

TEST(Property, GraphInvariantsUnderRandomMutation) {
  util::Rng rng(4);
  topology::Graph g(40);
  for (int op = 0; op < 20000; ++op) {
    const auto a = static_cast<PeerId>(rng.below(40));
    const auto b = static_cast<PeerId>(rng.below(40));
    switch (rng.below(4)) {
      case 0: g.add_edge(a, b); break;
      case 1: g.remove_edge(a, b); break;
      case 2: g.set_active(a, rng.chance(0.8)); break;
      case 3: g.isolate(a); break;
    }
  }
  // Invariant 1: adjacency is symmetric, loop-free and duplicate-free.
  std::size_t degree_sum = 0;
  for (PeerId u = 0; u < g.node_count(); ++u) {
    std::vector<PeerId> nbrs(g.neighbors(u).begin(), g.neighbors(u).end());
    degree_sum += nbrs.size();
    std::sort(nbrs.begin(), nbrs.end());
    EXPECT_TRUE(std::adjacent_find(nbrs.begin(), nbrs.end()) == nbrs.end());
    for (PeerId v : nbrs) {
      EXPECT_NE(v, u);
      EXPECT_TRUE(g.has_edge(v, u));
    }
  }
  // Invariant 2: handshake identity (sum of degrees = 2|E|).
  EXPECT_EQ(degree_sum, 2 * g.edge_count());
  // Invariant 3: inactive nodes have no edges.
  for (PeerId u = 0; u < g.node_count(); ++u) {
    if (!g.is_active(u)) {
      EXPECT_EQ(g.degree(u), 0u);
    }
  }
}

// ----------------------------------------------------- rate-window oracle

TEST(Property, RateWindowMatchesBruteForceOracle) {
  util::Rng rng(5);
  util::RateWindow w(60.0, 60);
  std::deque<std::pair<double, double>> oracle;  // (time, count)
  double t = 0.0;
  for (int i = 0; i < 20000; ++i) {
    t += rng.exponential(0.7);
    const double c = 1.0 + rng.below(5);
    w.add(t, c);
    oracle.emplace_back(t, c);
    if (i % 50 == 0) {
      // Oracle: bucketized exactly like the window (1 s sub-buckets), so
      // the comparison is exact rather than approximate.
      const auto head = std::floor(t);
      double expect = 0.0;
      for (const auto& [ot, oc] : oracle) {
        if (std::floor(ot) > head - 60.0) expect += oc;
      }
      EXPECT_NEAR(w.total(t), expect, 1e-6) << "at t=" << t;
    }
    while (!oracle.empty() && oracle.front().first < t - 120.0) {
      oracle.pop_front();
    }
  }
}

// ------------------------------------------------- flow conservation laws

class FlowConservationTest
    : public ::testing::TestWithParam<std::tuple<topology::Model, int>> {};

TEST_P(FlowConservationTest, TrafficBoundedAndCountersConsistent) {
  const auto [model, seed] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed));
  topology::GeneratorConfig tc;
  tc.model = model;
  tc.nodes = 150;
  topology::Graph g = topology::generate(tc, rng);
  util::Rng bw_rng = rng.fork("bw");
  const topology::BandwidthMap bw(150, bw_rng);
  workload::ContentConfig cc;
  const workload::ContentModel content(cc, 150);
  flow::FlowConfig fc;
  fc.bandwidth_limits = false;
  flow::FlowNetwork net(g, bw, content, fc, rng.fork("flow"));
  for (PeerId a = 0; a < 3; ++a) net.set_kind(a, PeerKind::kBad);
  net.run_minutes(3.0);

  const auto& r = net.last_minute_report();
  // Conservation: a query visits at most every peer once; per-minute
  // traffic cannot exceed (issued queries) x (peers x degree) transmissions.
  const double issued = r.good_issued + r.attack_issued;
  EXPECT_GT(issued, 0.0);
  EXPECT_LT(r.traffic_messages, issued * 150.0 * 7.0);
  // Reach per query is bounded by the population.
  EXPECT_LE(r.reach_per_query, 150.0);
  EXPECT_GE(r.reach_per_query, 1.0);
  // Success and utilization are probabilities.
  EXPECT_GE(r.success_rate, 0.0);
  EXPECT_LE(r.success_rate, 1.0);
  EXPECT_GE(r.mean_utilization, 0.0);
  EXPECT_LE(r.mean_utilization, 1.0);
  // Attack traffic is part of total traffic.
  EXPECT_LE(r.attack_messages, r.traffic_messages + 1e-9);
  // Monitors: what the engine says peer u sent v is non-negative and
  // finite everywhere.
  for (PeerId u = 0; u < 150; ++u) {
    for (PeerId v : net.graph().neighbors(u)) {
      const double q = net.sent_last_minute(u, v);
      EXPECT_GE(q, 0.0);
      EXPECT_LT(q, 1e7);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsSeeds, FlowConservationTest,
    ::testing::Combine(::testing::Values(topology::Model::kBarabasiAlbert,
                                         topology::Model::kWaxman,
                                         topology::Model::kErdosRenyi),
                       ::testing::Values(1, 2, 3, 4)));

// -------------------------------------------------- cross-engine agreement

class CrossEngineTest : public ::testing::TestWithParam<int> {};

TEST_P(CrossEngineTest, MessagesPerFloodAgreeOnIdleOverlay) {
  // The packet engine counts a real flood's transmissions; the flow
  // engine's calibrated aggregate must land close for the same topology.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  topology::Graph g = topology::paper_topology(120, rng);

  // Packet engine: one flood, exact message count.
  workload::ContentConfig cc;
  cc.mean_replicas = 0.0;
  const workload::ContentModel content(cc, 120);
  sim::Engine engine;
  p2p::P2pConfig pc;
  p2p::PacketNetwork pnet(g, content, engine, pc, rng.fork("p2p"));
  pnet.issue_query(0, 1);
  engine.run_until(60.0);
  const double packet_msgs = static_cast<double>(pnet.totals().messages_sent);

  // Flow engine: steady state messages per issued query.
  util::Rng rng2(static_cast<std::uint64_t>(GetParam()));
  topology::Graph g2 = topology::paper_topology(120, rng2);
  util::Rng bw_rng = rng2.fork("bw");
  const topology::BandwidthMap bw(120, bw_rng);
  const workload::ContentModel content2(cc, 120);
  flow::FlowConfig fc;
  fc.bandwidth_limits = false;
  flow::FlowNetwork fnet(g2, bw, content2, fc, rng2.fork("flow"));
  fnet.run_minutes(3.0);
  const auto& r = fnet.last_minute_report();
  const double flow_msgs = r.traffic_messages / r.good_issued;

  // Single-origin floods vary with the origin's degree; the flow engine
  // models the origin-averaged flood, so compare within a loose band.
  EXPECT_NEAR(flow_msgs, packet_msgs, packet_msgs * 0.35)
      << "packet=" << packet_msgs << " flow=" << flow_msgs;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossEngineTest, ::testing::Values(1, 2, 3, 4, 5));

// -------------------------------------------------- protocol quiescence

class QuiescenceTest
    : public ::testing::TestWithParam<std::tuple<topology::Model, int>> {};

TEST_P(QuiescenceTest, NoDecisionsOnHonestOverlay) {
  // Property: whatever the topology and seed, an overlay with no
  // compromised peers and no churn never triggers a disconnect.
  const auto [model, seed] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed) * 71 + 5);
  topology::GeneratorConfig tc;
  tc.model = model;
  tc.nodes = 120;
  topology::Graph g = topology::generate(tc, rng);
  util::Rng bw_rng = rng.fork("bw");
  const topology::BandwidthMap bw(120, bw_rng);
  workload::ContentConfig cc;
  const workload::ContentModel content(cc, 120);
  flow::FlowConfig fc;
  fc.bandwidth_limits = false;
  flow::FlowNetwork net(g, bw, content, fc, rng.fork("flow"));
  flow::FlowPort port(net);
  core::DdPoliceConfig cfg;
  core::DdPolice police(port, cfg, rng.fork("ddp"));
  net.add_minute_hook([&](double m) { police.on_minute(m); });
  net.run_minutes(6.0);
  EXPECT_TRUE(police.decisions().empty());
}

INSTANTIATE_TEST_SUITE_P(
    ModelsSeeds, QuiescenceTest,
    ::testing::Combine(::testing::Values(topology::Model::kBarabasiAlbert,
                                         topology::Model::kWaxman,
                                         topology::Model::kErdosRenyi),
                       ::testing::Values(1, 2, 3)));

// ------------------------------------------- detection universality

class DetectionTest : public ::testing::TestWithParam<int> {};

TEST_P(DetectionTest, SingleAgentAlwaysIsolated) {
  // Property: a full-rate agent on a static honest overlay is always
  // fully isolated within a few minutes, for any seed.
  const int seed = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed) * 13 + 1);
  topology::Graph g = topology::paper_topology(100, rng);
  util::Rng bw_rng = rng.fork("bw");
  const topology::BandwidthMap bw(100, bw_rng);
  workload::ContentConfig cc;
  const workload::ContentModel content(cc, 100);
  flow::FlowConfig fc;
  fc.bandwidth_limits = false;
  flow::FlowNetwork net(g, bw, content, fc, rng.fork("flow"));
  flow::FlowPort port(net);
  core::DdPoliceConfig cfg;
  core::DdPolice police(port, cfg, rng.fork("ddp"));
  net.add_minute_hook([&](double m) { police.on_minute(m); });
  const auto agent = static_cast<PeerId>(rng.below(100));
  net.set_kind(agent, PeerKind::kBad);
  net.run_minutes(5.0);
  EXPECT_EQ(net.graph().degree(agent), 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectionTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ------------------------------------- determinism under fault injection

class FaultDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(FaultDeterminismTest, SameSeedSameFaultsSameRun) {
  // Property: fault injection is part of the deterministic simulation, not
  // noise on top of it. Two runs with identical seed and fault config must
  // agree event for event — same decision log, same fault tallies, same
  // averaged metrics — or fault ablations would not be reproducible.
  const int seed = GetParam();
  experiments::ScenarioConfig cfg = experiments::paper_scenario(
      300, 8, defense::Kind::kDdPolice, static_cast<std::uint64_t>(seed) * 977 + 11);
  cfg.total_minutes = 10.0;
  cfg.fault.channel.drop_probability = 0.2;
  cfg.fault.channel.corrupt_probability = 0.05;
  cfg.fault.channel.delay_jitter_seconds = 3.0;
  cfg.fault.peer.crash_probability_per_minute = 0.002;
  cfg.fault.peer.stall_probability_per_minute = 0.01;

  const auto a = experiments::run_scenario(cfg);
  const auto b = experiments::run_scenario(cfg);

  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (std::size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(a.decisions[i].minute, b.decisions[i].minute);
    EXPECT_EQ(a.decisions[i].judge, b.decisions[i].judge);
    EXPECT_EQ(a.decisions[i].suspect, b.decisions[i].suspect);
    EXPECT_EQ(a.decisions[i].g, b.decisions[i].g);
    EXPECT_EQ(a.decisions[i].s, b.decisions[i].s);
  }
  EXPECT_EQ(a.fault_control.timeouts, b.fault_control.timeouts);
  EXPECT_EQ(a.fault_control.retries, b.fault_control.retries);
  EXPECT_EQ(a.fault_control.late_replies, b.fault_control.late_replies);
  EXPECT_EQ(a.fault_control.corrupt_rejects, b.fault_control.corrupt_rejects);
  EXPECT_EQ(a.fault_channel.transfers, b.fault_channel.transfers);
  EXPECT_EQ(a.fault_channel.dropped, b.fault_channel.dropped);
  EXPECT_EQ(a.fault_crashes, b.fault_crashes);
  EXPECT_EQ(a.fault_stalls, b.fault_stalls);
  // Exact double equality on purpose: bit-for-bit reproducibility.
  EXPECT_EQ(a.summary.avg_success_rate, b.summary.avg_success_rate);
  EXPECT_EQ(a.summary.avg_response_time, b.summary.avg_response_time);
  EXPECT_EQ(a.errors.false_negative, b.errors.false_negative);
  EXPECT_EQ(a.errors.false_positive, b.errors.false_positive);
  // And the faults were actually exercised, not vacuously zero.
  EXPECT_GT(a.fault_channel.transfers, 0u);
  EXPECT_GT(a.fault_control.retries, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultDeterminismTest, ::testing::Values(1, 2));

}  // namespace
}  // namespace ddp
