// Topology substrate tests: dynamic graph invariants, BRITE-replacement
// generators (degree targets, connectivity, heavy tails), the
// measurement-derived bandwidth model, and exact flood-coverage profiles
// on analytically known graphs.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "snapshot/snapshot.hpp"
#include "topology/bandwidth.hpp"
#include "topology/coverage.hpp"
#include "topology/generators.hpp"
#include "topology/graph.hpp"
#include "util/rng.hpp"

namespace ddp::topology {
namespace {

// ---------------------------------------------------------------- graph

TEST(Graph, AddRemoveEdgeInvariants) {
  Graph g(4);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(0, 1));  // duplicate
  EXPECT_FALSE(g.add_edge(1, 0));  // same edge, reversed
  EXPECT_FALSE(g.add_edge(2, 2));  // self loop
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.remove_edge(1, 0));
  EXPECT_FALSE(g.remove_edge(0, 1));  // already gone
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.degree(0), 0u);
}

TEST(Graph, NeighborsSpanReflectsEdges) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  auto nbrs = g.neighbors(0);
  std::vector<PeerId> v(nbrs.begin(), nbrs.end());
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<PeerId>{1, 2, 3}));
}

TEST(Graph, IsolateRemovesAllEdges) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.isolate(0);
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(Graph, DeactivationRemovesEdgesAndCounts) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.set_active(1, false);
  EXPECT_FALSE(g.is_active(1));
  EXPECT_EQ(g.active_count(), 2u);
  EXPECT_EQ(g.edge_count(), 0u);
  g.set_active(1, true);
  EXPECT_TRUE(g.is_active(1));
  EXPECT_EQ(g.degree(1), 0u);  // comes back isolated
}

TEST(Graph, AddNodeGrows) {
  Graph g(2);
  const PeerId p = g.add_node();
  EXPECT_EQ(p, 2u);
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_TRUE(g.is_active(p));
}

TEST(Graph, HopDistance) {
  Graph g(5);  // line 0-1-2-3-4
  for (PeerId i = 0; i + 1 < 5; ++i) g.add_edge(i, i + 1);
  EXPECT_EQ(g.hop_distance(0, 4), 4);
  EXPECT_EQ(g.hop_distance(0, 0), 0);
  EXPECT_EQ(g.hop_distance(4, 0), 4);
  g.set_active(2, false);
  EXPECT_EQ(g.hop_distance(0, 4), -1);
}

TEST(Graph, ConnectivityOverActive) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);  // second component; node 5 isolated (ignored)
  EXPECT_FALSE(g.is_connected_over_active());
  g.add_edge(2, 3);
  EXPECT_TRUE(g.is_connected_over_active());
}

TEST(Graph, RandomActiveNodeRespectsExclusion) {
  Graph g(3);
  g.set_active(0, false);
  util::Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const PeerId p = g.random_active_node(rng, 1);
    EXPECT_EQ(p, 2u);
  }
}

TEST(Graph, RandomActiveNodeNoneLeft) {
  Graph g(1);
  util::Rng rng(2);
  EXPECT_EQ(g.random_active_node(rng, 0), kInvalidPeer);
  Graph empty(0);
  EXPECT_EQ(empty.random_active_node(rng), kInvalidPeer);
}

TEST(Graph, DegreeBiasedSelectionPrefersHubs) {
  Graph g(11);
  for (PeerId i = 1; i <= 10; ++i) g.add_edge(0, i);  // star: hub 0
  util::Rng rng(3);
  int hub = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (g.random_active_node_by_degree(rng) == 0) ++hub;
  }
  // Hub weight 11 of (11 + 10*2) = ~35%; uniform would be ~9%.
  EXPECT_GT(hub, n / 5);
}

TEST(Graph, DegreeHistogramAndAverage) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  const auto h = g.degree_histogram();
  ASSERT_GE(h.size(), 4u);
  EXPECT_EQ(h[1], 3u);
  EXPECT_EQ(h[3], 1u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 1.5);
}

// random_active_node_by_degree as it was before the graph kept per-degree
// counts: the ceiling comes from a scan of every peer on each call.
PeerId by_degree_with_scan(const Graph& g, util::Rng& rng, PeerId exclude) {
  std::size_t max_deg = 0;
  for (PeerId u = 0; u < g.node_count(); ++u) {
    if (g.is_active(u)) max_deg = std::max(max_deg, g.degree(u));
  }
  const double ceiling = static_cast<double>(max_deg) + 1.0;
  for (int attempts = 0; attempts < 65536; ++attempts) {
    const PeerId u = g.random_active_node(rng, exclude);
    if (u == kInvalidPeer) return kInvalidPeer;
    const double w = static_cast<double>(g.degree(u)) + 1.0;
    if (rng.uniform() * ceiling <= w) return u;
  }
  return g.random_active_node(rng, exclude);
}

std::vector<std::size_t> scanned_histogram(const Graph& g) {
  std::vector<std::size_t> hist;
  for (PeerId u = 0; u < g.node_count(); ++u) {
    if (!g.is_active(u)) continue;
    if (g.degree(u) >= hist.size()) hist.resize(g.degree(u) + 1, 0);
    ++hist[g.degree(u)];
  }
  return hist;
}

TEST(Graph, DegreeCountsMatchAFullScanThroughChurn) {
  util::Rng topo_rng(11);
  Graph g = paper_topology(120, topo_rng);
  util::Rng script(5);
  util::Rng kept(9);
  util::Rng scanned(9);
  int max_fell = 0;  // steps that lowered the largest active degree
  for (int step = 0; step < 3000; ++step) {
    const std::size_t max_before = g.degree_histogram().size();
    const auto u = static_cast<PeerId>(script.below(120));
    switch (script.below(5)) {
      case 0: g.add_edge(u, static_cast<PeerId>(script.below(120))); break;
      case 1:
        if (g.degree(u) > 0) g.remove_edge(u, g.neighbors(u)[0]);
        break;
      case 2: g.set_active(u, false); break;
      case 3: g.set_active(u, true); break;
      default:  // grow a hub, often past the current maximum
        for (PeerId w = 0; w < 120; w += 7) g.add_edge(u, w);
        break;
    }
    if (step % 100 == 99) {  // save -> load into a fresh graph
      snapshot::Writer w;
      w.begin_section(snapshot::section_id("GRPH"));
      g.save(w);
      w.end_section();
      snapshot::Reader r = snapshot::Reader::from_bytes(w.finish(0));
      r.begin_section(snapshot::section_id("GRPH"));
      Graph loaded;
      loaded.load(r);
      r.end_section();
      g = std::move(loaded);
    }
    if (g.degree_histogram().size() < max_before) ++max_fell;
    ASSERT_EQ(g.degree_histogram(), scanned_histogram(g)) << "step " << step;
    const PeerId exclude = step % 3 == 0 ? kInvalidPeer : u;
    ASSERT_EQ(g.random_active_node_by_degree(kept, exclude),
              by_degree_with_scan(g, scanned, exclude))
        << "step " << step;
    ASSERT_EQ(kept.next_u64(), scanned.next_u64()) << "step " << step;
  }
  EXPECT_GT(max_fell, 0);
  EXPECT_LT(g.active_count(), g.node_count());
}

// ----------------------------------------------------------- generators

class GeneratorTest
    : public ::testing::TestWithParam<std::tuple<Model, std::size_t, int>> {};

std::string generator_test_name(
    const ::testing::TestParamInfo<std::tuple<Model, std::size_t, int>>& info) {
  const Model model = std::get<0>(info.param);
  const std::size_t nodes = std::get<1>(info.param);
  const int seed = std::get<2>(info.param);
  const std::string name = model == Model::kBarabasiAlbert ? "BA"
                           : model == Model::kWaxman       ? "Waxman"
                                                           : "ER";
  return name + "_" + std::to_string(nodes) + "_s" + std::to_string(seed);
}

TEST_P(GeneratorTest, ConnectedWithTargetDegree) {
  const auto [model, nodes, seed] = GetParam();
  GeneratorConfig cfg;
  cfg.model = model;
  cfg.nodes = nodes;
  util::Rng rng(static_cast<std::uint64_t>(seed));
  const Graph g = generate(cfg, rng);
  EXPECT_EQ(g.node_count(), nodes);
  EXPECT_TRUE(g.is_connected_over_active());
  EXPECT_NEAR(g.average_degree(), 6.0, 1.5);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndSizes, GeneratorTest,
    ::testing::Combine(::testing::Values(Model::kBarabasiAlbert, Model::kWaxman,
                                         Model::kErdosRenyi),
                       ::testing::Values(std::size_t{200}, std::size_t{1000}),
                       ::testing::Values(1, 2, 3)),
    generator_test_name);

TEST(Generators, PaperTopologyShape) {
  util::Rng rng(7);
  const Graph g = paper_topology(2000, rng);
  EXPECT_EQ(g.node_count(), 2000u);
  EXPECT_TRUE(g.is_connected_over_active());
  // Paper: "most peers have 3 or 4 logical neighbors, and a few peers have
  // tens of direct neighbors. The average number of neighbors ... is 6."
  EXPECT_NEAR(g.average_degree(), 6.0, 0.5);
  const auto hist = g.degree_histogram();
  std::size_t deg3or4 = (hist.size() > 3 ? hist[3] : 0) +
                        (hist.size() > 4 ? hist[4] : 0);
  EXPECT_GT(deg3or4, 2000u / 3);  // the mode
  EXPECT_GT(hist.size(), 20u);    // a heavy tail: someone with tens of links
}

TEST(Generators, BaMinimumDegreeIsM) {
  util::Rng rng(8);
  GeneratorConfig cfg;
  cfg.nodes = 500;
  cfg.ba_links_per_node = 3;
  const Graph g = generate(cfg, rng);
  for (PeerId u = 0; u < g.node_count(); ++u) EXPECT_GE(g.degree(u), 3u);
}

TEST(Generators, BaRejectsDegenerateArguments) {
  util::Rng rng(9);
  GeneratorConfig cfg;
  cfg.nodes = 3;
  cfg.ba_links_per_node = 3;
  EXPECT_THROW(generate(cfg, rng), std::invalid_argument);
  cfg.ba_links_per_node = 0;
  EXPECT_THROW(generate(cfg, rng), std::invalid_argument);
}

TEST(Generators, DeterministicGivenSeed) {
  GeneratorConfig cfg;
  cfg.nodes = 300;
  util::Rng r1(55), r2(55);
  const Graph a = generate(cfg, r1);
  const Graph b = generate(cfg, r2);
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (PeerId u = 0; u < a.node_count(); ++u) {
    EXPECT_EQ(a.degree(u), b.degree(u));
  }
}

// ------------------------------------------------------------ bandwidth

TEST(Bandwidth, PaperFractionsHold) {
  util::Rng rng(10);
  const BandwidthMap bw(20000, rng);
  // Paper / Saroiu: 78% downstream >= 1000 Kbps, 22% upstream <= 100 Kbps.
  EXPECT_NEAR(bw.fraction_downstream_at_least(1000.0), 0.78, 0.02);
  EXPECT_NEAR(bw.fraction_upstream_at_most(100.0), 0.22, 0.02);
}

TEST(Bandwidth, LinkCapacityIsBottleneck) {
  util::Rng rng(11);
  BandwidthMap bw(100, rng);
  // Find a modem peer and a cable peer to make the test deterministic.
  PeerId modem = kInvalidPeer, cable = kInvalidPeer;
  for (PeerId p = 0; p < 100; ++p) {
    if (bw.peer_class(p) == BandwidthClass::kModem && modem == kInvalidPeer)
      modem = p;
    if (bw.peer_class(p) == BandwidthClass::kCable && cable == kInvalidPeer)
      cable = p;
  }
  ASSERT_NE(modem, kInvalidPeer);
  ASSERT_NE(cable, kInvalidPeer);
  // modem -> cable bottleneck = modem upstream (56 Kbps).
  EXPECT_DOUBLE_EQ(bw.link_queries_per_minute(modem, cable),
                   kbps_to_queries_per_minute(56.0));
  // cable -> modem bottleneck = modem downstream (56 Kbps).
  EXPECT_DOUBLE_EQ(bw.link_queries_per_minute(cable, modem),
                   kbps_to_queries_per_minute(56.0));
}

TEST(Bandwidth, ConversionMath) {
  // 56 Kbps = 7000 B/s = 420000 B/min; at 60 B/query -> 7000 queries/min.
  EXPECT_NEAR(kbps_to_queries_per_minute(56.0), 7000.0, 1.0);
}

TEST(Bandwidth, ClassTablesAreOrdered) {
  EXPECT_LT(upstream_kbps(BandwidthClass::kModem),
            upstream_kbps(BandwidthClass::kDsl));
  EXPECT_LT(downstream_kbps(BandwidthClass::kDsl),
            downstream_kbps(BandwidthClass::kCable));
  EXPECT_EQ(bandwidth_class_name(BandwidthClass::kT1), "t1");
}

// -------------------------------------------------------------- coverage

// Both exact-coverage kernels run every hand-computed case. The batched
// kernel floods `origin` at bit 37 of a full first pass, beside 63 floods
// from other peers of g, and a partial second pass follows it.
using CoverageKernel = CoverageProfile (*)(const Graph&, PeerId, std::size_t);

CoverageProfile batched_coverage(const Graph& g, PeerId origin,
                                 std::size_t ttl) {
  std::vector<PeerId> origins;
  for (std::size_t i = 0; i < 70; ++i) {
    origins.push_back(static_cast<PeerId>(i % g.node_count()));
  }
  origins[37] = origin;
  return flood_coverage_batch(g, origins, ttl)[37];
}

constexpr std::array<std::pair<const char*, CoverageKernel>, 2> kKernels{{
    {"single-origin", flood_coverage},
    {"batched", batched_coverage},
}};

TEST(Coverage, LineGraphExact) {
  Graph g(6);  // 0-1-2-3-4-5
  for (PeerId i = 0; i + 1 < 6; ++i) g.add_edge(i, i + 1);
  for (const auto& [name, cover] : kKernels) {
    SCOPED_TRACE(name);
    const auto p = cover(g, 0, 7);
    // Hop h reaches exactly node h; messages: hop1 = deg(0)=1, others 1
    // until the line ends (deg-1 of interior nodes = 1).
    EXPECT_DOUBLE_EQ(p.new_nodes[0], 1.0);
    EXPECT_DOUBLE_EQ(p.new_nodes[4], 1.0);
    EXPECT_DOUBLE_EQ(p.new_nodes[5], 0.0);
    EXPECT_DOUBLE_EQ(p.total_reach(), 5.0);
    EXPECT_DOUBLE_EQ(p.messages[0], 1.0);
  }
}

TEST(Coverage, StarGraphExact) {
  Graph g(7);
  for (PeerId i = 1; i < 7; ++i) g.add_edge(0, i);
  for (const auto& [name, cover] : kKernels) {
    SCOPED_TRACE(name);
    const auto from_hub = cover(g, 0, 7);
    EXPECT_DOUBLE_EQ(from_hub.new_nodes[0], 6.0);
    EXPECT_DOUBLE_EQ(from_hub.total_reach(), 6.0);
    const auto from_leaf = cover(g, 1, 7);
    EXPECT_DOUBLE_EQ(from_leaf.new_nodes[0], 1.0);  // the hub
    EXPECT_DOUBLE_EQ(from_leaf.new_nodes[1], 5.0);  // other leaves
    EXPECT_DOUBLE_EQ(from_leaf.messages[1], 5.0);   // hub fans to deg-1
  }
}

TEST(Coverage, RingCountsDuplicates) {
  Graph g(6);  // cycle
  for (PeerId i = 0; i < 6; ++i) g.add_edge(i, (i + 1) % 6);
  for (const auto& [name, cover] : kKernels) {
    SCOPED_TRACE(name);
    const auto p = cover(g, 0, 7);
    EXPECT_DOUBLE_EQ(p.total_reach(), 5.0);
    // Two wavefronts meet: total messages exceed total fresh nodes.
    EXPECT_GT(p.total_messages(), p.total_reach());
  }
}

TEST(Coverage, TtlLimitsReach) {
  Graph g(10);  // line
  for (PeerId i = 0; i + 1 < 10; ++i) g.add_edge(i, i + 1);
  for (const auto& [name, cover] : kKernels) {
    SCOPED_TRACE(name);
    EXPECT_DOUBLE_EQ(cover(g, 0, 3).total_reach(), 3.0);
  }
}

TEST(Coverage, FreshFractionFirstHopIsOne) {
  util::Rng rng(12);
  const Graph g = paper_topology(500, rng);
  for (const auto& [name, cover] : kKernels) {
    SCOPED_TRACE(name);
    const auto p = cover(g, 0, 7);
    EXPECT_DOUBLE_EQ(p.fresh_fraction(1), 1.0);
    for (std::size_t h = 1; h <= 7; ++h) {
      EXPECT_GE(p.fresh_fraction(h), 0.0);
      EXPECT_LE(p.fresh_fraction(h), 1.0);
    }
  }
}

TEST(Coverage, FullCoverageOnWellConnectedGraph) {
  util::Rng rng(13);
  const Graph g = paper_topology(300, rng);
  for (const auto& [name, cover] : kKernels) {
    SCOPED_TRACE(name);
    // TTL-7 floods blanket a 300-node BA overlay (the paper cites [25]:
    // 95% of node pairs are within 7 hops).
    EXPECT_GT(cover(g, 5, 7).total_reach(), 290.0);
  }
}

TEST(Coverage, CumulativeReachMonotone) {
  util::Rng rng(14);
  const Graph g = paper_topology(400, rng);
  for (const auto& [name, cover] : kKernels) {
    SCOPED_TRACE(name);
    const auto p = cover(g, 1, 7);
    for (std::size_t h = 1; h <= 7; ++h) {
      EXPECT_GE(p.cumulative_reach(h), p.cumulative_reach(h - 1));
    }
    EXPECT_DOUBLE_EQ(p.cumulative_reach(7), p.total_reach());
  }
}

TEST(Coverage, AverageProfileSane) {
  util::Rng rng(15);
  const Graph g = paper_topology(400, rng);
  const auto avg = average_coverage(g, 7, 50, rng);
  EXPECT_GT(avg.total_reach(), 350.0);
  EXPECT_LT(avg.total_reach(), 400.0);
  EXPECT_GT(avg.total_messages(), avg.total_reach());
}

TEST(Coverage, InactiveOriginYieldsEmptyProfile) {
  Graph g(3);
  g.add_edge(0, 1);
  g.set_active(0, false);
  for (const auto& [name, cover] : kKernels) {
    SCOPED_TRACE(name);
    const auto p = cover(g, 0, 7);
    EXPECT_DOUBLE_EQ(p.total_reach(), 0.0);
    EXPECT_DOUBLE_EQ(p.total_messages(), 0.0);
  }
}

TEST(Coverage, InactiveNodesBlockPropagation) {
  Graph g(5);  // line
  for (PeerId i = 0; i + 1 < 5; ++i) g.add_edge(i, i + 1);
  g.set_active(2, false);  // also removes its edges
  for (const auto& [name, cover] : kKernels) {
    SCOPED_TRACE(name);
    EXPECT_DOUBLE_EQ(cover(g, 0, 7).total_reach(), 1.0);  // only node 1
  }
}

std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (const double d : v) out.push_back(std::bit_cast<std::uint64_t>(d));
  return out;
}

// A BA or ER overlay with every kind of peer a flood meets under churn:
// a tenth offline, some online but isolated, some cut to degree 1.
Graph churned_overlay(Model model, std::size_t nodes, util::Rng& rng) {
  GeneratorConfig cfg;
  cfg.model = model;
  cfg.nodes = nodes;
  Graph g = generate(cfg, rng);
  for (PeerId p = 3; p < nodes; p += 10) g.set_active(p, false);
  for (PeerId p = 6; p < nodes; p += 29) g.isolate(p);
  for (PeerId p = 8; p < nodes; p += 13) {
    while (g.degree(p) > 1) g.remove_edge(p, g.neighbors(p).front());
  }
  return g;
}

TEST(Coverage, BatchedKernelMatchesSingleOriginBitForBit) {
  struct Overlay {
    Model model;
    std::size_t nodes;
  };
  for (const Overlay o : {Overlay{Model::kBarabasiAlbert, 300},
                          Overlay{Model::kErdosRenyi, 240}}) {
    util::Rng rng(31 + o.nodes);
    const Graph g = churned_overlay(o.model, o.nodes, rng);
    for (const std::size_t batch : {1u, 63u, 64u, 65u, 200u}) {
      // Any peer may be an origin (offline ones flood nothing); every
      // batch also repeats some origins, inside a pass and across passes.
      std::vector<PeerId> origins;
      for (std::size_t i = 0; i < batch; ++i) {
        origins.push_back(i % 7 == 5 && i > 0
                              ? origins[i / 2]
                              : static_cast<PeerId>(rng.below(
                                    static_cast<std::uint32_t>(o.nodes))));
      }
      for (std::size_t ttl = 1; ttl <= 8; ++ttl) {
        const auto batched = flood_coverage_batch(g, origins, ttl);
        ASSERT_EQ(batched.size(), origins.size());
        for (std::size_t i = 0; i < origins.size(); ++i) {
          SCOPED_TRACE("nodes " + std::to_string(o.nodes) + ", batch " +
                       std::to_string(batch) + ", ttl " + std::to_string(ttl) +
                       ", origin " + std::to_string(origins[i]));
          const auto single = flood_coverage(g, origins[i], ttl);
          EXPECT_EQ(bits(batched[i].new_nodes), bits(single.new_nodes));
          EXPECT_EQ(bits(batched[i].messages), bits(single.messages));
        }
      }
    }
  }
}

// The one-flood-per-origin loop average_coverage ran before it moved to
// the batched kernel, kept as the reference for its draws and its sums.
CoverageProfile reference_average(const Graph& g, std::size_t ttl,
                                  std::size_t samples, util::Rng& rng) {
  CoverageProfile avg;
  avg.new_nodes.assign(ttl, 0.0);
  avg.messages.assign(ttl, 0.0);
  if (g.active_count() == 0 || ttl == 0) return avg;
  std::size_t used = 0;
  const auto add = [&](PeerId u) {
    const CoverageProfile p = flood_coverage(g, u, ttl);
    for (std::size_t h = 0; h < ttl; ++h) {
      avg.new_nodes[h] += p.new_nodes[h];
      avg.messages[h] += p.messages[h];
    }
    ++used;
  };
  if (samples >= g.active_count()) {
    for (PeerId u = 0; u < g.node_count(); ++u) {
      if (g.is_active(u)) add(u);
    }
  } else {
    for (std::size_t s = 0; s < samples; ++s) {
      const PeerId u = g.random_active_node(rng);
      if (u == kInvalidPeer) break;
      add(u);
    }
  }
  if (used > 0) {
    for (std::size_t h = 0; h < ttl; ++h) {
      avg.new_nodes[h] /= static_cast<double>(used);
      avg.messages[h] /= static_cast<double>(used);
    }
  }
  return avg;
}

TEST(Coverage, AverageMatchesOneFloodPerOriginLoop) {
  util::Rng topo_rng(41);
  const Graph g = churned_overlay(Model::kBarabasiAlbert, 260, topo_rng);
  const std::size_t active = g.active_count();
  // Sampled branch (below the active count) and every-origin branch.
  for (const std::size_t samples :
       {std::size_t{1}, std::size_t{64}, std::size_t{65}, std::size_t{130},
        active - 1, active, active + 40}) {
    for (const std::size_t ttl : {1u, 7u, 8u}) {
      SCOPED_TRACE("samples " + std::to_string(samples) + ", ttl " +
                   std::to_string(ttl));
      util::Rng rng(97);
      util::Rng ref_rng(97);
      const auto got = average_coverage(g, ttl, samples, rng);
      const auto want = reference_average(g, ttl, samples, ref_rng);
      EXPECT_EQ(bits(got.new_nodes), bits(want.new_nodes));
      EXPECT_EQ(bits(got.messages), bits(want.messages));
      EXPECT_EQ(rng.state().state, ref_rng.state().state);
      EXPECT_EQ(rng.next_u64(), ref_rng.next_u64());
    }
  }
}


TEST(Generators, TwoTierShape) {
  util::Rng rng(21);
  TwoTierConfig cfg;
  cfg.nodes = 500;
  cfg.ultrapeers = 80;
  cfg.leaf_links = 2;
  const Graph g = two_tier_topology(cfg, rng);
  EXPECT_EQ(g.node_count(), 500u);
  EXPECT_TRUE(g.is_connected_over_active());
  // Core is well-connected; leaves hold exactly leaf_links connections,
  // all of them into the core.
  for (PeerId u = 0; u < 80; ++u) EXPECT_GE(g.degree(u), 3u);
  for (PeerId leaf = 80; leaf < 500; ++leaf) {
    EXPECT_EQ(g.degree(leaf), 2u);
    for (PeerId n : g.neighbors(leaf)) {
      EXPECT_TRUE(is_ultrapeer(cfg, n));
    }
  }
}

TEST(Generators, TwoTierViaModelEnum) {
  util::Rng rng(22);
  GeneratorConfig cfg;
  cfg.model = Model::kTwoTier;
  cfg.nodes = 400;
  const Graph g = generate(cfg, rng);
  EXPECT_EQ(g.node_count(), 400u);
  EXPECT_TRUE(g.is_connected_over_active());
}

TEST(Generators, TwoTierRejectsBadConfig) {
  util::Rng rng(23);
  TwoTierConfig cfg;
  cfg.nodes = 100;
  cfg.ultrapeers = 2;  // smaller than core seed
  EXPECT_THROW(two_tier_topology(cfg, rng), std::invalid_argument);
  cfg.ultrapeers = 200;  // more ultrapeers than nodes
  EXPECT_THROW(two_tier_topology(cfg, rng), std::invalid_argument);
}

TEST(Generators, TwoTierFloodCoversLeavesThroughCore) {
  util::Rng rng(24);
  TwoTierConfig cfg;
  cfg.nodes = 300;
  cfg.ultrapeers = 60;
  const Graph g = two_tier_topology(cfg, rng);
  // A flood from a leaf must still blanket the overlay within TTL 7
  // (leaf -> ultrapeer core -> all leaves).
  const auto p = flood_coverage(g, 299, 7);
  EXPECT_GT(p.total_reach(), 290.0);
}

}  // namespace
}  // namespace ddp::topology
