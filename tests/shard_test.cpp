// Sharded-engine determinism tests: span partitioning, the SoA edge index,
// and — the load-bearing property —
// byte-identical simulation output at any worker count, from raw
// FlowNetwork ticks up through full scenario runs and DD-POLICE decisions.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "experiments/scenario.hpp"
#include "flow/network.hpp"
#include "snapshot/snapshot.hpp"
#include "topology/edge_index.hpp"
#include "topology/generators.hpp"
#include "util/spans.hpp"

namespace ddp {
namespace {

// --- span partitioning -----------------------------------------------------

TEST(Spans, EvenPartitionCoversRangeInOrder) {
  for (std::size_t n : {0u, 1u, 7u, 64u, 1000u}) {
    for (std::size_t parts : {1u, 2u, 3u, 8u, 61u}) {
      const auto spans = util::make_spans(n, parts);
      ASSERT_EQ(spans.size(), std::min(n, parts));
      std::size_t cursor = 0;
      for (const auto& s : spans) {
        EXPECT_EQ(s.begin, cursor);
        EXPECT_GT(s.end, s.begin);  // never empty
        cursor = s.end;
      }
      EXPECT_EQ(cursor, n);
      // Near-equal: sizes differ by at most one.
      if (!spans.empty()) {
        std::size_t lo = spans[0].size(), hi = spans[0].size();
        for (const auto& s : spans) {
          lo = std::min(lo, s.size());
          hi = std::max(hi, s.size());
        }
        EXPECT_LE(hi - lo, 1u);
      }
    }
  }
}

TEST(Spans, WeightedPartitionBalancesCost) {
  // One heavy hub followed by light peers: the hub gets a span to itself.
  std::vector<std::uint64_t> w(100, 1);
  w[0] = 1000;
  const auto spans = util::make_weighted_spans(w, 4);
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].begin, 0u);
  EXPECT_EQ(spans[0].size(), 1u);  // the hub alone outweighs a quarter
  EXPECT_EQ(spans.back().end, w.size());
  std::size_t cursor = 0;
  for (const auto& s : spans) {
    EXPECT_EQ(s.begin, cursor);
    EXPECT_GT(s.end, s.begin);
    cursor = s.end;
  }
}

TEST(Spans, WeightedDegradesToEvenOnZeroTotal) {
  const std::vector<std::uint64_t> w(12, 0);
  const auto weighted = util::make_weighted_spans(w, 3);
  const auto even = util::make_spans(12, 3);
  ASSERT_EQ(weighted.size(), even.size());
  for (std::size_t i = 0; i < even.size(); ++i) {
    EXPECT_EQ(weighted[i].begin, even[i].begin);
    EXPECT_EQ(weighted[i].end, even[i].end);
  }
}

TEST(Spans, PlanIsAPureFunctionOfInputs) {
  std::vector<std::uint64_t> w(257);
  std::iota(w.begin(), w.end(), 1);
  const auto a = util::make_weighted_spans(w, 7);
  const auto b = util::make_weighted_spans(w, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].begin, b[i].begin);
    EXPECT_EQ(a[i].end, b[i].end);
  }
}

// --- SoA edge containers ---------------------------------------------------

TEST(EdgeIndexSoA, RoundTripPreservesParallelArrays) {
  topology::EdgeIndex index;
  // Acquire a handful of slot pairs, then retire one so the round trip
  // covers the free-list and generation bumps.
  const auto [s01, s10] = index.acquire_pair(0, 1);
  const auto [s12, s21] = index.acquire_pair(1, 2);
  const auto [s02, s20] = index.acquire_pair(0, 2);
  index.release(s12);
  const auto [s13, s31] = index.acquire_pair(1, 3);  // recycles retired slots
  (void)s13;
  (void)s31;
  ASSERT_TRUE(index.consistent());

  snapshot::Writer w;
  w.begin_section(1);
  index.save(w);
  w.end_section();
  topology::EdgeIndex loaded;
  {
    snapshot::Reader r = snapshot::Reader::from_bytes(w.finish(0));
    r.begin_section(1);
    loaded.load(r);
    r.end_section();
  }
  ASSERT_TRUE(loaded.consistent());
  ASSERT_EQ(loaded.capacity(), index.capacity());
  for (std::uint32_t s = 0; s < index.capacity(); ++s) {
    EXPECT_EQ(loaded.live(s), index.live(s));
    EXPECT_EQ(loaded.generation(s), index.generation(s));
    if (!index.live(s)) continue;
    EXPECT_EQ(loaded.from(s), index.from(s));
    EXPECT_EQ(loaded.to(s), index.to(s));
    EXPECT_EQ(loaded.reverse(s), index.reverse(s));
  }
  EXPECT_EQ(loaded.live_count(), index.live_count());
  (void)s01;
  (void)s10;
  (void)s21;
  (void)s02;
  (void)s20;
}

// --- hard-cutoff generator -------------------------------------------------

TEST(HardCutoff, RespectsDegreeCeilingAndStaysConnected) {
  util::Rng rng(77);
  topology::GeneratorConfig cfg;
  cfg.model = topology::Model::kHardCutoff;
  cfg.nodes = 600;
  cfg.ba_links_per_node = 3;
  cfg.hc_cutoff_exponent = 2.0;  // k_c ~ sqrt(600) = 25
  const topology::Graph g = topology::generate(cfg, rng);
  ASSERT_EQ(g.node_count(), 600u);
  const std::size_t kc = 25;  // ceil(600^0.5)
  EXPECT_EQ(topology::hard_cutoff_degree(cfg), kc);
  std::size_t max_deg = 0;
  for (PeerId u = 0; u < g.node_count(); ++u) {
    max_deg = std::max(max_deg, g.neighbors(u).size());
    EXPECT_GE(g.neighbors(u).size(), 1u);
  }
  EXPECT_LE(max_deg, kc);
  // Connected: BFS from 0 reaches everyone.
  std::vector<char> vis(g.node_count(), 0);
  std::vector<PeerId> stack{0};
  vis[0] = 1;
  std::size_t reached = 1;
  while (!stack.empty()) {
    const PeerId u = stack.back();
    stack.pop_back();
    for (PeerId v : g.neighbors(u)) {
      if (!vis[v]) {
        vis[v] = 1;
        ++reached;
        stack.push_back(v);
      }
    }
  }
  EXPECT_EQ(reached, g.node_count());
}

TEST(HardCutoff, TighterExponentSuppressesHubsHarder) {
  util::Rng rng1(5);
  util::Rng rng2(5);
  topology::GeneratorConfig cfg;
  cfg.model = topology::Model::kHardCutoff;
  cfg.nodes = 800;
  cfg.ba_links_per_node = 3;
  const auto max_degree = [](const topology::Graph& g) {
    std::size_t m = 0;
    for (PeerId u = 0; u < g.node_count(); ++u) {
      m = std::max(m, g.neighbors(u).size());
    }
    return m;
  };
  cfg.hc_cutoff_exponent = 1.0;  // k_c = n: plain BA
  EXPECT_EQ(topology::hard_cutoff_degree(cfg), 800u);
  const std::size_t ba_max = max_degree(topology::generate(cfg, rng1));
  cfg.hc_cutoff_exponent = 3.0;  // k_c ~ n^(1/3) = 10
  EXPECT_EQ(topology::hard_cutoff_degree(cfg), 10u);
  const std::size_t cut_max = max_degree(topology::generate(cfg, rng2));
  EXPECT_LE(cut_max, 10u);
  EXPECT_GT(ba_max, cut_max);
  // ceil(800^(1/16)) = 2 sits below the seed clique's degree: k_c = m + 1.
  cfg.hc_cutoff_exponent = 16.0;
  EXPECT_EQ(topology::hard_cutoff_degree(cfg), 4u);
}

TEST(HardCutoff, ConfigValidationRejectsBadExponent) {
  experiments::ScenarioConfig cfg;
  cfg.topo.model = topology::Model::kHardCutoff;
  cfg.topo.hc_cutoff_exponent = 0.5;
  EXPECT_FALSE(experiments::validate_config(cfg).empty());
  cfg.topo.hc_cutoff_exponent = 17.0;
  EXPECT_FALSE(experiments::validate_config(cfg).empty());
  cfg.topo.hc_cutoff_exponent = 2.0;
  EXPECT_TRUE(experiments::validate_config(cfg).empty());
}

// --- sharded flow engine determinism --------------------------------------

struct FlowWorld {
  topology::Graph graph;
  std::unique_ptr<topology::BandwidthMap> bandwidth;
  std::unique_ptr<workload::ContentModel> content;
  std::unique_ptr<flow::FlowNetwork> net;

  FlowWorld(std::uint64_t seed, flow::FlowConfig cfg)
      : graph([&] {
          util::Rng trng(seed);
          return topology::paper_topology(400, trng);
        }()) {
    util::Rng rng(seed + 1);
    util::Rng bw_rng = rng.fork("bw");
    bandwidth =
        std::make_unique<topology::BandwidthMap>(graph.node_count(), bw_rng);
    workload::ContentConfig cc;
    cc.objects = 800;
    cc.mean_replicas = 8.0;
    content = std::make_unique<workload::ContentModel>(cc, graph.node_count());
    net = std::make_unique<flow::FlowNetwork>(graph, *bandwidth, *content, cfg,
                                              rng.fork("flow"));
    for (PeerId a = 0; a < 8; ++a) net->set_kind(a, PeerKind::kBad);
  }
};

// Exact (bitwise) equality between two runs' reports; EXPECT_EQ on double
// is exact comparison, which is the whole point of the canonical merge.
void expect_identical_reports(const flow::MinuteReport& a,
                              const flow::MinuteReport& b) {
  EXPECT_EQ(a.traffic_messages, b.traffic_messages);
  EXPECT_EQ(a.attack_messages, b.attack_messages);
  EXPECT_EQ(a.good_issued, b.good_issued);
  EXPECT_EQ(a.attack_issued, b.attack_issued);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.dropped_good, b.dropped_good);
  EXPECT_EQ(a.dropped_attack, b.dropped_attack);
  EXPECT_EQ(a.reach_per_query, b.reach_per_query);
  EXPECT_EQ(a.success_rate, b.success_rate);
  EXPECT_EQ(a.response_time, b.response_time);
  EXPECT_EQ(a.mean_utilization, b.mean_utilization);
  EXPECT_EQ(a.transport_lost, b.transport_lost);
}

void run_jobs_invariance(flow::FlowConfig base) {
  base.jobs = 1;
  FlowWorld ref(31, base);
  ref.net->run_minutes(3.0);
  const auto ref_report = ref.net->last_minute_report();
  const double ref_flight = ref.net->total_in_flight();

  // One span per worker: 2, 3, 4 and 8 spans.
  for (const unsigned jobs : {2u, 3u, 4u, 8u}) {
    flow::FlowConfig cfg = base;
    cfg.jobs = jobs;
    FlowWorld w(31, cfg);
    w.net->run_minutes(3.0);
    expect_identical_reports(w.net->last_minute_report(), ref_report);
    EXPECT_EQ(w.net->total_in_flight(), ref_flight) << "jobs=" << jobs;
    for (PeerId p = 0; p < 8; ++p) {
      for (PeerId q : w.graph.neighbors(p)) {
        EXPECT_EQ(w.net->sent_last_minute(p, q),
                  ref.net->sent_last_minute(p, q));
      }
    }
  }
}

TEST(ShardMerge, TickOutputInvariantAcrossJobsAndShards) {
  flow::FlowConfig cfg;
  run_jobs_invariance(cfg);
}

TEST(ShardMerge, FairShareDisciplineInvariant) {
  // kFairShare is the hard case: phase 2 reads cross-shard cur state, so
  // it runs under the extra 2a/2b barrier. Same bit-identity bar.
  flow::FlowConfig cfg;
  cfg.discipline = flow::ServiceDiscipline::kFairShare;
  run_jobs_invariance(cfg);
}

TEST(ShardMerge, PriorityAdmissionInvariant) {
  flow::FlowConfig cfg;
  cfg.admission = flow::AdmissionPolicy::kPriority;
  run_jobs_invariance(cfg);
}

TEST(ShardMerge, UnreliableLinksInvariant) {
  // Lossy links log a transport-loss contribution per in-link in phase 1;
  // duplicating links (> 1) skip it but scale every arrival.
  for (const double rel : {0.9, 1.1}) {
    flow::FlowConfig cfg;
    cfg.link_reliability = rel;
    run_jobs_invariance(cfg);
  }
}

TEST(ShardMerge, ScenarioRunIdenticalIncludingDecisions) {
  // Full stack: the sharded tick sweeps under DD-POLICE must reproduce
  // the serial run's series, decisions and counters exactly.
  experiments::ScenarioConfig cfg =
      experiments::paper_scenario(300, 20, defense::Kind::kDdPolice, 7);
  cfg.total_minutes = 10.0;
  cfg.warmup_minutes = 3.0;
  const auto ref = experiments::run_scenario(cfg);

  cfg.flow.jobs = 4;
  const auto par = experiments::run_scenario(cfg);

  ASSERT_EQ(par.history.size(), ref.history.size());
  for (std::size_t i = 0; i < ref.history.size(); ++i) {
    expect_identical_reports(par.history[i], ref.history[i]);
  }
  ASSERT_EQ(par.decisions.size(), ref.decisions.size());
  for (std::size_t i = 0; i < ref.decisions.size(); ++i) {
    EXPECT_EQ(par.decisions[i].minute, ref.decisions[i].minute);
    EXPECT_EQ(par.decisions[i].judge, ref.decisions[i].judge);
    EXPECT_EQ(par.decisions[i].suspect, ref.decisions[i].suspect);
    EXPECT_EQ(par.decisions[i].g, ref.decisions[i].g);
    EXPECT_EQ(par.decisions[i].s, ref.decisions[i].s);
  }
  EXPECT_EQ(par.defense_rounds, ref.defense_rounds);
  EXPECT_EQ(par.defense_traffic_messages, ref.defense_traffic_messages);
  EXPECT_EQ(par.summary.avg_success_rate, ref.summary.avg_success_rate);
  EXPECT_EQ(par.final_active_peers, ref.final_active_peers);
}

TEST(ShardMerge, SnapshotStateIsShardInvariant) {
  // A checkpoint taken by a sharded run must byte-match the serial run's.
  flow::FlowConfig serial_cfg;
  FlowWorld serial(13, serial_cfg);
  serial.net->run_minutes(2.0);

  flow::FlowConfig sharded_cfg;
  sharded_cfg.jobs = 4;
  FlowWorld sharded(13, sharded_cfg);
  sharded.net->run_minutes(2.0);

  const auto dump = [](const flow::FlowNetwork& net) {
    snapshot::Writer w;
    w.begin_section(1);
    net.save(w);
    w.end_section();
    return w.finish(0);
  };
  EXPECT_EQ(dump(*serial.net), dump(*sharded.net));
}

}  // namespace
}  // namespace ddp
