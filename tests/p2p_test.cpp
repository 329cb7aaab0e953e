// Packet-level engine tests: Gnutella flooding semantics (TTL, duplicate
// suppression, inverse-path hits), capacity/queueing behaviour, the link
// monitors, and the Sec. 2.3 testbed replication (Figs. 5-6).

#include <gtest/gtest.h>

#include <cmath>

#include "attack/packet_agent.hpp"
#include "p2p/network.hpp"
#include "p2p/testbed.hpp"
#include "topology/coverage.hpp"
#include "topology/generators.hpp"

namespace ddp::p2p {
namespace {

struct Fixture {
  topology::Graph graph;
  workload::ContentConfig content_cfg;
  std::unique_ptr<workload::ContentModel> content;
  sim::Engine engine;
  P2pConfig cfg;
  std::unique_ptr<PacketNetwork> net;

  explicit Fixture(topology::Graph g, double replicas = 0.0,
                   std::size_t objects = 16)
      : graph(std::move(g)) {
    content_cfg.objects = objects;
    content_cfg.mean_replicas = replicas;
    content = std::make_unique<workload::ContentModel>(content_cfg,
                                                       graph.node_count());
    net = std::make_unique<PacketNetwork>(graph, *content, engine, cfg,
                                          util::Rng(99));
  }
};

topology::Graph line(std::size_t n) {
  topology::Graph g(n);
  for (PeerId i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

TEST(PacketNetwork, QueryPropagatesAlongLine) {
  Fixture f(line(5));
  f.net->issue_query(0, 3);
  f.engine.run_until(10.0);
  // Every peer received the query exactly once (no duplicates on a line).
  for (PeerId p = 1; p < 5; ++p) EXPECT_EQ(f.net->received_at(p), 1u);
  EXPECT_EQ(f.net->totals().queries_issued, 1u);
  EXPECT_EQ(f.net->totals().messages_sent, 4u);
}

TEST(PacketNetwork, TtlBoundsPropagation) {
  Fixture f(line(10));
  f.cfg.ttl = 3;
  f.net = std::make_unique<PacketNetwork>(f.graph, *f.content, f.engine, f.cfg,
                                          util::Rng(1));
  f.net->issue_query(0, 1);
  f.engine.run_until(10.0);
  EXPECT_EQ(f.net->received_at(3), 1u);
  EXPECT_EQ(f.net->received_at(4), 0u);
}

TEST(PacketNetwork, DuplicateSuppressionOnCycle) {
  topology::Graph g(4);  // square
  for (PeerId i = 0; i < 4; ++i) g.add_edge(i, (i + 1) % 4);
  Fixture f(std::move(g));
  f.net->issue_query(0, 2);
  f.engine.run_until(10.0);
  // The two wavefronts meet: some peer sees the query twice, drops one.
  EXPECT_GE(f.net->totals().duplicates_dropped, 1u);
  // Everyone still processed it exactly once.
  for (PeerId p = 1; p < 4; ++p) EXPECT_GE(f.net->received_at(p), 1u);
}

TEST(PacketNetwork, MessageCountMatchesCoverageProfile) {
  // Cross-validation: on an idle network the engine's transmissions for a
  // single flood equal the exact BFS coverage profile's message count.
  util::Rng rng(7);
  topology::Graph g = topology::paper_topology(60, rng);
  const auto profile = topology::flood_coverage(g, 0, 7);
  Fixture f(std::move(g));
  f.net->issue_query(0, 1);
  f.engine.run_until(30.0);
  EXPECT_DOUBLE_EQ(static_cast<double>(f.net->totals().messages_sent),
                   profile.total_messages());
}

TEST(PacketNetwork, HitRoutesBackAlongInversePath) {
  Fixture f(line(5), /*replicas=*/0.0);
  // Give peer 4 the object deterministically by using a full-replication
  // content model instead.
  workload::ContentConfig cc;
  cc.objects = 4;
  cc.mean_replicas = static_cast<double>(cc.objects);  // ratio 1: everyone
  workload::ContentModel full(cc, 5);
  PacketNetwork net(f.graph, full, f.engine, f.cfg, util::Rng(3));
  const QueryId id = net.issue_query(0, 2);
  f.engine.run_until(20.0);
  ASSERT_EQ(net.outcomes().size(), 1u);
  const auto& out = net.outcomes()[0];
  EXPECT_EQ(out.id, id);
  EXPECT_TRUE(out.responded);
  // Nearest replica is the direct neighbour: ~2 hops round trip plus two
  // service times.
  EXPECT_GT(out.first_response_at, 2 * f.cfg.hop_latency);
  EXPECT_LT(out.first_response_at, 1.0);
  EXPECT_GT(net.totals().hits_delivered, 0u);
}

TEST(PacketNetwork, NoContentMeansNoResponse) {
  Fixture f(line(4), /*replicas=*/0.0);
  f.net->issue_query(0, 1);
  f.engine.run_until(20.0);
  ASSERT_EQ(f.net->outcomes().size(), 1u);
  EXPECT_FALSE(f.net->outcomes()[0].responded);
  EXPECT_EQ(f.net->totals().hits_generated, 0u);
}

TEST(PacketNetwork, CapacityQueueOverflowDrops) {
  Fixture f(line(3));
  f.net->set_capacity(1, 600.0);  // 10/s service at peer 1
  // Blast 100 queries instantly from peer 0; queue_limit default 5000 so
  // shrink it to force overflow.
  f.cfg.queue_limit = 10;
  f.net = std::make_unique<PacketNetwork>(f.graph, *f.content, f.engine, f.cfg,
                                          util::Rng(5));
  f.net->set_capacity(1, 600.0);
  for (int i = 0; i < 100; ++i) f.net->issue_query(0, 1);
  f.engine.run_until(0.5);
  EXPECT_GT(f.net->dropped_at(1), 0u);
  EXPECT_LE(f.net->processed_at(1), 12u);
}

TEST(PacketNetwork, MonitorsCountPerMinuteRates) {
  Fixture f(line(3));
  for (int i = 0; i < 30; ++i) {
    f.engine.schedule_at(i * 1.0, [&f] { f.net->issue_query(0, 1); });
  }
  f.engine.run_until(30.0);
  // Peer 0 sent 30 queries to peer 1 within the minute window.
  EXPECT_NEAR(f.net->monitors().out_per_minute_at(0, 1, 30.0), 30.0, 1.0);
  // Peer 1 forwarded each to peer 2.
  EXPECT_NEAR(f.net->monitors().out_per_minute_at(1, 2, 30.0), 30.0, 1.0);
  EXPECT_DOUBLE_EQ(f.net->monitors().out_per_minute_at(2, 1, 30.0), 0.0);
}

TEST(PacketNetwork, DisconnectStopsFutureTraffic) {
  Fixture f(line(3));
  f.net->issue_query(0, 1);
  f.engine.run_until(5.0);
  EXPECT_EQ(f.net->received_at(2), 1u);
  f.net->disconnect(1, 2);
  f.net->issue_query(0, 2);
  f.engine.run_until(10.0);
  EXPECT_EQ(f.net->received_at(2), 1u);  // unchanged
}

TEST(PacketNetwork, OnQuerySentHookFires) {
  Fixture f(line(3));
  int hooks = 0;
  f.net->on_query_sent = [&hooks](PeerId, PeerId, SimTime) { ++hooks; };
  f.net->issue_query(0, 1);
  f.engine.run_until(5.0);
  EXPECT_EQ(hooks, 2);  // 0->1, 1->2
}

TEST(PacketNetwork, AttackOutcomeLabelled) {
  Fixture f(line(3));
  f.net->set_kind(0, PeerKind::kBad);
  f.net->issue_query(0, 1);
  f.engine.run_until(5.0);
  ASSERT_EQ(f.net->outcomes().size(), 1u);
  EXPECT_TRUE(f.net->outcomes()[0].attack);
  EXPECT_EQ(f.net->totals().attack_queries_issued, 1u);
}

TEST(PacketAgent, SourcesAtConfiguredRate) {
  topology::Graph g = line(3);
  workload::ContentConfig cc;
  cc.objects = 64;
  workload::ContentModel content(cc, 3);
  sim::Engine engine;
  P2pConfig cfg;
  PacketNetwork net(g, content, engine, cfg, util::Rng(8));
  net.set_capacity(1, 1e9);
  net.set_capacity(2, 1e9);
  attack::PacketAgent agent(net, 0, 600.0);  // 10/s
  engine.run_until(10.0);
  EXPECT_NEAR(static_cast<double>(agent.issued()), 100.0, 2.0);
  EXPECT_EQ(net.kind(0), PeerKind::kBad);
}

// ------------------------------------------------------ Sec. 2.3 testbed

TEST(Testbed, ProcessingTracksOfferUntilSaturation) {
  TestbedConfig cfg;
  const auto pt = run_testbed_level(cfg, 8000.0, 1);
  // Below capacity: everything processed, nothing dropped.
  EXPECT_NEAR(pt.processed_per_minute, 8000.0, 200.0);
  EXPECT_LT(pt.drop_rate, 0.01);
}

TEST(Testbed, DropOnsetNearPaperFigure5) {
  TestbedConfig cfg;
  // 14,000/min: still within service + queue headroom for one minute.
  const auto below = run_testbed_level(cfg, 14000.0, 2);
  EXPECT_LT(below.drop_rate, 0.02);
  // 17,000/min: beyond the ~15,000 onset the paper reports.
  const auto above = run_testbed_level(cfg, 17000.0, 2);
  EXPECT_GT(above.drop_rate, 0.05);
}

TEST(Testbed, MaxRateDropNearPaperFigure6) {
  TestbedConfig cfg;
  // Peer A's maximum replay rate (~29,000/min) loses ~47% at peer B.
  const auto pt = run_testbed_level(cfg, 29000.0, 3);
  EXPECT_NEAR(pt.drop_rate, 0.47, 0.07);
  // B's forwarding saturates at its service capacity.
  EXPECT_NEAR(pt.processed_per_minute, cfg.capacity_per_minute, 600.0);
}

TEST(Testbed, SweepIsMonotoneInLoad) {
  TestbedConfig cfg;
  const std::vector<double> rates{1000, 5000, 10000, 15000, 20000, 29000};
  const auto pts = run_testbed_sweep(cfg, rates, 4);
  ASSERT_EQ(pts.size(), rates.size());
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].drop_rate, pts[i - 1].drop_rate - 0.02);
    EXPECT_GE(pts[i].processed_per_minute,
              pts[i - 1].processed_per_minute - 500.0);
  }
  // Processing plateaus at capacity (Fig. 5's flat top).
  EXPECT_LT(pts.back().processed_per_minute, cfg.capacity_per_minute * 1.1);
}

TEST(GuidTable, FindUpsertAndOverwrite) {
  GuidTable t;
  util::Rng rng(7);
  const net::Guid g = net::Guid::random(rng);
  EXPECT_EQ(t.find(g), nullptr);
  t.upsert(g, 3, 1.0);
  ASSERT_NE(t.find(g), nullptr);
  EXPECT_EQ(t.find(g)->from, 3u);
  EXPECT_DOUBLE_EQ(t.find(g)->when, 1.0);
  t.upsert(g, 5, 2.0);  // overwrite, not duplicate
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.find(g)->from, 5u);
}

TEST(GuidTable, RehashKeepsAllEntries) {
  GuidTable t;
  util::Rng rng(8);
  std::vector<net::Guid> guids;
  for (std::size_t i = 0; i < 300; ++i) {
    guids.push_back(net::Guid::random(rng));
    t.upsert(guids.back(), static_cast<PeerId>(i), static_cast<double>(i));
  }
  EXPECT_EQ(t.size(), 300u);
  for (std::size_t i = 0; i < guids.size(); ++i) {
    ASSERT_NE(t.find(guids[i]), nullptr);
    EXPECT_EQ(t.find(guids[i])->from, static_cast<PeerId>(i));
  }
}

TEST(GuidTable, PruneDropsOldEpochAndAllowsReinsert) {
  // Regression for the epoch-expiry semantics: entries strictly older
  // than the cutoff leave the table, survivors keep their route, and an
  // expired GUID can be inserted again (a late re-flood is forwardable).
  GuidTable t;
  util::Rng rng(9);
  const net::Guid old_g = net::Guid::random(rng);
  const net::Guid new_g = net::Guid::random(rng);
  t.upsert(old_g, 1, 10.0);
  t.upsert(new_g, 2, 100.0);
  t.prune(50.0);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.find(old_g), nullptr);
  ASSERT_NE(t.find(new_g), nullptr);
  EXPECT_EQ(t.find(new_g)->from, 2u);  // inverse-path route survives
  t.upsert(old_g, 4, 120.0);           // expired GUID is insertable again
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.find(old_g)->from, 4u);
}

TEST(GuidTable, PruneToEmptyThenGrowAgain) {
  GuidTable t;
  util::Rng rng(10);
  std::vector<net::Guid> guids;
  for (std::size_t i = 0; i < 64; ++i) {
    guids.push_back(net::Guid::random(rng));
    t.upsert(guids.back(), 0, 1.0);
  }
  t.prune(2.0);  // everything is older than the cutoff
  EXPECT_EQ(t.size(), 0u);
  for (const auto& g : guids) EXPECT_EQ(t.find(g), nullptr);
  t.upsert(guids.front(), 7, 3.0);
  EXPECT_EQ(t.size(), 1u);
  ASSERT_NE(t.find(guids.front()), nullptr);
}

TEST(PacketNetwork, SeenTableBoundedByEpochExpiry) {
  // A second query wave after the dedup horizon must not stack on top of
  // the first wave's entries: prune_seen compacts the expired epoch, so
  // the total GUID-table population stays bounded by live traffic.
  Fixture f(line(3));
  f.cfg.seen_horizon = 10.0;
  f.net = std::make_unique<PacketNetwork>(f.graph, *f.content, f.engine, f.cfg,
                                          util::Rng(1));
  f.net->issue_query(0, 1);
  f.engine.run_until(5.0);
  const std::uint64_t after_first = f.net->guid_table_size();
  EXPECT_GT(after_first, 0u);
  f.engine.schedule_at(100.0, [&f] { f.net->issue_query(0, 2); });
  f.engine.run_until(120.0);
  // Old entries (age ~100 >> horizon 10) were compacted away as the new
  // wave touched each peer; only the new wave's entries remain.
  EXPECT_EQ(f.net->guid_table_size(), after_first);
}

TEST(PacketNetwork, GuidTableGaugeTracksPopulation) {
  obs::MetricsRegistry reg;
  Fixture f(line(4));
  f.net->set_metrics(&reg);
  const obs::MetricId gauge = reg.find("p2p.guid_table_size");
  ASSERT_NE(gauge, obs::kInvalidMetric);
  EXPECT_DOUBLE_EQ(reg.value(gauge), 0.0);
  f.net->issue_query(0, 1);
  f.engine.run_until(10.0);
  EXPECT_GT(f.net->guid_table_size(), 0u);
  EXPECT_DOUBLE_EQ(reg.value(gauge),
                   static_cast<double>(f.net->guid_table_size()));
}

}  // namespace
}  // namespace ddp::p2p
