// Fault-injection subsystem tests: channel fate determinism and byte
// corruption, the peer crash/stall/slow timeline, and the hardened
// DD-POLICE contract — a zero-probability plane leaves decisions
// bit-identical, a lossy one drives the timeout/retry machinery without
// breaking detection.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/ddpolice.hpp"
#include "fake_overlay.hpp"
#include "flow/flow_port.hpp"
#include "fault/plane.hpp"
#include "flow/network.hpp"
#include "obs/trace.hpp"
#include "topology/generators.hpp"

namespace ddp::fault {
namespace {

// ----------------------------------------------------------------- channel

TEST(UnreliableChannel, DeterministicFatesForSameSeed) {
  ChannelFaultConfig cfg;
  cfg.drop_probability = 0.3;
  cfg.duplicate_probability = 0.1;
  cfg.corrupt_probability = 0.2;
  cfg.delay_jitter_seconds = 2.0;
  util::Rng a(99);
  util::Rng b(99);
  UnreliableChannel ca(cfg, a.fork("ch"));
  UnreliableChannel cb(cfg, b.fork("ch"));
  for (int i = 0; i < 500; ++i) {
    const Transfer ta = ca.transfer();
    const Transfer tb = cb.transfer();
    ASSERT_EQ(ta.delivered, tb.delivered);
    ASSERT_EQ(ta.copies, tb.copies);
    ASSERT_EQ(ta.corrupted, tb.corrupted);
    ASSERT_EQ(ta.delay, tb.delay);  // exact: same draws, same arithmetic
  }
  EXPECT_EQ(ca.counters().dropped, cb.counters().dropped);
  EXPECT_GT(ca.counters().dropped, 0u);
  EXPECT_GT(ca.counters().duplicated, 0u);
  EXPECT_GT(ca.counters().corrupted, 0u);
  EXPECT_GT(ca.counters().delay_seconds_total, 0.0);
}

TEST(UnreliableChannel, QuietChannelIsPerfectAndDrawless) {
  UnreliableChannel ch(ChannelFaultConfig{}, util::Rng(7));
  EXPECT_FALSE(ch.active());
  for (int i = 0; i < 100; ++i) {
    const Transfer t = ch.transfer();
    EXPECT_TRUE(t.delivered);
    EXPECT_FALSE(t.corrupted);
    EXPECT_EQ(t.copies, 1u);
    EXPECT_EQ(t.delay, 0.0);
  }
  // Short-circuit: the quiet channel never even counts, let alone draws.
  EXPECT_EQ(ch.counters().transfers, 0u);
}

TEST(UnreliableChannel, CorruptAlwaysDamagesNonEmptyBuffers) {
  ChannelFaultConfig cfg;
  cfg.corrupt_probability = 1.0;
  UnreliableChannel ch(cfg, util::Rng(21));
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> original(40);
    for (std::size_t k = 0; k < original.size(); ++k) {
      original[k] = static_cast<std::uint8_t>(k * 13);
    }
    auto damaged = original;
    ch.corrupt(damaged);
    // Either truncated (strictly shorter) or bit-flipped (same size,
    // different bytes) — never a silent no-op.
    EXPECT_LE(damaged.size(), original.size());
    EXPECT_NE(damaged, original);
  }
  std::vector<std::uint8_t> empty;
  ch.corrupt(empty);  // must not crash nor grow
  EXPECT_TRUE(empty.empty());
}

// ------------------------------------------------------------- peer faults

TEST(PeerFaultInjector, CrashStopIsPermanentAndFiresOnce) {
  PeerFaultConfig cfg;
  cfg.crash_probability_per_minute = 1.0;
  PeerFaultInjector inj(cfg, 10, util::Rng(5));
  std::vector<int> crashes(10, 0);
  inj.on_crash = [&](PeerId p) { ++crashes[p]; };
  for (int m = 1; m <= 4; ++m) inj.on_minute(static_cast<double>(m));
  EXPECT_EQ(inj.crash_count(), 10u);
  for (PeerId p = 0; p < 10; ++p) {
    EXPECT_EQ(crashes[p], 1) << "peer " << p;
    EXPECT_TRUE(inj.is_crashed(p));
    EXPECT_FALSE(inj.is_responsive(p));
  }
}

TEST(PeerFaultInjector, StallsPairWithResumes) {
  PeerFaultConfig cfg;
  cfg.stall_probability_per_minute = 0.5;
  cfg.stall_duration_seconds = 30.0;
  PeerFaultInjector inj(cfg, 50, util::Rng(11));
  std::uint64_t stall_events = 0;
  std::uint64_t resume_events = 0;
  inj.on_stall = [&](PeerId) { ++stall_events; };
  inj.on_resume = [&](PeerId) { ++resume_events; };
  for (int m = 1; m <= 6; ++m) inj.on_minute(static_cast<double>(m));
  EXPECT_GT(inj.stall_count(), 0u);
  EXPECT_EQ(stall_events, inj.stall_count());
  EXPECT_EQ(resume_events, inj.resume_count());
  EXPECT_GT(inj.resume_count(), 0u);
  EXPECT_LE(inj.resume_count(), inj.stall_count());
}

TEST(PeerFaultInjector, SlowPeersDrawnOnceAtConstruction) {
  PeerFaultConfig cfg;
  cfg.slow_peer_fraction = 0.5;
  cfg.slow_factor = 4.0;
  PeerFaultInjector inj(cfg, 200, util::Rng(3));
  EXPECT_GT(inj.slow_peer_count(), 50u);
  EXPECT_LT(inj.slow_peer_count(), 150u);
  std::size_t slow = 0;
  for (PeerId p = 0; p < 200; ++p) {
    const double f = inj.latency_factor(p);
    EXPECT_TRUE(f == 1.0 || f == 4.0);
    slow += f > 1.0 ? 1u : 0u;
  }
  EXPECT_EQ(slow, inj.slow_peer_count());
}

// --------------------------------------------- DD-POLICE hardening contract

struct World {
  topology::Graph graph;
  std::unique_ptr<topology::BandwidthMap> bandwidth;
  std::unique_ptr<workload::ContentModel> content;
  std::unique_ptr<flow::FlowNetwork> net;
  std::unique_ptr<flow::FlowPort> port;
  std::unique_ptr<core::DdPolice> police;

  explicit World(std::uint64_t seed) {
    util::Rng topo_rng(seed);
    graph = topology::paper_topology(120, topo_rng);
    util::Rng rng(seed + 1);
    util::Rng bw_rng = rng.fork("bw");
    bandwidth =
        std::make_unique<topology::BandwidthMap>(graph.node_count(), bw_rng);
    workload::ContentConfig cc;
    cc.objects = 300;
    cc.mean_replicas = 10.0;
    content = std::make_unique<workload::ContentModel>(cc, graph.node_count());
    flow::FlowConfig fc;
    fc.bandwidth_limits = false;
    net = std::make_unique<flow::FlowNetwork>(graph, *bandwidth, *content, fc,
                                              rng.fork("flow"));
    port = std::make_unique<flow::FlowPort>(*net);
    police = std::make_unique<core::DdPolice>(*port, core::DdPoliceConfig{},
                                              rng.fork("ddp"));
    net->add_minute_hook([this](double m) { police->on_minute(m); });
  }
};

std::vector<core::Decision> run_attacked(bool attach_zero_plane) {
  World w(17);
  FaultPlane plane(FaultConfig{}, w.graph.node_count(), util::Rng(55));
  if (attach_zero_plane) w.police->set_fault_plane(&plane);
  w.net->set_kind(5, PeerKind::kBad);
  w.net->run_minutes(4.0);
  return w.police->decisions();
}

TEST(FaultPlane, ZeroProbabilityPlaneKeepsDecisionsBitIdentical) {
  const auto without = run_attacked(false);
  const auto with = run_attacked(true);
  ASSERT_EQ(without.size(), with.size());
  ASSERT_FALSE(without.empty());  // the attacker must actually be judged
  for (std::size_t i = 0; i < without.size(); ++i) {
    EXPECT_EQ(without[i].minute, with[i].minute);  // exact double equality
    EXPECT_EQ(without[i].judge, with[i].judge);
    EXPECT_EQ(without[i].suspect, with[i].suspect);
    EXPECT_EQ(without[i].g, with[i].g);
    EXPECT_EQ(without[i].s, with[i].s);
    EXPECT_EQ(without[i].via_single, with[i].via_single);
    EXPECT_EQ(without[i].responders, with[i].responders);
  }
}

TEST(FaultPlane, InactivePlaneReportsZeroControlCounters) {
  World w(17);
  FaultPlane plane(FaultConfig{}, w.graph.node_count(), util::Rng(55));
  w.police->set_fault_plane(&plane);
  EXPECT_FALSE(plane.control_active());
  w.net->set_kind(5, PeerKind::kBad);
  w.net->run_minutes(3.0);
  const auto& c = w.police->control_stats();
  EXPECT_EQ(c.timeouts, 0u);
  EXPECT_EQ(c.retries, 0u);
  EXPECT_EQ(c.late_replies, 0u);
  EXPECT_EQ(c.corrupt_rejects, 0u);
}

TEST(FaultPlane, LossyChannelDrivesRetriesYetDetectionSurvives) {
  World w(17);
  FaultConfig fc;
  fc.channel.drop_probability = 0.4;
  fc.channel.corrupt_probability = 0.1;
  FaultPlane plane(fc, w.graph.node_count(), util::Rng(55));
  w.police->set_fault_plane(&plane);
  w.net->set_kind(5, PeerKind::kBad);
  w.net->run_minutes(5.0);
  const auto& c = w.police->control_stats();
  EXPECT_GT(c.retries, 0u);
  EXPECT_GT(c.timeouts, 0u);
  EXPECT_GT(c.backoff_seconds_total, 0.0);
  EXPECT_GT(plane.channel().counters().transfers, 0u);
  // Count-as-zero after exhausted retries inflates indicators, it does not
  // blind the judge: the attacker is still cut.
  bool cut = false;
  for (const auto& d : w.police->decisions()) cut |= d.suspect == 5;
  EXPECT_TRUE(cut);
}

TEST(FaultPlane, CorruptionIsDetectedByWireCodec) {
  World w(17);
  FaultConfig fc;
  fc.channel.corrupt_probability = 1.0;  // every reply arrives mangled
  FaultPlane plane(fc, w.graph.node_count(), util::Rng(55));
  w.police->set_fault_plane(&plane);
  w.net->set_kind(5, PeerKind::kBad);
  w.net->run_minutes(4.0);
  const auto& c = w.police->control_stats();
  // Some corruptions slip through (a bit flip in the GUID or timestamp is
  // invisible to validation) but truncations and id damage must be caught.
  EXPECT_GT(c.corrupt_rejects, 0u);
}

TEST(FaultPlane, CleanRepliesCarryTheQuantizedCounters) {
  // A channel that only jitters damages no bytes: every reply carries the
  // member's counters rounded to whole queries, as the wire's u32 fields
  // hold them. Judges 1 and 2 flag suspect 0 and ask the three others.
  test::FakeOverlay port(5);
  const double out_of_suspect[] = {0.0, 900.4, 612.5, 80.49, 0.5};
  const double into_suspect[] = {0.0, 0.0, 120.51, 33.5, 7.2};
  for (PeerId m = 1; m <= 4; ++m) {
    port.mutable_graph().add_edge(0, m);
    port.set_rate(0, m, out_of_suspect[m]);
    port.set_rate(m, 0, into_suspect[m]);
  }
  FaultConfig fc;
  fc.channel.delay_jitter_seconds = 1.0;  // round trips stay under 5 s
  FaultPlane plane(fc, 5, util::Rng(55));
  ASSERT_TRUE(plane.control_active());
  core::DdPolice police(port, core::DdPoliceConfig{}, util::Rng(1));
  police.set_fault_plane(&plane);
  obs::RingBufferSink sink(4096);
  police.set_trace_sink(&sink);
  police.on_minute(1.0);
  int replies = 0;
  for (const obs::TraceEvent& e : sink.snapshot()) {
    if (e.type != obs::EventType::kTrafficReply) continue;
    ++replies;
    const PeerId member = e.a;
    EXPECT_EQ(e.fields[0].value,
              static_cast<double>(std::llround(into_suspect[member])))
        << "member " << member;
    EXPECT_EQ(e.fields[1].value,
              static_cast<double>(std::llround(out_of_suspect[member])))
        << "member " << member;
  }
  EXPECT_EQ(replies, 2 * 3);
  EXPECT_EQ(police.control_stats().corrupt_rejects, 0u);
  EXPECT_EQ(police.control_stats().timeouts, 0u);
}

}  // namespace
}  // namespace ddp::fault
