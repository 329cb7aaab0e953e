// Checkpoint/restore tests: snapshot framing integrity (corrupt, truncated
// and mismatched images are rejected, never half-loaded), per-subsystem
// save/load fidelity (save -> load -> save is byte-identical), the engine
// tag-rebinding contract, guid-table probe-layout validation, and the
// end-to-end determinism property — a run checkpointed mid-schedule and
// resumed in a fresh runtime finishes in exactly the state of an
// uninterrupted run.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/ddpolice.hpp"
#include "experiments/runtime.hpp"
#include "fault/plane.hpp"
#include "experiments/scenario.hpp"
#include "flow/network.hpp"
#include "p2p/guid_table.hpp"
#include "sim/engine.hpp"
#include "snapshot/snapshot.hpp"
#include "topology/bandwidth.hpp"
#include "topology/generators.hpp"
#include "util/rng.hpp"
#include "workload/content.hpp"

namespace ddp {
namespace {

using experiments::ScenarioConfig;
using experiments::ScenarioRuntime;
using snapshot::Reader;
using snapshot::SnapshotError;
using snapshot::Writer;

// ---------------------------------------------------------------------------
// Framing

TEST(SnapshotFraming, RoundTripsPrimitives) {
  Writer w;
  w.begin_section(snapshot::section_id("TEST"));
  w.u8(7);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.f64(3.5);
  w.boolean(true);
  w.str("hello");
  w.end_section();
  const auto bytes = w.finish(0x1122334455667788ull);

  Reader r = Reader::from_bytes(bytes);
  EXPECT_EQ(r.config_digest(), 0x1122334455667788ull);
  r.begin_section(snapshot::section_id("TEST"));
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.5);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "hello");
  r.end_section();
  EXPECT_EQ(r.sections_remaining(), 0u);
}

TEST(SnapshotFraming, RejectsBadMagicAndVersion) {
  Writer w;
  w.begin_section(snapshot::section_id("TEST"));
  w.u32(1);
  w.end_section();
  const auto bytes = w.finish(1);

  auto bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(Reader::from_bytes(bad_magic), SnapshotError);

  auto bad_version = bytes;
  bad_version[4] ^= 0xff;  // header layout: magic u32, version u32, ...
  EXPECT_THROW(Reader::from_bytes(bad_version), SnapshotError);
}

TEST(SnapshotFraming, RejectsPayloadCorruption) {
  Writer w;
  w.begin_section(snapshot::section_id("TEST"));
  for (int i = 0; i < 64; ++i) w.u64(static_cast<std::uint64_t>(i));
  w.end_section();
  const auto bytes = w.finish(1);

  // Flip one bit in the middle of the payload: the CRC sweep in
  // from_bytes must reject it before any value is readable.
  auto corrupt = bytes;
  corrupt[bytes.size() / 2] ^= 0x01;
  EXPECT_THROW(Reader::from_bytes(corrupt), SnapshotError);
}

TEST(SnapshotFraming, SectionOrderIsEnforced) {
  Writer w;
  w.begin_section(snapshot::section_id("AAAA"));
  w.u32(1);
  w.end_section();
  const auto bytes = w.finish(1);
  Reader r = Reader::from_bytes(bytes);
  EXPECT_THROW(r.begin_section(snapshot::section_id("BBBB")), SnapshotError);
}

TEST(SnapshotFraming, BoundedReadsRejectOversizedCounts) {
  Writer w;
  w.begin_section(snapshot::section_id("TEST"));
  w.size(1000);
  w.end_section();
  const auto bytes = w.finish(1);
  Reader r = Reader::from_bytes(bytes);
  r.begin_section(snapshot::section_id("TEST"));
  EXPECT_THROW(r.size(999), SnapshotError);
}

TEST(SnapshotFraming, CountsAreBoundedByTheBytesLeft) {
  // A count under the loader's constant bound but larger than the section
  // could hold (every element takes at least one byte) is rejected before
  // any loader sizes a container by it. A CRC is no defence: a crafted
  // file carries a matching one.
  Writer w;
  w.begin_section(snapshot::section_id("TEST"));
  w.size(1u << 24);
  for (int i = 0; i < 10; ++i) w.u8(0);
  w.end_section();
  Reader r = Reader::from_bytes(w.finish(1));
  r.begin_section(snapshot::section_id("TEST"));
  try {
    (void)r.size(1u << 24);
    FAIL() << "a count beyond the section's bytes was accepted";
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("16777216"), std::string::npos) << what;
    EXPECT_NE(what.find("10 bytes left"), std::string::npos) << what;
  }
}

TEST(SnapshotFraming, CountEqualToTheBytesLeftIsAccepted) {
  Writer w;
  w.begin_section(snapshot::section_id("TEST"));
  w.size(3);
  for (int i = 0; i < 3; ++i) w.boolean(true);
  w.end_section();
  Reader r = Reader::from_bytes(w.finish(1));
  r.begin_section(snapshot::section_id("TEST"));
  ASSERT_EQ(r.size(1u << 24), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(r.boolean());
  r.end_section();
}

// ---------------------------------------------------------------------------
// CRC-32

/// One byte of the bitwise CRC-32 loop (reflected 0xEDB88320) that
/// snapshot::crc32 must reproduce; the caller owns the pre- and
/// post-inversion, so a running register yields every prefix's CRC.
std::uint32_t crc32_bitwise_step(std::uint32_t crc, std::uint8_t byte) {
  crc ^= byte;
  for (int b = 0; b < 8; ++b) {
    crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1u)));
  }
  return crc;
}

TEST(SnapshotCrc, KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(snapshot::crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                            check.size()),
            0xcbf43926u);
  EXPECT_EQ(snapshot::crc32(nullptr, 0), 0u);
}

TEST(SnapshotCrc, MatchesTheBitwiseLoopAtEveryLengthAndOffset) {
  constexpr std::size_t kMaxLen = 4099;
  constexpr std::size_t kOffsets = 8;
  util::Rng rng(15);
  std::vector<std::uint8_t> buf(kMaxLen + kOffsets);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng.next_u32());
  for (std::size_t start = 0; start < kOffsets; ++start) {
    const std::uint8_t* p = buf.data() + start;
    std::uint32_t reg = 0xffffffffu;
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(snapshot::crc32(p, len), reg ^ 0xffffffffu)
          << "offset " << start << ", length " << len;
      if (len < kMaxLen) reg = crc32_bitwise_step(reg, p[len]);
    }
  }
}

// ---------------------------------------------------------------------------
// Engine tag rebinding

TEST(EngineSnapshot, TaggedEventsRoundTripAndReplayIdentically) {
  sim::Engine a;
  std::vector<int> fired_a;
  for (int i = 0; i < 5; ++i) {
    a.schedule_at(10.0 + i, [&fired_a, i] { fired_a.push_back(i); },
                  obs::EventCategory::kGeneric, 100 + static_cast<std::uint64_t>(i));
  }
  a.schedule_every(7.0, [&fired_a] { fired_a.push_back(-1); }, -1.0,
                   obs::EventCategory::kPeriodic, 7);
  a.run_until(9.0);  // fires the first periodic tick at t=7

  Writer w;
  w.begin_section(snapshot::section_id("ENG "));
  a.save(w);
  w.end_section();
  const auto bytes = w.finish(0);

  sim::Engine b;
  std::vector<int> fired_b;
  Reader r = Reader::from_bytes(bytes);
  r.begin_section(snapshot::section_id("ENG "));
  b.load(r, [&fired_b](std::uint64_t tag, SimTime, SimTime,
                       obs::EventCategory) -> sim::Engine::Callback {
    if (tag == 7) return [&fired_b] { fired_b.push_back(-1); };
    const int i = static_cast<int>(tag - 100);
    return [&fired_b, i] { fired_b.push_back(i); };
  });
  r.end_section();

  std::string why;
  ASSERT_TRUE(b.consistent(&why)) << why;
  EXPECT_EQ(b.now(), a.now());
  EXPECT_EQ(b.pending(), a.pending());

  fired_a.clear();
  a.run_until(30.0);
  b.run_until(30.0);
  EXPECT_EQ(fired_a, fired_b);
  EXPECT_TRUE(b.consistent(&why)) << why;
}

TEST(EngineSnapshot, TaglessPendingEventIsNotCheckpointable) {
  sim::Engine e;
  e.schedule_at(5.0, [] {});  // default tag 0: not restorable
  Writer w;
  w.begin_section(snapshot::section_id("ENG "));
  EXPECT_THROW(e.save(w), SnapshotError);
}

// ---------------------------------------------------------------------------
// GuidTable probe-layout validation

net::Guid test_guid(std::uint64_t n) {
  net::Guid g{};
  for (int i = 0; i < 8; ++i) {
    g.bytes[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(n >> (8 * i));
  }
  return g;
}

TEST(GuidTableSnapshot, RawSlotsRoundTrip) {
  p2p::GuidTable a;
  for (std::uint64_t n = 0; n < 100; ++n) {
    a.upsert(test_guid(n), static_cast<PeerId>(n % 7), 1.0 + static_cast<double>(n));
  }
  p2p::GuidTable b;
  ASSERT_TRUE(b.restore_raw(a.raw_slots()));
  EXPECT_EQ(b.size(), a.size());
  for (std::uint64_t n = 0; n < 100; ++n) {
    const auto* e = b.find(test_guid(n));
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->from, static_cast<PeerId>(n % 7));
    EXPECT_EQ(e->when, 1.0 + static_cast<double>(n));
  }
  // The layout itself — not just the membership — must be preserved, since
  // future prune() compactions re-insert in slot order.
  const auto& sa = a.raw_slots();
  const auto& sb = b.raw_slots();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].used, sb[i].used);
    if (sa[i].used) {
      EXPECT_EQ(sa[i].guid, sb[i].guid);
    }
  }
}

TEST(GuidTableSnapshot, RejectsInvalidLayouts) {
  p2p::GuidTable t;
  // Capacity must be a power of two.
  EXPECT_FALSE(t.restore_raw(std::vector<p2p::GuidTable::Entry>(3)));
  // Load factor must stay at or below 1/2.
  std::vector<p2p::GuidTable::Entry> overfull(4);
  for (int i = 0; i < 3; ++i) {
    overfull[static_cast<std::size_t>(i)] = {test_guid(static_cast<std::uint64_t>(i)),
                                             1.0, 0, true};
  }
  EXPECT_FALSE(t.restore_raw(overfull));
  // Every used entry must be reachable from its hash home by linear
  // probing over used slots: an empty slot inside the chain breaks it.
  std::vector<p2p::GuidTable::Entry> broken(8);
  const net::Guid g = test_guid(42);
  const std::size_t home = net::GuidHash{}(g) & 7u;
  broken[(home + 2) & 7u] = {g, 1.0, 0, true};  // (home+1) left empty
  EXPECT_FALSE(t.restore_raw(broken));
}

// ---------------------------------------------------------------------------
// Flow section: round trip, the always-zero nxt block and the always-zero
// entries past the TTL

struct FlowFixture {
  topology::Graph graph;
  topology::BandwidthMap bandwidth;
  workload::ContentModel content;
  flow::FlowNetwork net;

  explicit FlowFixture(util::Rng topo_rng, const flow::FlowConfig& cfg = {})
      : graph(topology::paper_topology(120, topo_rng)),
        bandwidth(graph.node_count(), topo_rng),
        content(workload::ContentConfig{}, graph.node_count()),
        net(graph, bandwidth, content, cfg, util::Rng(5)) {
    for (PeerId a = 0; a < 4; ++a) net.set_kind(a, PeerKind::kBad);
  }
};

std::vector<std::uint8_t> flow_image(const flow::FlowNetwork& net) {
  Writer w;
  w.begin_section(snapshot::section_id("FLOW"));
  net.save(w);
  w.end_section();
  return w.finish(0);
}

// Header (24 bytes) plus one section header (16 bytes) precede the payload
// of a single-section image.
constexpr std::size_t kFlowPayloadOffset = 40;

std::vector<std::uint8_t> reframe_flow_payload(
    const std::vector<std::uint8_t>& payload) {
  Writer w;
  w.begin_section(snapshot::section_id("FLOW"));
  for (const std::uint8_t b : payload) w.u8(b);
  w.end_section();
  return w.finish(0);
}

void load_flow_image(flow::FlowNetwork& net,
                     const std::vector<std::uint8_t>& image) {
  Reader r = Reader::from_bytes(image);
  r.begin_section(snapshot::section_id("FLOW"));
  net.load(r);
  r.end_section();
}

TEST(FlowSnapshot, MidRunSectionRoundTripsByteIdentically) {
  FlowFixture a(util::Rng(3));
  a.net.run_minutes(1.5);  // mid-minute: running counters are non-zero
  const auto image = flow_image(a.net);

  flow::FlowNetwork b(a.graph, a.bandwidth, a.content, flow::FlowConfig{},
                      util::Rng(99));
  load_flow_image(b, image);
  EXPECT_EQ(flow_image(b), image);

  // The restored engine carries on exactly like the original.
  a.net.run_minutes(1.0);
  b.run_minutes(1.0);
  EXPECT_EQ(flow_image(b), flow_image(a.net));
}

// The jobs setting leaves no mark on a flow image: a mid-minute image saved
// at one worker count loads at another, and each restored engine carries on
// exactly like a run at either count that was never saved.
TEST(FlowSnapshot, ImageRestoresAcrossJobs) {
  flow::FlowConfig one;
  one.jobs = 1;
  flow::FlowConfig four;
  four.jobs = 4;
  FlowFixture saved_at_one(util::Rng(6), one);
  FlowFixture saved_at_four(util::Rng(6), four);
  FlowFixture never_saved(util::Rng(6), one);
  saved_at_one.net.run_minutes(1.5);
  saved_at_four.net.run_minutes(1.5);
  never_saved.net.run_minutes(2.5);
  const auto image_one = flow_image(saved_at_one.net);
  const auto image_four = flow_image(saved_at_four.net);
  EXPECT_EQ(image_one, image_four);

  flow::FlowNetwork at_four(saved_at_one.graph, saved_at_one.bandwidth,
                            saved_at_one.content, four, util::Rng(99));
  load_flow_image(at_four, image_one);
  flow::FlowNetwork at_one(saved_at_four.graph, saved_at_four.bandwidth,
                           saved_at_four.content, one, util::Rng(99));
  load_flow_image(at_one, image_four);
  EXPECT_EQ(flow_image(at_four), image_one);
  EXPECT_EQ(flow_image(at_one), image_four);

  at_four.run_minutes(1.0);
  at_one.run_minutes(1.0);
  const auto expected = flow_image(never_saved.net);
  EXPECT_EQ(flow_image(at_four), expected);
  EXPECT_EQ(flow_image(at_one), expected);
}

TEST(FlowSnapshot, RejectsNonZeroNxtBlock) {
  FlowFixture a(util::Rng(4));
  a.net.run_minutes(1.5);
  const auto image = flow_image(a.net);
  std::vector<std::uint8_t> payload(
      image.begin() + static_cast<long>(kFlowPayloadOffset), image.end());

  // Payload layout: peer count + one role byte per peer, the issue-scale
  // vector (count + doubles), the entry count, then per entry the slot,
  // 16 cur doubles and 16 nxt doubles.
  const std::size_t n = a.graph.node_count();
  const std::size_t entries_at = 8 + n + 8 + 8 * n;
  std::uint64_t entries = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    entries |= static_cast<std::uint64_t>(payload[entries_at + i]) << (8 * i);
  }
  ASSERT_GT(entries, 0u);
  const std::size_t nxt_at = entries_at + 8 + 4 + 16 * 8;
  for (std::size_t i = 0; i < 16 * 8; ++i) ASSERT_EQ(payload[nxt_at + i], 0);

  // Re-framing the untouched payload loads: the guard is the nxt check,
  // not the framing.
  flow::FlowNetwork ok(a.graph, a.bandwidth, a.content, flow::FlowConfig{},
                       util::Rng(1));
  EXPECT_NO_THROW(load_flow_image(ok, reframe_flow_payload(payload)));

  // 1.0 as a little-endian double in the first nxt slot of entry 0.
  payload[nxt_at + 6] = 0xf0;
  payload[nxt_at + 7] = 0x3f;
  flow::FlowNetwork victim(a.graph, a.bandwidth, a.content,
                           flow::FlowConfig{}, util::Rng(1));
  try {
    load_flow_image(victim, reframe_flow_payload(payload));
    FAIL() << "a non-zero nxt block was accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("nxt"), std::string::npos) << e.what();
  }
}

TEST(FlowSnapshot, RejectsVolumePastTheTtl) {
  FlowFixture a(util::Rng(4));
  a.net.run_minutes(1.5);
  const auto image = flow_image(a.net);
  std::vector<std::uint8_t> payload(
      image.begin() + static_cast<long>(kFlowPayloadOffset), image.end());
  const std::size_t n = a.graph.node_count();
  const std::size_t cur_at = 8 + n + 8 + 8 * n + 8 + 4;

  // 1.0 as a little-endian double at remaining TTL 7 (the default TTL is
  // 7, so entries 0-6 are live) of the good class of entry 0.
  payload[cur_at + 7 * 8 + 6] = 0xf0;
  payload[cur_at + 7 * 8 + 7] = 0x3f;
  flow::FlowNetwork victim(a.graph, a.bandwidth, a.content,
                           flow::FlowConfig{}, util::Rng(1));
  try {
    load_flow_image(victim, reframe_flow_payload(payload));
    FAIL() << "volume past the TTL was accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("TTL"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Scenario runtime: fidelity, determinism, rejection

// Small but hostile configuration: pulsing flooding agents with rejoin,
// churn, control/peer faults, quarantine cuts, adaptive bands, a flash
// crowd, priority shedding and partition repair — every snapshot section
// is exercised.
ScenarioConfig hostile_config(std::uint64_t seed) {
  ScenarioConfig cfg =
      experiments::paper_scenario(150, 15, defense::Kind::kDdPolice, seed);
  cfg.total_minutes = 14.0;
  cfg.warmup_minutes = 4.0;
  cfg.attack.start_minute = 3.0;
  cfg.attack.rejoin = true;
  cfg.attack.sourcing = attack::SourcingStrategy::kPulse;
  cfg.attack.pulse_on_minutes = 2.0;
  cfg.attack.pulse_off_minutes = 3.0;
  cfg.ddpolice.adaptive.enabled = true;
  cfg.flash.enabled = true;
  cfg.flash.start_minute = 6.0;
  cfg.flash.surge_minutes = 3.0;
  cfg.flash.surge_factor = 10.0;
  cfg.flash.participation = 0.2;
  cfg.ddpolice.cut_policy = core::CutPolicy::kQuarantine;
  cfg.ddpolice.quarantine_minutes = 4.0;
  cfg.ddpolice.probation_minutes = 2.0;
  cfg.flow.admission = flow::AdmissionPolicy::kPriority;
  cfg.repair_partitions = true;
  cfg.fault.channel.drop_probability = 0.03;
  cfg.fault.channel.corrupt_probability = 0.01;
  cfg.fault.peer.crash_probability_per_minute = 1e-3;
  cfg.fault.peer.stall_probability_per_minute = 3e-3;
  return cfg;
}

TEST(RuntimeSnapshot, SaveLoadSaveIsByteIdentical) {
  const ScenarioConfig cfg = hostile_config(11);
  ScenarioRuntime a(cfg);
  a.run_to_minute(6.0);
  const auto bytes = a.save();

  ScenarioRuntime b(cfg);
  b.load_bytes(bytes);
  EXPECT_EQ(b.current_minute(), 6.0);
  // Byte-identical re-serialization covers every subsystem's fields at
  // once: any lossy or reordered load shows up as a diff here.
  EXPECT_EQ(b.save(), bytes);
}

TEST(RuntimeSnapshot, CrashMidScheduleResumesToIdenticalState) {
  // Property test over several seeds and checkpoint minutes: interrupting
  // at minute k and resuming in a fresh runtime must land in exactly the
  // uninterrupted end state (final snapshots byte-equal, history equal).
  for (std::uint64_t seed : {3ull, 17ull, 29ull}) {
    const ScenarioConfig cfg = hostile_config(seed);
    const double k = 3.0 + static_cast<double>(seed % 7);

    ScenarioRuntime full(cfg);
    full.run_all();
    const auto full_bytes = full.save();
    const auto full_result = full.result();

    ScenarioRuntime first(cfg);
    first.run_to_minute(k);
    const auto mid = first.save();

    ScenarioRuntime resumed(cfg);
    resumed.load_bytes(mid);
    resumed.run_all();
    EXPECT_EQ(resumed.save(), full_bytes) << "seed " << seed << " k " << k;

    const auto resumed_result = resumed.result();
    ASSERT_EQ(resumed_result.history.size(), full_result.history.size());
    for (std::size_t i = 0; i < full_result.history.size(); ++i) {
      EXPECT_EQ(resumed_result.history[i].success_rate,
                full_result.history[i].success_rate);
      EXPECT_EQ(resumed_result.history[i].traffic_messages,
                full_result.history[i].traffic_messages);
      EXPECT_EQ(resumed_result.history[i].dropped,
                full_result.history[i].dropped);
    }
    EXPECT_EQ(resumed_result.decisions.size(), full_result.decisions.size());
  }
}

TEST(RuntimeSnapshot, RejectsSnapshotFromDifferentConfig) {
  const ScenarioConfig cfg = hostile_config(5);
  ScenarioRuntime a(cfg);
  a.run_to_minute(3.0);
  const auto bytes = a.save();

  ScenarioConfig other = cfg;
  other.flow.attack_target_per_minute *= 2.0;
  ScenarioRuntime b(other);
  try {
    b.load_bytes(bytes);
    FAIL() << "snapshot from a different config was accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("config digest"), std::string::npos);
  }
}

TEST(RuntimeSnapshot, HorizonMayBeExtendedOnRestore) {
  // total_minutes is a run-shape knob, not behaviour: a snapshot taken
  // under minutes=6 must resume under minutes=10 and match a straight
  // 10-minute run.
  ScenarioConfig short_cfg = hostile_config(23);
  short_cfg.total_minutes = 6.0;
  ScenarioRuntime first(short_cfg);
  first.run_all();
  const auto mid = first.save();

  ScenarioConfig long_cfg = hostile_config(23);
  long_cfg.total_minutes = 10.0;
  ScenarioRuntime resumed(long_cfg);
  resumed.load_bytes(mid);
  resumed.run_all();

  ScenarioRuntime full(long_cfg);
  full.run_all();
  EXPECT_EQ(resumed.save(), full.save());
}

TEST(RuntimeSnapshot, FuzzedCorruptionIsAlwaysRejected) {
  const ScenarioConfig cfg = hostile_config(7);
  ScenarioRuntime a(cfg);
  a.run_to_minute(5.0);
  const auto bytes = a.save();

  // Single-byte flips at deterministic positions across the image: every
  // one must throw SnapshotError (the framing CRCs cover payloads; the
  // loader's structural checks cover headers and section ids).
  util::Rng rng(99);
  for (int trial = 0; trial < 48; ++trial) {
    auto mutated = bytes;
    const auto pos = static_cast<std::size_t>(
        rng.range(0, static_cast<std::int64_t>(bytes.size()) - 1));
    mutated[pos] ^= static_cast<std::uint8_t>(1u << (trial % 8));
    ScenarioRuntime victim(cfg);
    EXPECT_THROW(victim.load_bytes(mutated), SnapshotError)
        << "flip at byte " << pos << " was accepted";
  }

  // Truncation at deterministic lengths, including 0 and just-short:
  // never accepted, never crashes.
  for (int trial = 0; trial < 24; ++trial) {
    const auto len = static_cast<std::size_t>(
        rng.range(0, static_cast<std::int64_t>(bytes.size()) - 1));
    std::vector<std::uint8_t> trunc(bytes.begin(),
                                    bytes.begin() + static_cast<long>(len));
    ScenarioRuntime victim(cfg);
    EXPECT_THROW(victim.load_bytes(trunc), SnapshotError)
        << "truncation to " << len << " bytes was accepted";
  }
}

TEST(RuntimeSnapshot, ViewInvariantsHoldAfterRestore) {
  const ScenarioConfig cfg = hostile_config(13);
  ScenarioRuntime a(cfg);
  a.run_to_minute(8.0);
  ScenarioRuntime b(cfg);
  b.load_bytes(a.save());

  const experiments::ScenarioView v = b.view();
  ASSERT_NE(v.net, nullptr);
  std::string why;
  EXPECT_TRUE(v.net->graph().edge_index().consistent(&why)) << why;
  ASSERT_NE(v.fault, nullptr);
  EXPECT_TRUE(v.fault->peers().timeline().consistent(&why)) << why;
  ASSERT_NE(v.ledger, nullptr);
  EXPECT_TRUE(v.ledger->consistent(&why)) << why;
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(RuntimeSnapshot, EachDefenseKindImageIsPinned) {
  // DEFN holds DD-POLICE's or naive-cut's state, and nothing for none or
  // fair-share. Each kind's whole image is pinned by hash, so a change to
  // how any kind writes its state shows here, and each image must restore
  // into a fresh runtime and re-serialize to the same bytes.
  struct Pin {
    defense::Kind kind;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {defense::Kind::kNone, 0xd916b69bea55ec59ULL},
      {defense::Kind::kNaiveCut, 0xa0165d8d8332d680ULL},
      {defense::Kind::kFairShare, 0x9e4bf2cf5dec9cbcULL},
      {defense::Kind::kDdPolice, 0xb8bcf69865598e40ULL},
  };
  for (const Pin& pin : pins) {
    ScenarioConfig cfg = experiments::paper_scenario(150, 10, pin.kind, 23);
    cfg.total_minutes = 8.0;
    cfg.attack.start_minute = 3.0;
    ScenarioRuntime a(cfg);
    a.run_all();
    const bool cuts = pin.kind == defense::Kind::kNaiveCut ||
                      pin.kind == defense::Kind::kDdPolice;
    EXPECT_EQ(!a.result().decisions.empty(), cuts)
        << defense::kind_name(pin.kind);
    const auto bytes = a.save();
    EXPECT_EQ(fnv1a(bytes), pin.hash)
        << defense::kind_name(pin.kind) << " 0x" << std::hex << fnv1a(bytes);

    ScenarioRuntime b(cfg);
    b.load_bytes(bytes);
    EXPECT_EQ(b.save(), bytes) << defense::kind_name(pin.kind);
  }
}

}  // namespace
}  // namespace ddp
