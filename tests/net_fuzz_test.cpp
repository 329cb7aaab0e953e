// Deterministic byte-mutation fuzzing of the wire codec. Thousands of
// seeded truncations, bit flips, and length-field rewrites are thrown at
// decode_ex(); the invariants are (a) never crash or read out of bounds,
// (b) every rejection carries a classified DecodeStatus and a non-empty
// detail string, (c) anything accepted re-encodes to a decodable buffer.
// Run under the asan-ubsan preset this doubles as a memory-safety harness.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/bytes.hpp"
#include "net/guid.hpp"
#include "net/message.hpp"
#include "util/rng.hpp"

namespace ddp::net {
namespace {

// One well-formed message per payload type, exercising every field codec.
std::vector<std::vector<std::uint8_t>> corpus() {
  util::Rng rng(0xf022);
  std::vector<Message> msgs;

  Message ping;
  ping.header.guid = Guid::random(rng);
  ping.payload = Ping{};
  msgs.push_back(ping);

  Message pong;
  pong.header.guid = Guid::random(rng);
  Pong po;
  po.port = 6346;
  po.ip = 0x0a000001;
  po.files_shared = 1200;
  po.kilobytes_shared = 987654;
  pong.payload = po;
  msgs.push_back(pong);

  Message query;
  query.header.guid = Guid::random(rng);
  Query q;
  q.min_speed = 64;
  q.search = "metallica one";
  query.payload = std::move(q);
  msgs.push_back(query);

  Message hit;
  hit.header.guid = Guid::random(rng);
  QueryHit qh;
  qh.port = 6347;
  qh.ip = 0xc0a80101;
  qh.speed = 350;
  for (int i = 0; i < 3; ++i) {
    QueryHitRecord rec;
    rec.file_index = static_cast<std::uint32_t>(100 + i);
    rec.file_size = static_cast<std::uint32_t>(4096 * (i + 1));
    rec.file_name = "song-" + std::to_string(i) + ".mp3";
    qh.records.push_back(std::move(rec));
  }
  qh.servent_id = Guid::random(rng);
  hit.payload = std::move(qh);
  msgs.push_back(hit);

  Message traffic;
  traffic.header.guid = Guid::random(rng);
  NeighborTraffic nt;
  nt.source_ip = 0x0a000002;
  nt.suspect_ip = 0x0a000003;
  nt.timestamp = 61;
  nt.outgoing_queries = 240;
  nt.incoming_queries = 7;
  traffic.payload = nt;
  msgs.push_back(traffic);

  Message list;
  list.header.guid = Guid::random(rng);
  NeighborList nl;
  for (std::uint32_t i = 0; i < 6; ++i) {
    nl.entries.push_back({0x0a000100 + i, static_cast<std::uint16_t>(6346 + i)});
  }
  list.payload = std::move(nl);
  msgs.push_back(list);

  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(msgs.size());
  for (const auto& m : msgs) out.push_back(encode(m));
  return out;
}

// The decoder's full contract on an arbitrary buffer: classified outcome,
// agreement between decode() and decode_ex(), and a round-trippable result.
void check_decode_contract(std::span<const std::uint8_t> data) {
  const DecodeResult res = decode_ex(data);
  std::string error;
  std::size_t consumed = 0;
  const auto legacy = decode(data, &error, &consumed);
  EXPECT_EQ(legacy.has_value(), res.message.has_value());
  if (res.message) {
    EXPECT_EQ(res.status, DecodeStatus::kOk);
    EXPECT_EQ(res.consumed, kHeaderSize + res.message->header.payload_length);
    EXPECT_EQ(consumed, res.consumed);
    // Whatever we accepted must survive a re-encode/re-decode cycle.
    const auto bytes = encode(*res.message);
    const DecodeResult again = decode_ex(bytes);
    ASSERT_TRUE(again.message) << decode_status_name(again.status);
    EXPECT_EQ(again.message->type(), res.message->type());
  } else {
    EXPECT_NE(res.status, DecodeStatus::kOk);
    EXPECT_FALSE(res.detail.empty());
    EXPECT_EQ(error, res.detail);
    EXPECT_EQ(res.consumed, 0u);
    EXPECT_NE(decode_status_name(res.status), std::string_view("?"));
  }
}

TEST(NetFuzz, CorpusDecodesCleanly) {
  for (const auto& bytes : corpus()) {
    const DecodeResult res = decode_ex(bytes);
    ASSERT_TRUE(res.message) << decode_status_name(res.status) << ": "
                             << res.detail;
    EXPECT_EQ(res.consumed, bytes.size());
  }
}

TEST(NetFuzz, TruncationsNeverCrashAndAlwaysClassify) {
  for (const auto& bytes : corpus()) {
    for (std::size_t len = 0; len <= bytes.size(); ++len) {
      std::vector<std::uint8_t> cut(bytes.begin(),
                                    bytes.begin() + static_cast<std::ptrdiff_t>(len));
      check_decode_contract(cut);
      const DecodeResult res = decode_ex(cut);
      if (len < kHeaderSize) {
        EXPECT_EQ(res.status, DecodeStatus::kShortHeader);
      } else if (len < bytes.size()) {
        // Header intact, body missing bytes: the declared length no longer
        // fits, which must be caught before any body parsing.
        EXPECT_EQ(res.status, DecodeStatus::kTruncatedPayload);
      } else {
        EXPECT_EQ(res.status, DecodeStatus::kOk);
      }
    }
  }
}

TEST(NetFuzz, SeededBitFlipsNeverCrash) {
  util::Rng rng(20260806);
  const auto seeds = corpus();
  for (int iter = 0; iter < 4000; ++iter) {
    auto bytes = seeds[rng.below(static_cast<std::uint32_t>(seeds.size()))];
    const std::uint32_t flips = 1 + rng.below(8);
    for (std::uint32_t f = 0; f < flips; ++f) {
      const auto at = rng.below(static_cast<std::uint32_t>(bytes.size()));
      bytes[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    }
    if (rng.chance(0.3)) {
      bytes.resize(rng.below(static_cast<std::uint32_t>(bytes.size()) + 1));
    }
    check_decode_contract(bytes);
  }
}

TEST(NetFuzz, RandomGarbageNeverCrashes) {
  util::Rng rng(77);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> junk(rng.below(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    check_decode_contract(junk);
  }
}

TEST(NetFuzz, OversizedLengthFieldIsRejectedBeforeBodyWork) {
  auto bytes = corpus()[4];  // Neighbor_Traffic
  // Rewrite the little-endian length at offset 19 to a huge value. The
  // buffer is nowhere near that long, but the cap must fire first so a
  // flipped high bit can never drive allocation.
  bytes[19] = 0xff;
  bytes[20] = 0xff;
  bytes[21] = 0xff;
  bytes[22] = 0x7f;
  const DecodeResult res = decode_ex(bytes);
  EXPECT_FALSE(res.message);
  EXPECT_EQ(res.status, DecodeStatus::kOversizedPayload);
  EXPECT_EQ(decode_status_name(res.status), "oversized-payload");

  // Just past the cap is rejected; exactly at the cap falls through to the
  // truncation check instead.
  const std::uint32_t cap = static_cast<std::uint32_t>(kMaxPayloadLength);
  for (int i = 0; i < 4; ++i) {
    bytes[19 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(((cap + 1) >> (8 * i)) & 0xff);
  }
  EXPECT_EQ(decode_ex(bytes).status, DecodeStatus::kOversizedPayload);
  for (int i = 0; i < 4; ++i) {
    bytes[19 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((cap >> (8 * i)) & 0xff);
  }
  EXPECT_EQ(decode_ex(bytes).status, DecodeStatus::kTruncatedPayload);
}

TEST(NetFuzz, UnknownTypeByteClassified) {
  auto bytes = corpus()[0];  // Ping
  bytes[16] = 0x42;
  const DecodeResult res = decode_ex(bytes);
  EXPECT_EQ(res.status, DecodeStatus::kUnknownType);
  EXPECT_EQ(res.detail, "unknown payload type byte");
}

TEST(NetFuzz, ByteReaderSurvivesRandomSlices) {
  util::Rng rng(5150);
  std::vector<std::uint8_t> blob(256);
  for (auto& b : blob) b = static_cast<std::uint8_t>(rng.below(256));
  for (int iter = 0; iter < 2000; ++iter) {
    const auto start = rng.below(static_cast<std::uint32_t>(blob.size()));
    const auto len =
        rng.below(static_cast<std::uint32_t>(blob.size()) - start + 1);
    ByteReader r(std::span<const std::uint8_t>(blob.data() + start, len));
    // A random read program; sticky failure means later reads return zeros
    // instead of touching memory.
    for (int op = 0; op < 12; ++op) {
      switch (rng.below(6)) {
        case 0: (void)r.u8(); break;
        case 1: (void)r.u16(); break;
        case 2: (void)r.u32(); break;
        case 3: (void)r.u64(); break;
        case 4: {
          std::array<std::uint8_t, 64> out{};
          r.read_into(std::span<std::uint8_t>(out).first(rng.below(64)));
          break;
        }
        default: (void)r.cstring(); break;
      }
    }
    if (!r.ok()) {
      EXPECT_EQ(r.u32(), 0u);  // failure is sticky and value-safe
    }
  }
}

}  // namespace
}  // namespace ddp::net
