// Wire-format tests: bounds-checked byte codecs, GUIDs, and the Gnutella
// 0.6 message framing including the paper's Neighbor_Traffic extension.
// The Table 1 layout is asserted byte-for-byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "net/bytes.hpp"
#include "net/guid.hpp"
#include "net/message.hpp"
#include "util/rng.hpp"

namespace ddp::net {
namespace {

// ---------------------------------------------------------------- bytes

TEST(Bytes, LittleEndianEncoding) {
  ByteWriter w;
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  const auto& d = w.data();
  ASSERT_EQ(d.size(), 6u);
  EXPECT_EQ(d[0], 0x34);
  EXPECT_EQ(d[1], 0x12);
  EXPECT_EQ(d[2], 0xef);
  EXPECT_EQ(d[3], 0xbe);
  EXPECT_EQ(d[4], 0xad);
  EXPECT_EQ(d[5], 0xde);
}

TEST(Bytes, RoundTripAllWidths) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0x01020304);
  w.u64(0x1122334455667788ULL);
  w.cstring("hello");
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0x01020304u);
  EXPECT_EQ(r.u64(), 0x1122334455667788ULL);
  EXPECT_EQ(r.cstring(), "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, ReaderFailsOnShortInput) {
  const std::uint8_t buf[] = {1, 2};
  ByteReader r(buf);
  (void)r.u32();
  EXPECT_FALSE(r.ok());
  // Sticky failure: every subsequent read also fails.
  EXPECT_EQ(r.u8(), 0);
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, CstringWithoutNulFails) {
  const std::uint8_t buf[] = {'a', 'b', 'c'};
  ByteReader r(buf);
  (void)r.cstring();
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, EmptyCstring) {
  ByteWriter w;
  w.cstring("");
  ByteReader r(w.data());
  EXPECT_EQ(r.cstring(), "");
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, PatchU32) {
  ByteWriter w;
  w.u32(0);
  w.u8(9);
  w.patch_u32(0, 0xcafebabe);
  ByteReader r(w.data());
  EXPECT_EQ(r.u32(), 0xcafebabeu);
  EXPECT_EQ(r.u8(), 9);
}

TEST(Bytes, Ipv4Rendering) {
  EXPECT_EQ(ipv4_to_string(0x0a000001), "10.0.0.1");
  EXPECT_EQ(ipv4_to_string(0xffffffff), "255.255.255.255");
}

// -------------------------------------------------------------- address

TEST(Address, PeerAddressBijection) {
  for (PeerId id : {PeerId{0}, PeerId{1}, PeerId{1999}, PeerId{0x00ffffff}}) {
    EXPECT_EQ(peer_from_address(peer_address(id)), id);
  }
  EXPECT_EQ(peer_from_address(0x0b000001), kInvalidPeer);  // not 10/8
}

// ----------------------------------------------------------------- guid

TEST(Guid, RandomGuidsAreDistinct) {
  util::Rng rng(1);
  const Guid a = Guid::random(rng);
  const Guid b = Guid::random(rng);
  EXPECT_NE(a, b);
}

TEST(Guid, ModernServentMarkers) {
  util::Rng rng(2);
  const Guid g = Guid::random(rng);
  EXPECT_EQ(g.bytes[8], 0xff);
  EXPECT_EQ(g.bytes[15], 0x00);
}

TEST(Guid, HexRendering) {
  Guid g;
  g.bytes.fill(0);
  g.bytes[0] = 0xab;
  const std::string s = g.to_string();
  ASSERT_EQ(s.size(), 32u);
  EXPECT_EQ(s.substr(0, 2), "ab");
}

TEST(Guid, HashSpreadsValues) {
  util::Rng rng(3);
  GuidHash h;
  std::set<std::size_t> hashes;
  for (int i = 0; i < 1000; ++i) hashes.insert(h(Guid::random(rng)));
  EXPECT_GT(hashes.size(), 995u);
}

// ------------------------------------------------------------- messages

Message make(PayloadType type, util::Rng& rng) {
  Message m;
  m.header.guid = Guid::random(rng);
  m.header.ttl = 7;
  m.header.hops = 2;
  switch (type) {
    case PayloadType::kPing:
      m.payload = Ping{};
      break;
    case PayloadType::kPong:
      m.payload = Pong{6346, 0x0a000005, 120, 44000};
      break;
    case PayloadType::kQuery:
      m.payload = Query{0, "free mp3"};
      break;
    case PayloadType::kQueryHit: {
      QueryHit qh;
      qh.port = 6346;
      qh.ip = 0x0a000007;
      qh.speed = 350;
      qh.records.push_back({12, 1 << 20, "track01.mp3"});
      qh.records.push_back({77, 9999, "movie.avi"});
      qh.servent_id = Guid::random(rng);
      m.payload = qh;
      break;
    }
    case PayloadType::kNeighborTraffic:
      m.payload = NeighborTraffic{0x0a000001, 0x0a000002, 1234, 20000, 312};
      break;
    case PayloadType::kNeighborList: {
      NeighborList nl;
      nl.entries.push_back({0x0a000001, 6346});
      nl.entries.push_back({0x0a000009, 6347});
      m.payload = nl;
      break;
    }
  }
  return m;
}

class MessageRoundTripTest : public ::testing::TestWithParam<PayloadType> {};

TEST_P(MessageRoundTripTest, EncodeDecodeIdentity) {
  util::Rng rng(42);
  const Message in = make(GetParam(), rng);
  const auto bytes = encode(in);
  std::string err;
  std::size_t consumed = 0;
  const auto out = decode(bytes, &err, &consumed);
  ASSERT_TRUE(out.has_value()) << err;
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(out->header.guid, in.header.guid);
  EXPECT_EQ(out->header.ttl, in.header.ttl);
  EXPECT_EQ(out->header.hops, in.header.hops);
  EXPECT_EQ(out->type(), GetParam());
  EXPECT_EQ(out->header.payload_length, bytes.size() - kHeaderSize);

  // The appending form writes the same frame after the bytes already there.
  std::vector<std::uint8_t> appended{0xAB};
  encode(in, appended);
  ASSERT_EQ(appended.size(), 1 + bytes.size());
  EXPECT_EQ(appended[0], 0xAB);
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), appended.begin() + 1));
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, MessageRoundTripTest,
    ::testing::Values(PayloadType::kPing, PayloadType::kPong,
                      PayloadType::kQuery, PayloadType::kQueryHit,
                      PayloadType::kNeighborTraffic, PayloadType::kNeighborList),
    [](const auto& case_info) {
      const std::string name(payload_type_name(case_info.param));
      return name == "Neighbor_Traffic" ? "NeighborTraffic"
             : name == "Neighbor_List"  ? "NeighborList"
                                        : name;
    });

TEST(Message, HeaderLayoutIs23Bytes) {
  util::Rng rng(5);
  const Message m = make(PayloadType::kPing, rng);
  const auto bytes = encode(m);
  ASSERT_EQ(bytes.size(), kHeaderSize);
  // offset 16: payload type, 17: ttl, 18: hops, 19-22: length (LE).
  EXPECT_EQ(bytes[16], 0x00);
  EXPECT_EQ(bytes[17], 7);
  EXPECT_EQ(bytes[18], 2);
  EXPECT_EQ(bytes[19], 0);
  EXPECT_EQ(bytes[22], 0);
}

TEST(Message, QueryPayloadIsNulTerminatedString) {
  util::Rng rng(6);
  Message m = make(PayloadType::kQuery, rng);
  const auto bytes = encode(m);
  // min-speed u16, then the string, then NUL.
  ASSERT_EQ(bytes.size(), kHeaderSize + 2 + 8 + 1);
  EXPECT_EQ(bytes.back(), 0);
  EXPECT_EQ(bytes[kHeaderSize + 2], 'f');
}

TEST(NeighborTraffic, Table1ByteLayout) {
  // Table 1: Source IP @0-3, Suspect IP @4-7, timestamp @8-11,
  // outgoing @12-15, incoming @16-19 — 20 bytes total.
  NeighborTraffic nt;
  nt.source_ip = 0x11223344;
  nt.suspect_ip = 0x55667788;
  nt.timestamp = 0x01020304;
  nt.outgoing_queries = 20000;  // 0x4E20
  nt.incoming_queries = 312;    // 0x0138
  const auto body = encode_neighbor_traffic_body(nt);
  ASSERT_EQ(body.size(), kNeighborTrafficBodySize);
  EXPECT_EQ(body[0], 0x44);
  EXPECT_EQ(body[3], 0x11);
  EXPECT_EQ(body[4], 0x88);
  EXPECT_EQ(body[7], 0x55);
  EXPECT_EQ(body[8], 0x04);
  EXPECT_EQ(body[11], 0x01);
  EXPECT_EQ(body[12], 0x20);
  EXPECT_EQ(body[13], 0x4e);
  EXPECT_EQ(body[16], 0x38);
  EXPECT_EQ(body[17], 0x01);
}

TEST(NeighborTraffic, PayloadTypeIs0x83) {
  util::Rng rng(7);
  const Message m = make(PayloadType::kNeighborTraffic, rng);
  const auto bytes = encode(m);
  EXPECT_EQ(bytes[16], 0x83);
  EXPECT_EQ(bytes.size(), kHeaderSize + kNeighborTrafficBodySize);
}

TEST(NeighborTraffic, BodyRoundTrip) {
  NeighborTraffic nt{0x0a0000ff, 0x0a000010, 99, 12345, 678};
  const auto body = encode_neighbor_traffic_body(nt);
  const auto out = decode_neighbor_traffic_body(body);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->source_ip, nt.source_ip);
  EXPECT_EQ(out->suspect_ip, nt.suspect_ip);
  EXPECT_EQ(out->timestamp, nt.timestamp);
  EXPECT_EQ(out->outgoing_queries, nt.outgoing_queries);
  EXPECT_EQ(out->incoming_queries, nt.incoming_queries);
}

TEST(NeighborTraffic, WrongBodySizeRejected) {
  std::vector<std::uint8_t> short_body(19, 0);
  EXPECT_FALSE(decode_neighbor_traffic_body(short_body).has_value());
  std::vector<std::uint8_t> long_body(21, 0);
  EXPECT_FALSE(decode_neighbor_traffic_body(long_body).has_value());
}

TEST(Message, DecodeRejectsUnknownType) {
  util::Rng rng(8);
  auto bytes = encode(make(PayloadType::kPing, rng));
  bytes[16] = 0x42;
  std::string err;
  EXPECT_FALSE(decode(bytes, &err).has_value());
  EXPECT_NE(err.find("unknown"), std::string::npos);
}

TEST(Message, DecodeRejectsTruncatedPayload) {
  util::Rng rng(9);
  auto bytes = encode(make(PayloadType::kNeighborTraffic, rng));
  bytes.resize(bytes.size() - 1);
  std::string err;
  EXPECT_FALSE(decode(bytes, &err).has_value());
}

TEST(Message, DecodeRejectsEveryTruncationPoint) {
  // Property: no prefix of a valid message decodes successfully.
  util::Rng rng(10);
  for (auto type : {PayloadType::kPong, PayloadType::kQuery,
                    PayloadType::kQueryHit, PayloadType::kNeighborList}) {
    const auto bytes = encode(make(type, rng));
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      const std::span<const std::uint8_t> prefix(bytes.data(), len);
      EXPECT_FALSE(decode(prefix).has_value())
          << "type " << payload_type_name(type) << " len " << len;
    }
  }
}

TEST(Message, DecodeRejectsOversizedDeclaredLength) {
  util::Rng rng(11);
  auto bytes = encode(make(PayloadType::kPong, rng));
  bytes[19] = 0xff;  // declared length far beyond the buffer
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Message, DecodeRejectsPingWithBody) {
  util::Rng rng(12);
  auto bytes = encode(make(PayloadType::kPing, rng));
  bytes.push_back(0x01);
  bytes[19] = 1;  // declare the extra byte
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Message, StreamWalkingViaConsumed) {
  util::Rng rng(13);
  std::vector<std::uint8_t> stream;
  for (auto type : {PayloadType::kQuery, PayloadType::kNeighborTraffic,
                    PayloadType::kPing}) {
    const auto b = encode(make(type, rng));
    stream.insert(stream.end(), b.begin(), b.end());
  }
  std::size_t offset = 0;
  std::vector<PayloadType> seen;
  while (offset < stream.size()) {
    std::size_t consumed = 0;
    const auto m = decode(
        std::span<const std::uint8_t>(stream.data() + offset,
                                      stream.size() - offset),
        nullptr, &consumed);
    ASSERT_TRUE(m.has_value());
    seen.push_back(m->type());
    offset += consumed;
  }
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], PayloadType::kQuery);
  EXPECT_EQ(seen[1], PayloadType::kNeighborTraffic);
  EXPECT_EQ(seen[2], PayloadType::kPing);
}

TEST(Message, QueryHitRecordsSurviveRoundTrip) {
  util::Rng rng(14);
  const Message in = make(PayloadType::kQueryHit, rng);
  const auto out = decode(encode(in));
  ASSERT_TRUE(out.has_value());
  const auto& qh_in = std::get<QueryHit>(in.payload);
  const auto& qh_out = std::get<QueryHit>(out->payload);
  ASSERT_EQ(qh_out.records.size(), 2u);
  EXPECT_EQ(qh_out.records[0].file_name, qh_in.records[0].file_name);
  EXPECT_EQ(qh_out.records[1].file_size, qh_in.records[1].file_size);
  EXPECT_EQ(qh_out.servent_id, qh_in.servent_id);
}

TEST(Message, NeighborListRoundTripPreservesEntries) {
  util::Rng rng(15);
  const Message in = make(PayloadType::kNeighborList, rng);
  const auto out = decode(encode(in));
  ASSERT_TRUE(out.has_value());
  const auto& nl = std::get<NeighborList>(out->payload);
  ASSERT_EQ(nl.entries.size(), 2u);
  EXPECT_EQ(nl.entries[0].ip, 0x0a000001u);
  EXPECT_EQ(nl.entries[1].port, 6347);
}

TEST(Message, EmptyNeighborList) {
  util::Rng rng(16);
  Message m;
  m.header.guid = Guid::random(rng);
  m.payload = NeighborList{};
  const auto out = decode(encode(m));
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(std::get<NeighborList>(out->payload).entries.empty());
}

TEST(Message, PayloadTypeNames) {
  EXPECT_EQ(payload_type_name(PayloadType::kNeighborTraffic), "Neighbor_Traffic");
  EXPECT_EQ(payload_type_name(PayloadType::kQuery), "Query");
}

// Property: random fuzz of valid encodings — flipping the type byte to a
// valid-but-different type must never crash (it may or may not decode).
TEST(Message, TypeConfusionDoesNotCrash) {
  util::Rng rng(17);
  const std::uint8_t types[] = {0x00, 0x01, 0x80, 0x81, 0x83, 0x84};
  for (int i = 0; i < 200; ++i) {
    auto bytes = encode(make(PayloadType::kQueryHit, rng));
    bytes[16] = types[rng.below(6)];
    (void)decode(bytes);  // must not crash or UB
  }
}

}  // namespace
}  // namespace ddp::net
