#include "net/message.hpp"

#include <limits>
#include <utility>

namespace ddp::net {

namespace {

void set_error(std::string* error, std::string_view what) {
  if (error != nullptr) *error = std::string(what);
}

void encode_payload(const Ping&, ByteWriter&) {}

void encode_payload(const Pong& p, ByteWriter& w) {
  w.u16(p.port);
  w.u32(p.ip);
  w.u32(p.files_shared);
  w.u32(p.kilobytes_shared);
}

void encode_payload(const Query& q, ByteWriter& w) {
  w.u16(q.min_speed);
  w.cstring(q.search);
}

void encode_payload(const QueryHit& qh, ByteWriter& w) {
  w.u8(static_cast<std::uint8_t>(qh.records.size()));
  w.u16(qh.port);
  w.u32(qh.ip);
  w.u32(qh.speed);
  for (const auto& r : qh.records) {
    w.u32(r.file_index);
    w.u32(r.file_size);
    w.cstring(r.file_name);
    w.u8(0);  // extensions block terminator (double-NUL convention)
  }
  w.bytes(std::span<const std::uint8_t>(qh.servent_id.bytes.data(), 16));
}

void encode_payload(const NeighborTraffic& nt, ByteWriter& w) {
  w.u32(nt.source_ip);
  w.u32(nt.suspect_ip);
  w.u32(nt.timestamp);
  w.u32(nt.outgoing_queries);
  w.u32(nt.incoming_queries);
}

void encode_payload(const NeighborList& nl, ByteWriter& w) {
  w.u16(static_cast<std::uint16_t>(nl.entries.size()));
  for (const auto& e : nl.entries) {
    w.u32(e.ip);
    w.u16(e.port);
  }
}

// Body sizes of the encoders above, so encode() sizes its frame once.
std::size_t body_size(const Ping&) { return 0; }
std::size_t body_size(const Pong&) { return 2 + 4 + 4 + 4; }
std::size_t body_size(const Query& q) { return 2 + q.search.size() + 1; }
std::size_t body_size(const QueryHit& qh) {
  std::size_t n = 1 + 2 + 4 + 4 + 16;
  for (const auto& r : qh.records) n += 4 + 4 + r.file_name.size() + 1 + 1;
  return n;
}
std::size_t body_size(const NeighborTraffic&) {
  return kNeighborTrafficBodySize;
}
std::size_t body_size(const NeighborList& nl) {
  return 2 + (4 + 2) * nl.entries.size();
}

std::optional<Payload> decode_payload(PayloadType type, ByteReader& r,
                                      std::string* error) {
  switch (type) {
    case PayloadType::kPing: {
      if (r.remaining() != 0) {
        set_error(error, "ping with non-empty body");
        return std::nullopt;
      }
      return Payload{Ping{}};
    }
    case PayloadType::kPong: {
      Pong p;
      p.port = r.u16();
      p.ip = r.u32();
      p.files_shared = r.u32();
      p.kilobytes_shared = r.u32();
      if (!r.exhausted()) {
        set_error(error, "malformed pong body");
        return std::nullopt;
      }
      return Payload{p};
    }
    case PayloadType::kQuery: {
      Query q;
      q.min_speed = r.u16();
      q.search = r.cstring();
      if (!r.exhausted()) {
        set_error(error, "malformed query body");
        return std::nullopt;
      }
      return Payload{std::move(q)};
    }
    case PayloadType::kQueryHit: {
      QueryHit qh;
      const std::uint8_t n = r.u8();
      qh.port = r.u16();
      qh.ip = r.u32();
      qh.speed = r.u32();
      for (std::uint8_t i = 0; i < n; ++i) {
        QueryHitRecord rec;
        rec.file_index = r.u32();
        rec.file_size = r.u32();
        rec.file_name = r.cstring();
        (void)r.u8();  // extensions terminator
        if (!r.ok()) break;
        qh.records.push_back(std::move(rec));
      }
      r.read_into(qh.servent_id.bytes);
      if (!r.exhausted()) {
        set_error(error, "malformed query-hit body");
        return std::nullopt;
      }
      return Payload{std::move(qh)};
    }
    case PayloadType::kNeighborTraffic: {
      NeighborTraffic nt;
      nt.source_ip = r.u32();
      nt.suspect_ip = r.u32();
      nt.timestamp = r.u32();
      nt.outgoing_queries = r.u32();
      nt.incoming_queries = r.u32();
      if (!r.exhausted()) {
        set_error(error, "neighbor-traffic body must be exactly 20 bytes");
        return std::nullopt;
      }
      return Payload{nt};
    }
    case PayloadType::kNeighborList: {
      NeighborList nl;
      const std::uint16_t n = r.u16();
      for (std::uint16_t i = 0; i < n; ++i) {
        NeighborList::Entry e;
        e.ip = r.u32();
        e.port = r.u16();
        if (!r.ok()) break;
        nl.entries.push_back(e);
      }
      if (!r.exhausted()) {
        set_error(error, "malformed neighbor-list body");
        return std::nullopt;
      }
      return Payload{std::move(nl)};
    }
  }
  set_error(error, "unknown payload type");
  return std::nullopt;
}

}  // namespace

std::string_view payload_type_name(PayloadType t) noexcept {
  switch (t) {
    case PayloadType::kPing: return "Ping";
    case PayloadType::kPong: return "Pong";
    case PayloadType::kQuery: return "Query";
    case PayloadType::kQueryHit: return "QueryHit";
    case PayloadType::kNeighborTraffic: return "Neighbor_Traffic";
    case PayloadType::kNeighborList: return "Neighbor_List";
  }
  return "?";
}

PayloadType Message::type() const noexcept {
  return std::visit(
      [](const auto& p) -> PayloadType {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, Ping>) return PayloadType::kPing;
        else if constexpr (std::is_same_v<T, Pong>) return PayloadType::kPong;
        else if constexpr (std::is_same_v<T, Query>) return PayloadType::kQuery;
        else if constexpr (std::is_same_v<T, QueryHit>) return PayloadType::kQueryHit;
        else if constexpr (std::is_same_v<T, NeighborTraffic>)
          return PayloadType::kNeighborTraffic;
        else
          return PayloadType::kNeighborList;
      },
      payload);
}

std::vector<std::uint8_t> encode(const Message& msg) {
  std::vector<std::uint8_t> out;
  encode(msg, out);
  return out;
}

void encode(const Message& msg, std::vector<std::uint8_t>& out) {
  ByteWriter w(std::move(out));
  w.reserve(kHeaderSize + std::visit([](const auto& p) { return body_size(p); },
                                     msg.payload));
  w.bytes(std::span<const std::uint8_t>(msg.header.guid.bytes.data(), 16));
  w.u8(static_cast<std::uint8_t>(msg.type()));
  w.u8(msg.header.ttl);
  w.u8(msg.header.hops);
  const std::size_t len_offset = w.size();
  w.u32(0);  // payload length, back-patched below
  const std::size_t body_start = w.size();
  std::visit([&w](const auto& p) { encode_payload(p, w); }, msg.payload);
  w.patch_u32(len_offset, static_cast<std::uint32_t>(w.size() - body_start));
  out = w.take();
}

std::string_view decode_status_name(DecodeStatus s) noexcept {
  switch (s) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kShortHeader: return "short-header";
    case DecodeStatus::kUnknownType: return "unknown-type";
    case DecodeStatus::kOversizedPayload: return "oversized-payload";
    case DecodeStatus::kTruncatedPayload: return "truncated-payload";
    case DecodeStatus::kMalformedBody: return "malformed-body";
  }
  return "?";
}

DecodeResult decode_ex(std::span<const std::uint8_t> data) {
  DecodeResult res;
  if (data.size() < kHeaderSize) {
    res.status = DecodeStatus::kShortHeader;
    res.detail = "short header";
    return res;
  }
  Message msg;
  ByteReader hr(data.first(kHeaderSize));
  hr.read_into(msg.header.guid.bytes);
  const std::uint8_t raw_type = hr.u8();
  msg.header.ttl = hr.u8();
  msg.header.hops = hr.u8();
  msg.header.payload_length = hr.u32();

  switch (raw_type) {
    case 0x00: case 0x01: case 0x80: case 0x81: case 0x83: case 0x84:
      msg.header.type = static_cast<PayloadType>(raw_type);
      break;
    default:
      res.status = DecodeStatus::kUnknownType;
      res.detail = "unknown payload type byte";
      return res;
  }
  // Length sanity before any body work: a corrupted length field must not
  // be able to drive downstream allocation or scanning.
  if (msg.header.payload_length > kMaxPayloadLength) {
    res.status = DecodeStatus::kOversizedPayload;
    res.detail = "declared payload length exceeds cap";
    return res;
  }
  if (data.size() - kHeaderSize < msg.header.payload_length) {
    res.status = DecodeStatus::kTruncatedPayload;
    res.detail = "payload truncated";
    return res;
  }
  ByteReader br(data.subspan(kHeaderSize, msg.header.payload_length));
  auto payload = decode_payload(msg.header.type, br, &res.detail);
  if (!payload) {
    res.status = DecodeStatus::kMalformedBody;
    return res;
  }
  msg.payload = std::move(*payload);
  res.consumed = kHeaderSize + msg.header.payload_length;
  res.message = std::move(msg);
  return res;
}

std::optional<Message> decode(std::span<const std::uint8_t> data,
                              std::string* error, std::size_t* consumed) {
  DecodeResult res = decode_ex(data);
  if (!res.message) {
    set_error(error, res.detail);
    return std::nullopt;
  }
  if (consumed != nullptr) *consumed = res.consumed;
  return std::move(res.message);
}

std::vector<std::uint8_t> encode_neighbor_traffic_body(const NeighborTraffic& nt) {
  ByteWriter w;
  w.reserve(body_size(nt));
  encode_payload(nt, w);
  return w.take();
}

std::optional<NeighborTraffic> decode_neighbor_traffic_body(
    std::span<const std::uint8_t> body) {
  ByteReader r(body);
  NeighborTraffic nt;
  nt.source_ip = r.u32();
  nt.suspect_ip = r.u32();
  nt.timestamp = r.u32();
  nt.outgoing_queries = r.u32();
  nt.incoming_queries = r.u32();
  if (!r.exhausted()) return std::nullopt;
  return nt;
}

}  // namespace ddp::net
