#pragma once

/// \file message.hpp
/// Gnutella 0.6 message formats plus the paper's protocol extension.
///
/// Every message starts with the unified 23-byte descriptor header
/// (Gnutella protocol specification 0.6, the paper's [15]):
///
///   offset  0..15  Descriptor ID (GUID)
///   offset  16     Payload type
///   offset  17     TTL
///   offset  18     Hops
///   offset  19..22 Payload length (little-endian u32)
///
/// Payload types implemented here:
///   0x00 Ping, 0x01 Pong, 0x80 Query, 0x81 QueryHit  — the search substrate
///   0x83 Neighbor_Traffic                            — DD-POLICE, Table 1
///   0x84 Neighbor_List                               — DD-POLICE, Sec. 3.1
///
/// Table 1 of the paper defines the Neighbor_Traffic body exactly:
///
///   byte offset 0..3    Source IP address
///   byte offset 4..7    Suspect IP address
///   byte offset 8..11   Source timestamp (seconds, wrapping u32)
///   byte offset 12..15  # of outgoing queries (source -> suspect, past minute)
///   byte offset 16..19  # of incoming queries (suspect -> source, past minute)

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "net/bytes.hpp"
#include "net/guid.hpp"

namespace ddp::net {

enum class PayloadType : std::uint8_t {
  kPing = 0x00,
  kPong = 0x01,
  kQuery = 0x80,
  kQueryHit = 0x81,
  kNeighborTraffic = 0x83,  ///< the paper's new message (Sec. 3.3)
  kNeighborList = 0x84,     ///< neighbour-list exchange (Sec. 3.1)
};

/// Human-readable payload-type name for diagnostics.
std::string_view payload_type_name(PayloadType t) noexcept;

inline constexpr std::size_t kHeaderSize = 23;
inline constexpr std::size_t kNeighborTrafficBodySize = 20;

struct Header {
  Guid guid{};
  PayloadType type = PayloadType::kPing;
  std::uint8_t ttl = 7;
  std::uint8_t hops = 0;
  std::uint32_t payload_length = 0;
};

struct Ping {};  // empty body

struct Pong {
  std::uint16_t port = 6346;
  std::uint32_t ip = 0;
  std::uint32_t files_shared = 0;
  std::uint32_t kilobytes_shared = 0;
};

struct Query {
  std::uint16_t min_speed = 0;  ///< minimum speed in kB/s the responder must have
  std::string search;           ///< NUL-terminated search criteria on the wire
};

/// One result record inside a QueryHit result set.
struct QueryHitRecord {
  std::uint32_t file_index = 0;
  std::uint32_t file_size = 0;
  std::string file_name;  ///< double-NUL terminated on the wire
};

struct QueryHit {
  std::uint16_t port = 6346;
  std::uint32_t ip = 0;
  std::uint32_t speed = 0;  ///< kB/s
  std::vector<QueryHitRecord> records;
  Guid servent_id{};  ///< responding servent, trails the payload
};

/// The paper's Table 1 message body. All counter fields are per-minute
/// counts as maintained by the Out_query / In_query monitors of Sec. 3.2.
struct NeighborTraffic {
  std::uint32_t source_ip = 0;
  std::uint32_t suspect_ip = 0;
  std::uint32_t timestamp = 0;
  std::uint32_t outgoing_queries = 0;  ///< source -> suspect, past minute
  std::uint32_t incoming_queries = 0;  ///< suspect -> source, past minute
};

/// Periodic neighbour-list advertisement (Sec. 3.1). Entries are
/// (IPv4, port) pairs like Gnutella host caches use.
struct NeighborList {
  struct Entry {
    std::uint32_t ip = 0;
    std::uint16_t port = 6346;
    bool operator==(const Entry&) const = default;
  };
  std::vector<Entry> entries;
};

using Payload = std::variant<Ping, Pong, Query, QueryHit, NeighborTraffic, NeighborList>;

/// A complete descriptor: header + typed payload. The header's type and
/// payload_length fields are derived during encoding; decoders verify them.
struct Message {
  Header header;
  Payload payload;

  PayloadType type() const noexcept;
};

/// Serialize a full message (header + payload). The header's payload_length
/// and type are overwritten to match the actual payload.
std::vector<std::uint8_t> encode(const Message& msg);

/// The same frame appended to `out` after the bytes already there, so a
/// sender can batch frames in one buffer without a vector per message.
void encode(const Message& msg, std::vector<std::uint8_t>& out);

/// Parse one complete message from `data`. Returns std::nullopt on any
/// framing or bounds error; `error` (if non-null) receives a description.
/// On success exactly header.payload_length + 23 bytes were consumed;
/// `consumed` (if non-null) receives that count so streams can be walked.
std::optional<Message> decode(std::span<const std::uint8_t> data,
                              std::string* error = nullptr,
                              std::size_t* consumed = nullptr);

/// Structured decode outcome: why a buffer was rejected, machine-readably.
/// The categories mirror the order in which decode() validates, so a fuzzer
/// (tests/net_fuzz_test.cpp) can classify every mutation's fate.
enum class DecodeStatus : std::uint8_t {
  kOk = 0,
  kShortHeader,       ///< fewer than the 23 header bytes
  kUnknownType,       ///< payload-type byte outside the implemented set
  kOversizedPayload,  ///< declared length exceeds kMaxPayloadLength
  kTruncatedPayload,  ///< declared length exceeds the bytes present
  kMalformedBody,     ///< typed body failed bounds or shape validation
};

std::string_view decode_status_name(DecodeStatus s) noexcept;

/// Framing cap on the declared payload length: no message this substrate
/// produces comes near 1 MiB, and rejecting the length field before any
/// body work means a flipped high bit cannot drive allocation or scanning.
inline constexpr std::size_t kMaxPayloadLength = 1u << 20;

struct DecodeResult {
  std::optional<Message> message;  ///< engaged iff status == kOk
  DecodeStatus status = DecodeStatus::kOk;
  std::string detail;              ///< human-readable reason when rejected
  std::size_t consumed = 0;        ///< bytes consumed on success, else 0
  explicit operator bool() const noexcept { return message.has_value(); }
};

/// Like decode(), but reports the rejection category. decode() is
/// implemented on top of this and preserves its historical error strings.
DecodeResult decode_ex(std::span<const std::uint8_t> data);

/// Encode only the Neighbor_Traffic body (Table 1 layout, 20 bytes) —
/// exposed separately so tests can assert the exact byte offsets.
std::vector<std::uint8_t> encode_neighbor_traffic_body(const NeighborTraffic& nt);
std::optional<NeighborTraffic> decode_neighbor_traffic_body(
    std::span<const std::uint8_t> body);

}  // namespace ddp::net
