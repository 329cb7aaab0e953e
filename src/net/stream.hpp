#pragma once

/// \file stream.hpp
/// Incremental Gnutella framing for byte-stream transports.
///
/// decode_ex() wants one complete message in a contiguous span — fine for
/// the packet engine, where delivery is message-granular, but TCP hands the
/// socket engine arbitrary read boundaries: half a header now, three
/// messages and a fragment later. StreamDecoder sits between recv() and
/// decode_ex(): bytes go in via feed(), framed messages come out of next(),
/// and "the rest hasn't arrived yet" is a first-class kNeedMore status
/// rather than an error.
///
/// Contract (tested in tests/net_stream_test.cpp): for any byte sequence
/// and any partition of it into feed() calls — including one byte at a
/// time — the sequence of messages produced by next() is identical to
/// decoding the whole buffer in one shot.
///
/// Validation is front-loaded exactly like decode_ex: once the 23 header
/// bytes are present, an unknown type byte or an oversized declared length
/// fails immediately — a peer cannot park a poisoned header in the buffer
/// and keep the connection wedged waiting for a payload that will never
/// fit. Errors are sticky: after kError the framing is unrecoverable
/// (there is no resync marker in the wire format), so the owner must drop
/// the connection.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/message.hpp"

namespace ddp::net {

enum class StreamStatus : std::uint8_t {
  kMessage,   ///< one complete message decoded; call next() again
  kNeedMore,  ///< buffered bytes form no complete message yet
  kError,     ///< framing broken (see status/detail); connection is dead
};

struct StreamResult {
  StreamStatus status = StreamStatus::kNeedMore;
  std::optional<Message> message;           ///< engaged iff kMessage
  DecodeStatus error = DecodeStatus::kOk;   ///< category when kError
  std::string detail;                       ///< human-readable when kError
  explicit operator bool() const noexcept { return message.has_value(); }
};

class StreamDecoder {
 public:
  /// `max_buffered` caps the bytes held across next() calls; the default
  /// admits the largest legal frame. Exceeding it (only possible by
  /// feeding past a complete frame without draining) is a usage error
  /// surfaced as kOversizedPayload.
  explicit StreamDecoder(
      std::size_t max_buffered = kHeaderSize + kMaxPayloadLength) noexcept
      : max_buffered_(max_buffered) {}

  /// Append raw transport bytes. Accepts any partition of the stream,
  /// including empty spans.
  void feed(std::span<const std::uint8_t> data);

  /// Try to frame and decode the next message from the buffered bytes.
  /// Call in a loop after each feed() until it returns kNeedMore.
  StreamResult next();

  /// Bytes currently buffered and not yet consumed by a decoded message.
  std::size_t buffered() const noexcept { return buf_.size() - read_; }

  /// True once any next() returned kError; all further next() calls
  /// repeat the error.
  bool failed() const noexcept { return failed_; }

  /// Number of complete messages decoded over the decoder's lifetime.
  std::uint64_t messages_decoded() const noexcept { return decoded_; }

 private:
  void compact();

  std::vector<std::uint8_t> buf_;
  std::size_t read_ = 0;  ///< consumed prefix of buf_
  std::size_t max_buffered_;
  bool failed_ = false;
  DecodeStatus fail_status_ = DecodeStatus::kOk;
  std::string fail_detail_;
  std::uint64_t decoded_ = 0;
};

}  // namespace ddp::net
