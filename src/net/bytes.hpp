#pragma once

/// \file bytes.hpp
/// Bounds-checked binary serialization primitives for the Gnutella-style
/// wire substrate. Gnutella 0.6 encodes multi-byte integers little-endian;
/// these helpers encode explicitly byte-by-byte so the layout is identical
/// on any host.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ddp::net {

/// Append-only little-endian encoder.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Append after the bytes already in `buf` (take() hands them all back).
  explicit ByteWriter(std::vector<std::uint8_t> buf) noexcept
      : buf_(std::move(buf)) {}

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void bytes(std::span<const std::uint8_t> data);
  /// Write the characters of `s` followed by a NUL terminator (Gnutella
  /// query strings are C-strings on the wire).
  void cstring(std::string_view s);

  /// Make room for `n` more bytes, so a frame of known size allocates at
  /// most once. Growth is geometric, so frames appended one by one to a
  /// long-lived buffer reallocate O(log n) times, not once each.
  void reserve(std::size_t n) {
    if (buf_.capacity() - buf_.size() < n) {
      buf_.reserve(std::max(buf_.size() + n, 2 * buf_.capacity()));
    }
  }

  const std::vector<std::uint8_t>& data() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }
  std::size_t size() const noexcept { return buf_.size(); }

  /// Overwrite a previously written u32 at `offset` (used to back-patch the
  /// header's payload-length field after the payload is encoded).
  void patch_u32(std::size_t offset, std::uint32_t v);

 private:
  std::vector<std::uint8_t> buf_;
};

/// Non-owning bounds-checked little-endian decoder. All reads either
/// succeed completely or set the failure flag and return zero values; after
/// any failure every subsequent read also fails, so callers may decode a
/// whole struct and check ok() once.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept : data_(data) {}

  std::uint8_t u8() noexcept;
  std::uint16_t u16() noexcept;
  std::uint32_t u32() noexcept;
  std::uint64_t u64() noexcept;
  /// Copy exactly out.size() bytes into `out`; fails (leaving `out`
  /// untouched) if short.
  void read_into(std::span<std::uint8_t> out) noexcept;
  /// Read up to the next NUL (consuming it). Fails if no NUL remains.
  std::string cstring();

  bool ok() const noexcept { return ok_; }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  std::size_t position() const noexcept { return pos_; }
  /// True when the reader succeeded AND consumed the whole buffer.
  bool exhausted() const noexcept { return ok_ && pos_ == data_.size(); }

 private:
  bool ensure(std::size_t n) noexcept;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Dotted-quad rendering of a host-order IPv4 address (diagnostics only; the
/// simulator identifies peers by PeerId and synthesizes addresses from it).
std::string ipv4_to_string(std::uint32_t addr);

}  // namespace ddp::net
