#include "net/bytes.hpp"

#include <algorithm>
#include <cassert>

namespace ddp::net {

void ByteWriter::u8(std::uint8_t v) { buf_.push_back(v); }

void ByteWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v & 0xff));
  buf_.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    buf_.push_back(static_cast<std::uint8_t>((v >> shift) & 0xff));
  }
}

void ByteWriter::u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    buf_.push_back(static_cast<std::uint8_t>((v >> shift) & 0xff));
  }
}

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteWriter::cstring(std::string_view s) {
  for (char c : s) buf_.push_back(static_cast<std::uint8_t>(c));
  buf_.push_back(0);
}

void ByteWriter::patch_u32(std::size_t offset, std::uint32_t v) {
  assert(offset + 4 <= buf_.size());
  // Release builds strip the assert; refuse the out-of-bounds write rather
  // than scribbling past the buffer.
  if (offset > buf_.size() || buf_.size() - offset < 4) return;
  for (int i = 0; i < 4; ++i) {
    buf_[offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((v >> (8 * i)) & 0xff);
  }
}

bool ByteReader::ensure(std::size_t n) noexcept {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t ByteReader::u8() noexcept {
  if (!ensure(1)) return 0;
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() noexcept {
  if (!ensure(2)) return 0;
  const std::uint16_t v = static_cast<std::uint16_t>(
      data_[pos_] | (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() noexcept {
  if (!ensure(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() noexcept {
  if (!ensure(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

void ByteReader::read_into(std::span<std::uint8_t> out) noexcept {
  if (!ensure(out.size())) return;
  std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(pos_), out.size(),
              out.begin());
  pos_ += out.size();
}

std::string ByteReader::cstring() {
  if (!ok_) return {};
  std::size_t end = pos_;
  while (end < data_.size() && data_[end] != 0) ++end;
  if (end == data_.size()) {
    ok_ = false;
    return {};
  }
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), end - pos_);
  pos_ = end + 1;
  return s;
}

std::string ipv4_to_string(std::uint32_t addr) {
  return std::to_string((addr >> 24) & 0xff) + "." +
         std::to_string((addr >> 16) & 0xff) + "." +
         std::to_string((addr >> 8) & 0xff) + "." + std::to_string(addr & 0xff);
}

}  // namespace ddp::net
