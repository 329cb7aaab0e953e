#include "snapshot/snapshot.hpp"

#include <array>
#include <bit>
#include <fstream>

namespace ddp::snapshot {

std::string section_name(std::uint32_t id) {
  std::string s;
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((id >> (8 * i)) & 0xff);
    s.push_back((c >= 0x20 && c < 0x7f) ? c : '?');
  }
  return s;
}

namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const std::uint8_t* p) noexcept {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

/// Header: magic, version, config digest, section count.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;
/// Per-section frame: id, payload length, payload CRC.
constexpr std::size_t kSectionHeaderBytes = 4 + 8 + 4;

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables for the reflected polynomial 0xEDB88320: row 0 is
/// the classic byte-at-a-time table, and row k maps a byte to the register
/// it leaves after k further zero bytes.
constexpr CrcTables make_crc_tables() noexcept {
  CrcTables t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1u)));
    }
    t[0][b] = crc;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t b = 0; b < 256; ++b) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xffu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len) noexcept {
  // Slicing-by-8: fold eight bytes per step through eight tables (one
  // independent lookup per byte instead of eight dependent shift-and-mask
  // steps), then finish the tail a byte at a time. Every checkpoint save
  // and every verified load runs this over the whole multi-MB image.
  const CrcTables& t = kCrcTables;
  std::uint32_t crc = 0xffffffffu;
  for (; len >= 8; data += 8, len -= 8) {
    const std::uint32_t lo = crc ^ get_u32(data);
    const std::uint32_t hi = get_u32(data + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {
    crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xffu];
  }
  return crc ^ 0xffffffffu;
}

std::vector<std::uint8_t>& Writer::buf() {
  if (!open_) throw SnapshotError("write outside of a section");
  return sections_.back().payload;
}

void Writer::begin_section(std::uint32_t id) {
  if (open_) throw SnapshotError("begin_section with a section still open");
  sections_.push_back(Section{id, {}});
  open_ = true;
}

void Writer::end_section() {
  if (!open_) throw SnapshotError("end_section with no section open");
  open_ = false;
}

void Writer::u8(std::uint8_t v) { buf().push_back(v); }
void Writer::u32(std::uint32_t v) { put_u32(buf(), v); }
void Writer::u64(std::uint64_t v) { put_u64(buf(), v); }
void Writer::i64(std::int64_t v) { put_u64(buf(), static_cast<std::uint64_t>(v)); }
void Writer::f64(double v) { put_u64(buf(), std::bit_cast<std::uint64_t>(v)); }
void Writer::boolean(bool v) { buf().push_back(v ? 1 : 0); }

void Writer::str(const std::string& s) {
  u64(s.size());
  auto& b = buf();
  b.insert(b.end(), s.begin(), s.end());
}

std::vector<std::uint8_t> Writer::finish(std::uint64_t config_digest) const {
  if (open_) throw SnapshotError("finish with a section still open");
  std::vector<std::uint8_t> out;
  std::size_t total = kHeaderBytes;
  for (const Section& s : sections_) total += kSectionHeaderBytes + s.payload.size();
  out.reserve(total);
  put_u32(out, kMagic);
  put_u32(out, kVersion);
  put_u64(out, config_digest);
  put_u64(out, sections_.size());
  for (const Section& s : sections_) {
    put_u32(out, s.id);
    put_u64(out, s.payload.size());
    put_u32(out, crc32(s.payload.data(), s.payload.size()));
    out.insert(out.end(), s.payload.begin(), s.payload.end());
  }
  return out;
}

Reader Reader::from_bytes(std::vector<std::uint8_t> data) {
  Reader r;
  r.data_ = std::move(data);
  if (r.data_.size() < kHeaderBytes) {
    throw SnapshotError("snapshot truncated: shorter than the header");
  }
  const std::uint8_t* p = r.data_.data();
  if (get_u32(p) != kMagic) throw SnapshotError("bad magic: not a snapshot");
  const std::uint32_t version = get_u32(p + 4);
  if (version != kVersion) {
    throw SnapshotError("snapshot version " + std::to_string(version) +
                        " not supported (expected " + std::to_string(kVersion) +
                        ")");
  }
  r.digest_ = get_u64(p + 8);
  const std::uint64_t sections = get_u64(p + 16);
  // Validate the whole frame up front: every section header in bounds,
  // every payload present, every CRC matching. Only a fully-verified image
  // ever reaches a subsystem loader — this is the no-partial-load contract.
  std::size_t off = kHeaderBytes;
  for (std::uint64_t i = 0; i < sections; ++i) {
    if (r.data_.size() - off < kSectionHeaderBytes) {
      throw SnapshotError("snapshot truncated in section header " +
                          std::to_string(i));
    }
    const std::uint32_t id = get_u32(p + off);
    const std::uint64_t len = get_u64(p + off + 4);
    const std::uint32_t want_crc = get_u32(p + off + 12);
    off += kSectionHeaderBytes;
    if (len > r.data_.size() - off) {
      throw SnapshotError("snapshot truncated in section " + section_name(id) +
                          " payload");
    }
    const std::uint32_t got_crc = crc32(p + off, static_cast<std::size_t>(len));
    if (got_crc != want_crc) {
      throw SnapshotError("section " + section_name(id) +
                          ": crc mismatch (corrupt snapshot)");
    }
    off += static_cast<std::size_t>(len);
  }
  if (off != r.data_.size()) {
    throw SnapshotError("trailing bytes after the last section");
  }
  r.section_count_ = static_cast<std::size_t>(sections);
  r.next_section_ = kHeaderBytes;
  return r;
}

Reader Reader::from_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw SnapshotError("cannot open snapshot file " + path);
  std::vector<std::uint8_t> data((std::istreambuf_iterator<char>(f)),
                                 std::istreambuf_iterator<char>());
  if (f.bad()) throw SnapshotError("read error on snapshot file " + path);
  return from_bytes(std::move(data));
}

void Reader::need(std::size_t n) const {
  if (!in_section_) throw SnapshotError("read outside of a section");
  if (sec_end_ - pos_ < n) {
    throw SnapshotError("section payload exhausted (format mismatch)");
  }
}

void Reader::begin_section(std::uint32_t id) {
  if (in_section_) throw SnapshotError("begin_section with a section open");
  if (sections_read_ >= section_count_) {
    throw SnapshotError("expected section " + section_name(id) +
                        " but the snapshot has no more sections");
  }
  const std::uint8_t* p = data_.data() + next_section_;
  const std::uint32_t got = get_u32(p);
  if (got != id) {
    throw SnapshotError("expected section " + section_name(id) + " but found " +
                        section_name(got));
  }
  const std::uint64_t len = get_u64(p + 4);
  pos_ = next_section_ + kSectionHeaderBytes;
  sec_end_ = pos_ + static_cast<std::size_t>(len);
  next_section_ = sec_end_;
  ++sections_read_;
  in_section_ = true;
}

void Reader::end_section() {
  if (!in_section_) throw SnapshotError("end_section with no section open");
  if (pos_ != sec_end_) {
    throw SnapshotError("section not fully consumed (" +
                        std::to_string(sec_end_ - pos_) +
                        " bytes left; format mismatch)");
  }
  in_section_ = false;
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t Reader::u32() {
  need(4);
  const std::uint32_t v = get_u32(data_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  const std::uint64_t v = get_u64(data_.data() + pos_);
  pos_ += 8;
  return v;
}

std::int64_t Reader::i64() { return static_cast<std::int64_t>(u64()); }

double Reader::f64() { return std::bit_cast<double>(u64()); }

bool Reader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) throw SnapshotError("corrupt boolean value");
  return v != 0;
}

std::size_t Reader::size(std::size_t max) {
  const std::uint64_t v = u64();
  if (v > max) {
    throw SnapshotError("stored count " + std::to_string(v) +
                        " exceeds bound " + std::to_string(max));
  }
  // Every element a loader reads takes at least one byte, so a count the
  // section cannot hold is corrupt however it got past the CRC.
  if (v > remaining()) {
    throw SnapshotError("stored count " + std::to_string(v) + " exceeds the " +
                        std::to_string(remaining()) +
                        " bytes left in the section");
  }
  return static_cast<std::size_t>(v);
}

std::string Reader::str(std::size_t max_len) {
  const std::size_t n = size(max_len);
  need(n);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

}  // namespace ddp::snapshot
