#pragma once

/// \file snapshot.hpp
/// Versioned binary snapshot framing: the serialization discipline behind
/// checkpoint/restore. A snapshot is a header (magic, format version,
/// config digest) followed by a sequence of sections, each carrying a
/// fourcc id, an explicit payload length and a CRC32 of the payload.
///
/// Design rules (after the save/load_xdr idiom the ROADMAP cites):
///   * explicit-width little-endian primitives only — no struct memcpy,
///     no host-endianness leaks, no padding bytes on the wire;
///   * every section is integrity-checked *before* any state is restored
///     (Reader::from_bytes walks the whole frame and verifies every CRC
///     up front), so a truncated or bit-flipped snapshot is rejected with
///     a SnapshotError and never half-loaded;
///   * all variable-length reads are bounded (Reader::size takes an
///     explicit maximum and rejects counts beyond the section's unread
///     bytes) so a corrupt length field cannot drive a multi-gigabyte
///     allocation;
///   * the header's config digest pins the snapshot to the generating
///     configuration — restoring under a different config is an error,
///     not a silent divergence.
///
/// Writers buffer everything in memory (snapshots are MBs at most) and
/// hand back the finished image; ScenarioRuntime::save_file writes it
/// atomically (`<path>.tmp`, then rename), so a crash mid-checkpoint never
/// leaves a torn snapshot at the target path.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace ddp::snapshot {

/// "DDPS" little-endian.
inline constexpr std::uint32_t kMagic = 0x53504444u;
/// Bump on any incompatible layout change; loaders reject mismatches.
inline constexpr std::uint32_t kVersion = 1;

/// Fourcc section id, e.g. section_id("FLOW").
constexpr std::uint32_t section_id(const char (&s)[5]) noexcept {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(s[1])) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(s[2])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(s[3])) << 24);
}

/// Human-readable rendering of a fourcc id (for error messages).
std::string section_name(std::uint32_t id);

/// Structured rejection: carries a human-readable reason ("bad magic",
/// "section FLOW: crc mismatch", ...). Loaders throw; nothing is ever
/// partially applied from a snapshot that fails framing validation.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

/// CRC-32 (IEEE 802.3 polynomial, reflected), the integrity check on every
/// section payload.
std::uint32_t crc32(const std::uint8_t* data, std::size_t len) noexcept;

class Writer {
 public:
  /// Open a new section; all writes land in it until end_section().
  void begin_section(std::uint32_t id);
  void end_section();

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void boolean(bool v);
  void size(std::size_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s);

  /// Assemble the full snapshot image: header + every section framed with
  /// length and CRC. All sections must be closed.
  std::vector<std::uint8_t> finish(std::uint64_t config_digest) const;

 private:
  struct Section {
    std::uint32_t id = 0;
    std::vector<std::uint8_t> payload;
  };

  std::vector<std::uint8_t>& buf();

  std::vector<Section> sections_;
  bool open_ = false;
};

class Reader {
 public:
  /// Parse and *fully validate* a snapshot image: magic, version, section
  /// framing and every section CRC. Throws SnapshotError on any problem —
  /// a Reader that constructs successfully is integrity-checked end to end.
  static Reader from_bytes(std::vector<std::uint8_t> data);
  static Reader from_file(const std::string& path);

  std::uint64_t config_digest() const noexcept { return digest_; }

  /// Enter the next section, which must carry exactly this id (sections
  /// are ordered by contract; an unexpected id is a structural error).
  void begin_section(std::uint32_t id);
  /// Leave the current section; throws if payload bytes remain unread
  /// (length mismatch between writer and loader is a bug, not noise).
  void end_section();

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  bool boolean();
  /// Bounded count read: throws when the stored value exceeds `max` or
  /// the unread bytes of the section (every element takes at least one).
  std::size_t size(std::size_t max);
  std::string str(std::size_t max_len = 1u << 20);

  /// Unread bytes of the current section (for element-count sanity bounds).
  std::size_t remaining() const noexcept { return sec_end_ - pos_; }

  /// Sections not yet entered — loaders assert 0 after their last
  /// begin/end pair so trailing sections from a shape mismatch are caught.
  std::size_t sections_remaining() const noexcept {
    return section_count_ - sections_read_;
  }

 private:
  Reader() = default;
  void need(std::size_t n) const;

  std::vector<std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::size_t next_section_ = 0;  ///< offset of the next section header
  std::size_t sec_end_ = 0;
  bool in_section_ = false;
  std::uint64_t digest_ = 0;
  std::size_t section_count_ = 0;
  std::size_t sections_read_ = 0;
};

}  // namespace ddp::snapshot
