#pragma once

/// \file bandwidth.hpp
/// Per-peer access-link bandwidth model following the measurements the
/// paper cites (Saroiu et al. [19], Sec. 3.5): "78% of the participating
/// peers have downstream bottleneck bandwidths of at least 1000 Kbps, and
/// 22% of the participating peers have upstream bottleneck bandwidths of
/// 100 Kbps or less."
///
/// Each peer draws a BandwidthClass; a logical link's query capacity is the
/// bottleneck of the sender's upstream and receiver's downstream, converted
/// to queries/minute via the Gnutella query wire size. The attack rate
/// clamp of Sec. 3.5 — Q_d = min(20000, link capacity) — consumes this.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"

namespace ddp::topology {

enum class BandwidthClass : std::uint8_t {
  kModem,   ///< 56 Kbps symmetric
  kDsl,     ///< 1.5 Mbps down / 128 Kbps up
  kCable,   ///< 3 Mbps down / 400 Kbps up
  kT1,      ///< 1.544 Mbps symmetric
  kT3,      ///< 44.7 Mbps symmetric
};
inline constexpr std::size_t kBandwidthClasses = 5;

std::string_view bandwidth_class_name(BandwidthClass c) noexcept;

/// Downstream / upstream rates of a class, in Kbps.
double downstream_kbps(BandwidthClass c) noexcept;
double upstream_kbps(BandwidthClass c) noexcept;

/// Average bytes per query descriptor on the wire. The paper's trace
/// (13,075,339 queries in 112 MB) gives ~= 9 bytes of search string plus the
/// 23-byte header — about 34 wire bytes; with TCP/IP framing overhead we
/// use 60 bytes per forwarded query.
inline constexpr double kQueryWireBytes = 60.0;

/// Convert a rate in Kbps to the number of query messages per minute that
/// rate can carry.
double kbps_to_queries_per_minute(double kbps) noexcept;

/// Queries/minute capacity of a link from a `from`-class sender to a
/// `to`-class receiver: the bottleneck of the sender's upstream and the
/// receiver's downstream.
double link_queries_per_minute(BandwidthClass from, BandwidthClass to) noexcept;

/// Assignment of bandwidth classes to a peer population.
class BandwidthMap {
 public:
  /// Draw classes from the measurement-derived mixture:
  ///   22% modem (upstream <= 100 Kbps), 30% DSL, 38% cable, 8% T1, 2% T3
  /// which realizes the cited 78%/22% down/up split.
  BandwidthMap(std::size_t peer_count, util::Rng& rng);

  BandwidthClass peer_class(PeerId id) const noexcept { return classes_[id]; }
  double peer_upstream_kbps(PeerId id) const noexcept;
  double peer_downstream_kbps(PeerId id) const noexcept;

  /// Queries/minute capacity of the directed link from -> to: bottleneck of
  /// the sender's upstream and the receiver's downstream.
  double link_queries_per_minute(PeerId from, PeerId to) const noexcept;

  /// Fraction of peers whose downstream is >= the given Kbps (validation).
  double fraction_downstream_at_least(double kbps) const noexcept;
  /// Fraction of peers whose upstream is <= the given Kbps (validation).
  double fraction_upstream_at_most(double kbps) const noexcept;

 private:
  std::vector<BandwidthClass> classes_;
};

}  // namespace ddp::topology
