#include "topology/bandwidth.hpp"

#include <algorithm>

namespace ddp::topology {

std::string_view bandwidth_class_name(BandwidthClass c) noexcept {
  switch (c) {
    case BandwidthClass::kModem: return "modem";
    case BandwidthClass::kDsl: return "dsl";
    case BandwidthClass::kCable: return "cable";
    case BandwidthClass::kT1: return "t1";
    case BandwidthClass::kT3: return "t3";
  }
  return "?";
}

double downstream_kbps(BandwidthClass c) noexcept {
  switch (c) {
    case BandwidthClass::kModem: return 56.0;
    case BandwidthClass::kDsl: return 1500.0;
    case BandwidthClass::kCable: return 3000.0;
    case BandwidthClass::kT1: return 1544.0;
    case BandwidthClass::kT3: return 44736.0;
  }
  return 0.0;
}

double upstream_kbps(BandwidthClass c) noexcept {
  switch (c) {
    case BandwidthClass::kModem: return 56.0;
    case BandwidthClass::kDsl: return 128.0;
    case BandwidthClass::kCable: return 400.0;
    case BandwidthClass::kT1: return 1544.0;
    case BandwidthClass::kT3: return 44736.0;
  }
  return 0.0;
}

double kbps_to_queries_per_minute(double kbps) noexcept {
  // Kbps -> bytes/min -> queries/min.
  const double bytes_per_minute = kbps * 1000.0 / 8.0 * 60.0;
  return bytes_per_minute / kQueryWireBytes;
}

double link_queries_per_minute(BandwidthClass from, BandwidthClass to) noexcept {
  return kbps_to_queries_per_minute(
      std::min(upstream_kbps(from), downstream_kbps(to)));
}

BandwidthMap::BandwidthMap(std::size_t peer_count, util::Rng& rng) {
  classes_.reserve(peer_count);
  for (std::size_t i = 0; i < peer_count; ++i) {
    const double u = rng.uniform();
    BandwidthClass c;
    if (u < 0.22) c = BandwidthClass::kModem;
    else if (u < 0.52) c = BandwidthClass::kDsl;
    else if (u < 0.90) c = BandwidthClass::kCable;
    else if (u < 0.98) c = BandwidthClass::kT1;
    else c = BandwidthClass::kT3;
    classes_.push_back(c);
  }
}

double BandwidthMap::peer_upstream_kbps(PeerId id) const noexcept {
  return upstream_kbps(classes_[id]);
}

double BandwidthMap::peer_downstream_kbps(PeerId id) const noexcept {
  return downstream_kbps(classes_[id]);
}

double BandwidthMap::link_queries_per_minute(PeerId from, PeerId to) const noexcept {
  return topology::link_queries_per_minute(classes_[from], classes_[to]);
}

double BandwidthMap::fraction_downstream_at_least(double kbps) const noexcept {
  if (classes_.empty()) return 0.0;
  std::size_t n = 0;
  for (auto c : classes_) {
    if (downstream_kbps(c) >= kbps) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(classes_.size());
}

double BandwidthMap::fraction_upstream_at_most(double kbps) const noexcept {
  if (classes_.empty()) return 0.0;
  std::size_t n = 0;
  for (auto c : classes_) {
    if (upstream_kbps(c) <= kbps) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(classes_.size());
}

}  // namespace ddp::topology
