#pragma once

/// \file defense.hpp
/// The defenses evaluated against the overlay DDoS, and the naive-cut
/// strawman:
///
///   * none        — undefended flooding network (the paper's "under DDoS
///                   without DD-POLICE" curves);
///   * dd-police   — the paper's contribution (Sec. 3), core::DdPolice;
///   * naive-cut   — disconnect any neighbour whose per-link rate exceeds a
///                   threshold, without buddy-group consultation. This is
///                   the strawman Sec. 2.1 warns about ("disconnecting all
///                   the peers who send out a large number of queries is
///                   dangerous");
///   * fair-share  — application-layer load balancing in the style of the
///                   related work [21]; no disconnection, per-link max-min
///                   capacity shares (implemented inside the flow engine).
///
/// The scenario runtime drives DD-POLICE and naive-cut directly; none and
/// fair-share keep no defense state.

#include <string_view>
#include <vector>

#include "core/ddpolice.hpp"
#include "core/overlay_port.hpp"

namespace ddp::defense {

enum class Kind : std::uint8_t { kNone, kDdPolice, kNaiveCut, kFairShare };

std::string_view kind_name(Kind k) noexcept;

/// The Sec. 2.1 strawman: per-link rate threshold, immediate disconnect.
/// Engine-agnostic: reads rates and cuts links through the same
/// core::OverlayPort seam DD-POLICE uses, so it runs behind any engine.
class NaiveCutDefense {
 public:
  NaiveCutDefense(core::OverlayPort& port, double threshold_per_minute);

  /// Cut every in-link that carried more than the threshold in the last
  /// completed minute; call at every completed simulated minute.
  void on_minute(double minute);
  const std::vector<core::Decision>& decisions() const noexcept {
    return decisions_;
  }
  void save(snapshot::Writer& w) const;
  void load(snapshot::Reader& r);

 private:
  core::OverlayPort& port_;
  double threshold_;
  std::vector<core::Decision> decisions_;
};

}  // namespace ddp::defense
