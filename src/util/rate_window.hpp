#pragma once

/// \file rate_window.hpp
/// Sliding-window event counter: "how many queries did neighbour i send me
/// in the past minute?" — the primitive behind the paper's Out_query(i) /
/// In_query(i) monitors (Sec. 3.2).
///
/// Implemented as a ring of fixed sub-buckets (default 60 x 1 s for a 1-min
/// window) so advancing time and counting are O(1) amortized and memory is
/// constant, which matters with one window per directed neighbour link.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace ddp::util {

class RateWindow {
 public:
  /// \param window  window length in seconds (e.g. 60 for per-minute counts)
  /// \param buckets number of sub-buckets; finer buckets -> smoother decay
  explicit RateWindow(SimTime window = 60.0, std::size_t buckets = 60);

  /// Record `count` events at simulated time `t`. Times must be
  /// non-decreasing across calls (simulation time always is).
  void add(SimTime t, double count = 1.0) noexcept;

  /// Record `count` into the bucket holding the PAST time `when`, after
  /// advancing the window to `now`. Dropped silently when `when` has
  /// already expired from the window. This is how a correction that is
  /// discovered late (e.g. a forwarded query proven to be a duplicate
  /// only when it comes back) stays aligned with the event it amends:
  /// both then expire from the window together, instead of the
  /// correction outliving the event and biasing the total.
  void add_at(SimTime now, SimTime when, double count = 1.0) noexcept;

  /// Total events inside [t - window, t]. Also advances the window.
  double total(SimTime t) noexcept;

  /// total(t) without advancing: expired buckets are subtracted from the
  /// cached sum in the same order advance() would zero them, so the value
  /// matches the mutable read bit-for-bit. This is the read behind the
  /// packet engine's monitors, which DD-POLICE reads through the const
  /// OverlayPort::sent_last_minute (windows then advance only on add()).
  double total_at(SimTime t) const noexcept;

  /// Events per minute over the window at `t`, i.e. total_at(t) *
  /// (60 / window); reads without advancing, like total_at().
  double per_minute_at(SimTime t) const noexcept;

  SimTime window() const noexcept { return window_; }

  /// Forget everything (used when a link is torn down and re-established).
  void reset() noexcept;

  /// Complete window state, exposed verbatim for checkpointing.
  struct Raw {
    SimTime window = 60.0;
    SimTime bucket_len = 1.0;
    std::vector<double> buckets;
    std::int64_t head_index = 0;
    double sum = 0.0;
    bool started = false;
  };

  Raw raw() const { return {window_, bucket_len_, buckets_, head_index_, sum_, started_}; }

  /// Restore a checkpointed window. Returns false (leaving the window
  /// untouched) when the raw state is structurally invalid.
  bool restore(Raw r) {
    if (r.buckets.empty() || !(r.window > 0.0) || !(r.bucket_len > 0.0)) return false;
    window_ = r.window;
    bucket_len_ = r.bucket_len;
    buckets_ = std::move(r.buckets);
    head_index_ = r.head_index;
    sum_ = r.sum;
    started_ = r.started;
    return true;
  }

 private:
  void advance(SimTime t) noexcept;

  SimTime window_;
  SimTime bucket_len_;
  std::vector<double> buckets_;
  std::int64_t head_index_ = 0;  ///< absolute index of the newest bucket
  double sum_ = 0.0;
  bool started_ = false;
};

}  // namespace ddp::util
