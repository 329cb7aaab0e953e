#include "util/rate_window.hpp"

#include <cmath>
#include <stdexcept>

namespace ddp::util {

RateWindow::RateWindow(SimTime window, std::size_t buckets)
    : window_(window),
      bucket_len_(window / static_cast<double>(buckets)),
      buckets_(buckets, 0.0) {
  if (window <= 0.0 || buckets == 0) {
    throw std::invalid_argument("RateWindow: window and buckets must be positive");
  }
}

void RateWindow::advance(SimTime t) noexcept {
  const auto target = static_cast<std::int64_t>(std::floor(t / bucket_len_));
  if (!started_) {
    head_index_ = target;
    started_ = true;
    return;
  }
  if (target <= head_index_) return;
  std::int64_t steps = target - head_index_;
  const auto n = static_cast<std::int64_t>(buckets_.size());
  if (steps >= n) {
    // Entire window expired.
    for (double& b : buckets_) b = 0.0;
    sum_ = 0.0;
    head_index_ = target;
    return;
  }
  while (steps-- > 0) {
    ++head_index_;
    double& slot = buckets_[static_cast<std::size_t>(head_index_ % n)];
    sum_ -= slot;
    slot = 0.0;
  }
  if (sum_ < 0.0) sum_ = 0.0;  // FP hygiene after many add/expire cycles
}

void RateWindow::add(SimTime t, double count) noexcept {
  advance(t);
  const auto n = static_cast<std::int64_t>(buckets_.size());
  buckets_[static_cast<std::size_t>(head_index_ % n)] += count;
  sum_ += count;
}

void RateWindow::add_at(SimTime now, SimTime when, double count) noexcept {
  advance(now);
  const auto n = static_cast<std::int64_t>(buckets_.size());
  auto target = static_cast<std::int64_t>(std::floor(when / bucket_len_));
  if (target > head_index_) target = head_index_;  // clock skew: clamp to now
  if (target < 0 || head_index_ - target >= n) return;  // already expired
  buckets_[static_cast<std::size_t>(target % n)] += count;
  sum_ += count;
}

double RateWindow::total(SimTime t) noexcept {
  advance(t);
  return sum_;
}

double RateWindow::total_at(SimTime t) const noexcept {
  if (!started_) return 0.0;
  const auto target = static_cast<std::int64_t>(std::floor(t / bucket_len_));
  if (target <= head_index_) return sum_;
  const auto n = static_cast<std::int64_t>(buckets_.size());
  if (target - head_index_ >= n) return 0.0;
  // Mirror advance()'s arithmetic exactly: subtract each expiring bucket
  // in ring order, then apply the same FP-hygiene clamp.
  double s = sum_;
  for (std::int64_t idx = head_index_ + 1; idx <= target; ++idx) {
    s -= buckets_[static_cast<std::size_t>(idx % n)];
  }
  return s < 0.0 ? 0.0 : s;
}

double RateWindow::per_minute_at(SimTime t) const noexcept {
  return total_at(t) * (kMinute / window_);
}

void RateWindow::reset() noexcept {
  for (double& b : buckets_) b = 0.0;
  sum_ = 0.0;
  started_ = false;
}

}  // namespace ddp::util
