#include "core/config.hpp"

#include <cmath>

namespace ddp::core {

namespace {

bool finite_positive(double v) noexcept { return std::isfinite(v) && v > 0.0; }

bool fraction(double v) noexcept {
  return std::isfinite(v) && v >= 0.0 && v <= 1.0;
}

}  // namespace

std::string_view cut_policy_name(CutPolicy policy) noexcept {
  switch (policy) {
    case CutPolicy::kPermanent: return "permanent";
    case CutPolicy::kQuarantine: return "quarantine";
  }
  return "?";
}

std::string validate(const DdPoliceConfig& cfg) {
  if (!finite_positive(cfg.cut_threshold)) {
    return "ddpolice.cut_threshold must be a finite value > 0";
  }
  if (!finite_positive(cfg.warning_threshold)) {
    return "ddpolice.warning_threshold must be a finite value > 0";
  }
  if (!finite_positive(cfg.good_issue_bound)) {
    return "ddpolice.good_issue_bound must be a finite value > 0";
  }
  if (std::isnan(cfg.capacity_bound_per_minute) ||
      cfg.capacity_bound_per_minute <= 0.0) {
    // +infinity is a documented setting (the paper's literal definitions).
    return "ddpolice.capacity_bound_per_minute must be > 0 (or +inf)";
  }
  if (cfg.exchange_policy == ExchangePolicy::kPeriodic &&
      !finite_positive(cfg.exchange_period_minutes)) {
    // Event-driven exchange ignores the period (0 is conventional there).
    return "ddpolice.exchange_period_minutes must be a finite value > 0";
  }
  if (cfg.exchange_policy == ExchangePolicy::kEventDriven &&
      (std::isnan(cfg.exchange_period_minutes) ||
       cfg.exchange_period_minutes < 0.0)) {
    return "ddpolice.exchange_period_minutes must be >= 0";
  }
  if (cfg.buddy_radius < 1 || cfg.buddy_radius > 2) {
    return "ddpolice.buddy_radius must be 1 or 2";
  }
  if (!std::isfinite(cfg.suppression_window_seconds) ||
      cfg.suppression_window_seconds < 0.0) {
    return "ddpolice.suppression_window_seconds must be finite and >= 0";
  }
  if (!finite_positive(cfg.collect_timeout_seconds)) {
    return "ddpolice.collect_timeout_seconds must be a finite value > 0";
  }
  if (std::isnan(cfg.ping_period_minutes) || cfg.ping_period_minutes < 0.0) {
    return "ddpolice.ping_period_minutes must be >= 0";
  }
  if (cfg.max_report_retries < 0 || cfg.max_exchange_retries < 0) {
    return "ddpolice retry counts must be >= 0";
  }
  if (cfg.cut_confirmations < 1) {
    return "ddpolice.cut_confirmations must be >= 1";
  }
  if (!std::isfinite(cfg.retry_backoff_base_seconds) ||
      cfg.retry_backoff_base_seconds < 0.0) {
    return "ddpolice.retry_backoff_base_seconds must be finite and >= 0";
  }
  if (!finite_positive(cfg.quarantine_minutes)) {
    return "ddpolice.quarantine_minutes must be a finite value > 0";
  }
  if (!std::isfinite(cfg.quarantine_growth) || cfg.quarantine_growth < 1.0) {
    return "ddpolice.quarantine_growth must be finite and >= 1";
  }
  if (!finite_positive(cfg.probation_minutes)) {
    return "ddpolice.probation_minutes must be a finite value > 0";
  }
  if (!fraction(cfg.probation_budget)) {
    return "ddpolice.probation_budget must be within [0, 1]";
  }
  if (cfg.probation_links < 1) {
    return "ddpolice.probation_links must be >= 1";
  }
  if (cfg.max_strikes < 1) {
    return "ddpolice.max_strikes must be >= 1";
  }
  if (cfg.adaptive.enabled) {
    const AdaptiveConfig& a = cfg.adaptive;
    if (a.window_minutes == 0) {
      return "ddpolice.adaptive.window_minutes must be >= 1";
    }
    if (a.min_samples == 0 || a.min_samples > a.window_minutes) {
      return "ddpolice.adaptive.min_samples must be in [1, window_minutes]";
    }
    if (!finite_positive(a.estimate_period_minutes)) {
      return "ddpolice.adaptive.estimate_period_minutes must be a finite "
             "value > 0";
    }
    if (!finite_positive(a.k1)) {
      return "ddpolice.adaptive.k1 must be a finite value > 0";
    }
    if (!std::isfinite(a.k2) || a.k1 >= a.k2) {
      return "ddpolice.adaptive.k1 must be < k2 (the suspicion rail must "
             "sit below the cut rail)";
    }
    if (!std::isfinite(a.band_floor) || a.band_floor < 0.0) {
      return "ddpolice.adaptive.band_floor must be finite and >= 0";
    }
    if (!fraction(a.suspicious_budget)) {
      return "ddpolice.adaptive.suspicious_budget must be within [0, 1]";
    }
    if (!finite_positive(a.suspicion_exit_minutes)) {
      return "ddpolice.adaptive.suspicion_exit_minutes must be a finite "
             "value > 0";
    }
    if (!finite_positive(a.malicious_ct)) {
      return "ddpolice.adaptive.malicious_ct must be a finite value > 0";
    }
  }
  return {};
}

}  // namespace ddp::core
