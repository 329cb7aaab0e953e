#include "util/rng.hpp"

#include <cmath>

namespace ddp::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t hash_tag(std::string_view tag) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream) noexcept : seed_origin_(seed) {
  std::uint64_t sm = seed;
  state_ = 0;
  inc_ = (splitmix64(sm) ^ stream) | 1u;  // stream selector must be odd
  // Standard PCG initialization: advance once, add seeded state, advance.
  next_u32();
  state_ += splitmix64(sm);
  next_u32();
}

std::uint32_t Rng::next_u32() noexcept {
  const std::uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  const auto xorshifted = static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
  const auto rot = static_cast<std::uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

std::uint64_t Rng::next_u64() noexcept {
  return (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
}

double Rng::uniform() noexcept {
  // 53 random bits -> double in [0,1) with full mantissa resolution.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint32_t Rng::below(std::uint32_t n) noexcept {
  if (n <= 1) return 0;
  // Lemire's nearly-divisionless unbiased bounded generation.
  std::uint64_t m = static_cast<std::uint64_t>(next_u32()) * n;
  auto lowbits = static_cast<std::uint32_t>(m);
  if (lowbits < n) {
    const std::uint32_t threshold = (0u - n) % n;
    while (lowbits < threshold) {
      m = static_cast<std::uint64_t>(next_u32()) * n;
      lowbits = static_cast<std::uint32_t>(m);
    }
  }
  return static_cast<std::uint32_t>(m >> 32);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) noexcept {
  if (hi <= lo) return lo;
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // Span fits in 32 bits for every caller in this library; fall back to
  // modulo of a 64-bit draw for wider spans (bias is < 2^-32, negligible).
  if (span <= 0xffffffffULL) {
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint32_t>(span)));
  }
  return lo + static_cast<std::int64_t>(next_u64() % span);
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::exponential(double mean) noexcept {
  double u = uniform();
  // Avoid log(0): uniform() < 1 always, but guard the other end.
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::normal() noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double mul = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * mul;
  has_spare_ = true;
  return u * mul;
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::lognormal_mean_var(double mean, double variance) noexcept {
  // Solve for the parameters (mu, sigma) of the underlying normal such that
  // the lognormal has the requested arithmetic mean m and variance v:
  //   sigma^2 = ln(1 + v/m^2),  mu = ln(m) - sigma^2/2.
  const double m2 = mean * mean;
  const double sigma2 = std::log1p(variance / m2);
  const double mu = std::log(mean) - 0.5 * sigma2;
  return std::exp(normal(mu, std::sqrt(sigma2)));
}

double Rng::pareto(double scale, double shape) noexcept {
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return scale / std::pow(u, 1.0 / shape);
}

std::uint32_t Rng::poisson(double rate) noexcept {
  if (rate <= 0.0) return 0;
  if (rate < 64.0) {
    // Knuth's product method.
    const double limit = std::exp(-rate);
    double prod = uniform();
    std::uint32_t n = 0;
    while (prod > limit) {
      prod *= uniform();
      ++n;
    }
    return n;
  }
  // Normal approximation with continuity correction; error is immaterial at
  // the arrival volumes where this branch engages.
  const double x = normal(rate, std::sqrt(rate)) + 0.5;
  return x <= 0.0 ? 0u : static_cast<std::uint32_t>(x);
}

Rng Rng::fork(std::string_view tag) const noexcept { return fork(hash_tag(tag)); }

Rng Rng::fork(std::uint64_t key) const noexcept {
  // Children are seeded from the master seed and keyed stream so that
  // fork order does not matter: fork("a") is the same whether or not
  // fork("b") happened first.
  std::uint64_t mix = seed_origin_;
  const std::uint64_t child_seed = splitmix64(mix) ^ key;
  return Rng(child_seed, key * 2 + 1);
}

}  // namespace ddp::util
