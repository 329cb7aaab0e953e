#include "workload/content.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace ddp::workload {

ContentModel::ContentModel(const ContentConfig& config, std::size_t peer_count)
    : peer_count_(peer_count),
      seed_(config.placement_seed),
      popularity_(config.objects, config.popularity_theta) {
  // Per-object replication: proportional to pmf^skew, normalized so the
  // catalogue-wide average replica count matches mean_replicas.
  replication_.resize(config.objects);
  double weight_sum = 0.0;
  for (std::size_t o = 0; o < config.objects; ++o) {
    replication_[o] = std::pow(popularity_.pmf(o), config.replication_skew);
    weight_sum += replication_[o];
  }
  const double total_replicas =
      config.mean_replicas * static_cast<double>(config.objects);
  for (double& r : replication_) {
    const double replicas = total_replicas * r / weight_sum;
    r = std::min(1.0, replicas / static_cast<double>(std::max<std::size_t>(peer_count, 1)));
  }

  // Hit-probability lookup grid: log-spaced reach values 1 .. peer_count.
  // Each object's popularity mass and miss probability are read once.
  std::vector<double> mass(replication_.size());
  std::vector<double> miss(replication_.size());
  for (std::size_t o = 0; o < replication_.size(); ++o) {
    mass[o] = popularity_.pmf(o);
    miss[o] = 1.0 - replication_[o];
  }
  const std::size_t grid_points = 64;
  grid_n_.reserve(grid_points + 1);
  grid_p_.reserve(grid_points + 1);
  grid_n_.push_back(0.0);
  grid_p_.push_back(0.0);
  const double max_n = static_cast<double>(std::max<std::size_t>(peer_count, 2));
  for (std::size_t i = 0; i < grid_points; ++i) {
    const double frac = static_cast<double>(i) / static_cast<double>(grid_points - 1);
    const double n = std::exp(std::log(max_n) * frac);  // 1 .. max_n
    double p = 0.0;
    for (std::size_t o = 0; o < mass.size(); ++o) {
      p += mass[o] * (1.0 - std::pow(miss[o], n));
    }
    grid_n_.push_back(n);
    grid_p_.push_back(p);
  }
}

ObjectId ContentModel::sample_query_object(util::Rng& rng) const noexcept {
  return static_cast<ObjectId>(popularity_.sample(rng));
}

bool ContentModel::peer_has(PeerId p, ObjectId o) const noexcept {
  if (o >= replication_.size()) return false;
  // Deterministic membership keyed by (seed, peer, object).
  std::uint64_t s = seed_ ^ (static_cast<std::uint64_t>(p) << 32) ^ o;
  const std::uint64_t h = util::splitmix64(s);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < replication_[o];
}

double ContentModel::replication_ratio(ObjectId o) const noexcept {
  return o < replication_.size() ? replication_[o] : 0.0;
}

double ContentModel::expected_replicas(ObjectId o) const noexcept {
  return replication_ratio(o) * static_cast<double>(peer_count_);
}

double ContentModel::hit_probability(ObjectId o, double peers_reached) const noexcept {
  if (o >= replication_.size() || peers_reached <= 0.0) return 0.0;
  return 1.0 - std::pow(1.0 - replication_[o], peers_reached);
}

double ContentModel::average_hit_probability(double peers_reached) const noexcept {
  if (peers_reached <= 0.0) return 0.0;
  const auto it = std::lower_bound(grid_n_.begin(), grid_n_.end(), peers_reached);
  if (it == grid_n_.end()) return grid_p_.back();
  const auto hi = static_cast<std::size_t>(it - grid_n_.begin());
  if (hi == 0) return grid_p_.front();
  const double n0 = grid_n_[hi - 1], n1 = grid_n_[hi];
  const double p0 = grid_p_[hi - 1], p1 = grid_p_[hi];
  const double frac = (n1 > n0) ? (peers_reached - n0) / (n1 - n0) : 0.0;
  return p0 + frac * (p1 - p0);
}

std::size_t ContentModel::shared_count(PeerId p) const noexcept {
  std::size_t n = 0;
  for (ObjectId o = 0; o < replication_.size(); ++o) {
    if (peer_has(p, o)) ++n;
  }
  return n;
}

}  // namespace ddp::workload
