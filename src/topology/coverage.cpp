#include "topology/coverage.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

namespace ddp::topology {

double CoverageProfile::total_reach() const noexcept {
  double sum = 0.0;
  for (double v : new_nodes) sum += v;
  return sum;
}

double CoverageProfile::total_messages() const noexcept {
  double sum = 0.0;
  for (double v : messages) sum += v;
  return sum;
}

double CoverageProfile::cumulative_reach(std::size_t h) const noexcept {
  double sum = 0.0;
  for (std::size_t i = 0; i < h && i < new_nodes.size(); ++i) sum += new_nodes[i];
  return sum;
}

double CoverageProfile::fresh_fraction(std::size_t h) const noexcept {
  if (h == 0 || h > messages.size()) return 0.0;
  const double m = messages[h - 1];
  if (m <= 0.0) return 0.0;
  return std::min(1.0, new_nodes[h - 1] / m);
}

double CoverageProfile::branching(std::size_t h) const noexcept {
  if (h == 0 || h >= messages.size()) return 0.0;
  const double fresh = new_nodes[h - 1];
  if (fresh <= 0.0) return 0.0;
  return messages[h] / fresh;
}

CoverageProfile flood_coverage(const Graph& g, PeerId origin, std::size_t ttl) {
  CoverageProfile p;
  p.new_nodes.assign(ttl, 0.0);
  p.messages.assign(ttl, 0.0);
  if (ttl == 0 || origin >= g.node_count() || !g.is_active(origin)) return p;

  // BFS wavefront; `seen` marks peers that already received the query.
  std::vector<char> seen(g.node_count(), 0);
  seen[origin] = 1;
  std::vector<PeerId> frontier{origin};
  std::vector<PeerId> next;

  for (std::size_t h = 1; h <= ttl && !frontier.empty(); ++h) {
    next.clear();
    double msgs = 0.0;
    for (PeerId u : frontier) {
      // The origin sends to all neighbours; forwarders skip the sender.
      // Counting: each fresh peer u at hop h-1 transmits deg(u) minus one
      // copy per inbound edge it already received on. Gnutella forwards on
      // all connections except the arrival one, so out-fan = deg(u) - 1
      // (deg(u) for the origin). Some copies land on already-seen peers:
      // those are the dropped duplicates, still counted in `messages`.
      const double outfan = (u == origin && h == 1)
                                ? static_cast<double>(g.degree(u))
                                : static_cast<double>(g.degree(u)) - 1.0;
      msgs += std::max(0.0, outfan);
      for (PeerId v : g.neighbors(u)) {
        if (!g.is_active(v) || seen[v]) continue;
        seen[v] = 1;
        next.push_back(v);
      }
    }
    p.messages[h - 1] = msgs;
    p.new_nodes[h - 1] = static_cast<double>(next.size());
    frontier.swap(next);
  }
  return p;
}

std::vector<CoverageProfile> flood_coverage_batch(
    const Graph& g, std::span<const PeerId> origins, std::size_t ttl) {
  std::vector<CoverageProfile> out(origins.size());
  for (CoverageProfile& p : out) {
    p.new_nodes.assign(ttl, 0.0);
    p.messages.assign(ttl, 0.0);
  }
  if (ttl == 0) return out;

  // Bit k of a mask stands for origins[base + k]. seen[v] marks the
  // floods that already reached v, frontier[v] those that reached it at
  // the previous hop, and arrived[v] collects this hop's arrivals.
  constexpr std::size_t kPass = 64;
  const std::size_t n = g.node_count();
  std::vector<std::uint64_t> seen(n), frontier(n), arrived(n, 0);
  std::array<std::uint64_t, kPass> fresh_count{};
  std::array<std::uint64_t, kPass> fanout{};
  for (std::size_t base = 0; base < origins.size(); base += kPass) {
    const std::size_t lanes = std::min(kPass, origins.size() - base);
    std::fill(seen.begin(), seen.end(), 0);
    std::fill(frontier.begin(), frontier.end(), 0);
    bool live = false;
    for (std::size_t k = 0; k < lanes; ++k) {
      const PeerId o = origins[base + k];
      if (o >= n || !g.is_active(o)) continue;
      seen[o] |= std::uint64_t{1} << k;
      frontier[o] |= std::uint64_t{1} << k;
      // The origin sends to all neighbours (forwarders skip the sender).
      out[base + k].messages[0] = static_cast<double>(g.degree(o));
      live = true;
    }
    for (std::size_t h = 1; h <= ttl && live; ++h) {
      for (PeerId u = 0; u < n; ++u) {
        const std::uint64_t f = frontier[u];
        if (f == 0) continue;
        for (const PeerId v : g.neighbors(u)) arrived[v] |= f;
      }
      // A peer first reached at hop h forwards to deg - 1 neighbours at
      // hop h + 1: its whole out-fan, duplicates included, counts there.
      // It arrived over an edge, so deg >= 1.
      fresh_count.fill(0);
      fanout.fill(0);
      live = false;
      for (PeerId v = 0; v < n; ++v) {
        std::uint64_t fresh = g.is_active(v) ? arrived[v] & ~seen[v] : 0;
        arrived[v] = 0;
        frontier[v] = fresh;
        if (fresh == 0) continue;
        seen[v] |= fresh;
        live = true;
        const std::uint64_t outfan = g.degree(v) - 1;
        for (; fresh != 0; fresh &= fresh - 1) {
          const auto k = static_cast<std::size_t>(std::countr_zero(fresh));
          ++fresh_count[k];
          fanout[k] += outfan;
        }
      }
      for (std::size_t k = 0; k < lanes; ++k) {
        CoverageProfile& p = out[base + k];
        p.new_nodes[h - 1] = static_cast<double>(fresh_count[k]);
        if (h < ttl) p.messages[h] = static_cast<double>(fanout[k]);
      }
    }
  }
  return out;
}

CoverageProfile average_coverage(const Graph& g, std::size_t ttl,
                                 std::size_t samples, util::Rng& rng) {
  CoverageProfile avg;
  avg.new_nodes.assign(ttl, 0.0);
  avg.messages.assign(ttl, 0.0);
  if (g.active_count() == 0 || ttl == 0) return avg;

  std::vector<PeerId> origins;
  if (samples >= g.active_count()) {
    for (PeerId u = 0; u < g.node_count(); ++u) {
      if (g.is_active(u)) origins.push_back(u);
    }
  } else {
    for (std::size_t s = 0; s < samples; ++s) {
      const PeerId u = g.random_active_node(rng);
      if (u == kInvalidPeer) break;
      origins.push_back(u);
    }
  }
  // Integer-valued terms: the sums are exact in any order.
  for (const CoverageProfile& p : flood_coverage_batch(g, origins, ttl)) {
    for (std::size_t h = 0; h < ttl; ++h) {
      avg.new_nodes[h] += p.new_nodes[h];
      avg.messages[h] += p.messages[h];
    }
  }
  if (!origins.empty()) {
    const auto used = static_cast<double>(origins.size());
    for (std::size_t h = 0; h < ttl; ++h) {
      avg.new_nodes[h] /= used;
      avg.messages[h] /= used;
    }
  }
  return avg;
}

}  // namespace ddp::topology
