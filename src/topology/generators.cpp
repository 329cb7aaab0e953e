#include "topology/generators.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/log.hpp"

namespace ddp::topology {

std::string_view model_name(Model model) noexcept {
  switch (model) {
    case Model::kBarabasiAlbert: return "ba";
    case Model::kWaxman: return "waxman";
    case Model::kErdosRenyi: return "er";
    case Model::kTwoTier: return "two-tier";
    case Model::kHardCutoff: return "hard-cutoff";
  }
  return "?";
}

std::size_t hard_cutoff_degree(const GeneratorConfig& cfg) {
  const std::size_t n = cfg.nodes;
  const double kc_raw =
      std::ceil(std::pow(static_cast<double>(n), 1.0 / cfg.hc_cutoff_exponent));
  // The seed clique already gives every member degree m; a cutoff below
  // m + 1 could never grow past the clique.
  return std::max<std::size_t>(
      cfg.ba_links_per_node + 1,
      kc_raw < static_cast<double>(n) ? static_cast<std::size_t>(kc_raw) : n);
}

namespace {

/// Connect stray components by linking a random node of each secondary
/// component to a random node of the main one.
void patch_connectivity(Graph& g, util::Rng& rng) {
  const std::size_t n = g.node_count();
  std::vector<int> comp(n, -1);
  int comp_count = 0;
  std::vector<PeerId> stack;
  for (PeerId s = 0; s < n; ++s) {
    if (comp[s] >= 0) continue;
    comp[s] = comp_count;
    stack.push_back(s);
    while (!stack.empty()) {
      const PeerId u = stack.back();
      stack.pop_back();
      for (PeerId v : g.neighbors(u)) {
        if (comp[v] < 0) {
          comp[v] = comp_count;
          stack.push_back(v);
        }
      }
    }
    ++comp_count;
  }
  if (comp_count <= 1) return;
  // One representative per component; attach all others to component 0.
  std::vector<PeerId> rep(static_cast<std::size_t>(comp_count), kInvalidPeer);
  for (PeerId u = 0; u < n; ++u) {
    auto c = static_cast<std::size_t>(comp[u]);
    if (rep[c] == kInvalidPeer) rep[c] = u;
  }
  for (std::size_t c = 1; c < rep.size(); ++c) {
    // Random anchor in component 0.
    PeerId anchor = rep[0];
    for (int tries = 0; tries < 64; ++tries) {
      const auto cand =
          static_cast<PeerId>(rng.below(static_cast<std::uint32_t>(n)));
      if (comp[cand] == 0) {
        anchor = cand;
        break;
      }
    }
    g.add_edge(rep[c], anchor);
  }
}

Graph generate_barabasi_albert(std::size_t n, std::size_t m, util::Rng& rng) {
  if (m == 0 || n <= m) {
    throw std::invalid_argument("BA generator: need nodes > links_per_node >= 1");
  }
  Graph g(n);
  // Seed clique over the first m+1 nodes.
  for (PeerId u = 0; u <= m; ++u) {
    for (PeerId v = u + 1; v <= m; ++v) g.add_edge(u, v);
  }
  // Repeated-endpoint list: picking a uniform element is equivalent to
  // degree-proportional node selection.
  std::vector<PeerId> endpoints;
  endpoints.reserve(2 * n * m);
  for (PeerId u = 0; u <= m; ++u) {
    for (PeerId v : g.neighbors(u)) {
      (void)v;
      endpoints.push_back(u);
    }
  }
  for (PeerId u = static_cast<PeerId>(m + 1); u < n; ++u) {
    std::size_t added = 0;
    std::vector<PeerId> chosen;
    while (added < m) {
      const PeerId target = endpoints[rng.below(
          static_cast<std::uint32_t>(endpoints.size()))];
      if (target == u ||
          std::find(chosen.begin(), chosen.end(), target) != chosen.end()) {
        continue;
      }
      g.add_edge(u, target);
      chosen.push_back(target);
      ++added;
    }
    for (PeerId t : chosen) {
      endpoints.push_back(u);
      endpoints.push_back(t);
    }
  }
  return g;
}

/// Barabási–Albert growth under a hard degree ceiling (the hub-suppressed
/// scale-free family studied for flood resilience): a node at the cutoff
/// stops attracting links, so its endpoint-list entries are skipped and the
/// joining node's preference redistributes to unsaturated peers.
Graph generate_hard_cutoff(const GeneratorConfig& cfg, util::Rng& rng) {
  const std::size_t n = cfg.nodes;
  const std::size_t m = cfg.ba_links_per_node;
  if (m == 0 || n <= m) {
    throw std::invalid_argument(
        "hard-cutoff generator: need nodes > links_per_node >= 1");
  }
  const std::size_t kc = hard_cutoff_degree(cfg);
  Graph g(n);
  for (PeerId u = 0; u <= m; ++u) {
    for (PeerId v = u + 1; v <= m; ++v) g.add_edge(u, v);
  }
  std::vector<PeerId> endpoints;
  endpoints.reserve(2 * n * m);
  for (PeerId u = 0; u <= m; ++u) {
    for (std::size_t k = 0; k < g.neighbors(u).size(); ++k) endpoints.push_back(u);
  }
  const auto saturated = [&](PeerId v) { return g.neighbors(v).size() >= kc; };
  std::vector<PeerId> chosen;
  for (PeerId u = static_cast<PeerId>(m + 1); u < n; ++u) {
    chosen.clear();
    std::size_t added = 0;
    // Preferential draws, rejecting saturated endpoints. The try budget
    // bounds the draw loop when most of the list points at full hubs.
    for (std::size_t tries = 0; tries < 64 * m && added < m; ++tries) {
      const PeerId target = endpoints[rng.below(
          static_cast<std::uint32_t>(endpoints.size()))];
      if (target == u || saturated(target) ||
          std::find(chosen.begin(), chosen.end(), target) != chosen.end()) {
        continue;
      }
      g.add_edge(u, target);
      chosen.push_back(target);
      ++added;
    }
    // Fallback sweep keeps the overlay connected when the draw budget ran
    // out: link to the earliest unsaturated non-neighbour.
    for (PeerId t = 0; t < u && added < m; ++t) {
      if (t == u || saturated(t) ||
          std::find(chosen.begin(), chosen.end(), t) != chosen.end()) {
        continue;
      }
      g.add_edge(u, t);
      chosen.push_back(t);
      ++added;
    }
    if (added == 0) {
      // Every earlier node is at the ceiling; connectivity trumps the
      // cutoff for this one link.
      g.add_edge(u, static_cast<PeerId>(u - 1));
      chosen.push_back(static_cast<PeerId>(u - 1));
    }
    for (PeerId t : chosen) {
      endpoints.push_back(u);
      endpoints.push_back(t);
    }
  }
  return g;
}

Graph generate_waxman(const GeneratorConfig& cfg, util::Rng& rng) {
  const std::size_t n = cfg.nodes;
  Graph g(n);
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform();
    y[i] = rng.uniform();
  }
  const double max_dist = std::sqrt(2.0);
  // First pass: expected degree with alpha as given, to derive a scaling
  // factor that hits the requested average degree.
  double expected_edges = 0.0;
  const std::size_t probe = std::min<std::size_t>(n, 200);
  for (std::size_t i = 0; i < probe; ++i) {
    for (std::size_t j = i + 1; j < probe; ++j) {
      const double d = std::hypot(x[i] - x[j], y[i] - y[j]);
      expected_edges += cfg.waxman_alpha * std::exp(-d / (cfg.waxman_beta * max_dist));
    }
  }
  const double probe_pairs = static_cast<double>(probe) * (static_cast<double>(probe) - 1.0) / 2.0;
  const double p_mean = probe_pairs > 0 ? expected_edges / probe_pairs : 0.0;
  const double target_edges = cfg.waxman_target_degree * static_cast<double>(n) / 2.0;
  const double all_pairs = static_cast<double>(n) * (static_cast<double>(n) - 1.0) / 2.0;
  const double scale = p_mean > 0 ? (target_edges / all_pairs) / p_mean : 1.0;

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d = std::hypot(x[i] - x[j], y[i] - y[j]);
      const double p =
          scale * cfg.waxman_alpha * std::exp(-d / (cfg.waxman_beta * max_dist));
      if (rng.chance(p)) g.add_edge(static_cast<PeerId>(i), static_cast<PeerId>(j));
    }
  }
  patch_connectivity(g, rng);
  return g;
}

Graph generate_erdos_renyi(const GeneratorConfig& cfg, util::Rng& rng) {
  const std::size_t n = cfg.nodes;
  Graph g(n);
  const double p = cfg.er_target_degree / static_cast<double>(n - 1);
  // Geometric skipping (Batagelj–Brandes) for O(edges) generation.
  const double log1mp = std::log1p(-p);
  std::size_t v = 1, w = static_cast<std::size_t>(-1);
  while (v < n) {
    double u = rng.uniform();
    if (u <= 0.0) u = 0x1.0p-53;
    w += 1 + static_cast<std::size_t>(std::floor(std::log(u) / log1mp));
    while (w >= v && v < n) {
      w -= v;
      ++v;
    }
    if (v < n) g.add_edge(static_cast<PeerId>(v), static_cast<PeerId>(w));
  }
  patch_connectivity(g, rng);
  return g;
}

}  // namespace

Graph generate(const GeneratorConfig& config, util::Rng& rng) {
  switch (config.model) {
    case Model::kBarabasiAlbert:
      return generate_barabasi_albert(config.nodes, config.ba_links_per_node, rng);
    case Model::kWaxman:
      return generate_waxman(config, rng);
    case Model::kErdosRenyi:
      return generate_erdos_renyi(config, rng);
    case Model::kHardCutoff:
      return generate_hard_cutoff(config, rng);
    case Model::kTwoTier: {
      TwoTierConfig tt = config.two_tier;
      tt.nodes = config.nodes;
      tt.ultrapeers = std::min(tt.ultrapeers, std::max<std::size_t>(
          tt.core_links_per_node + 2, config.nodes / 5));
      return two_tier_topology(tt, rng);
    }
  }
  throw std::invalid_argument("generate: unknown model");
}

Graph two_tier_topology(const TwoTierConfig& config, util::Rng& rng) {
  if (config.ultrapeers < config.core_links_per_node + 1 ||
      config.ultrapeers > config.nodes) {
    throw std::invalid_argument("two_tier_topology: bad ultrapeer count");
  }
  // Barabási–Albert core over the first `ultrapeers` ids.
  Graph core = generate_barabasi_albert(config.ultrapeers,
                                        config.core_links_per_node, rng);
  Graph g(config.nodes);
  for (PeerId u = 0; u < config.ultrapeers; ++u) {
    for (PeerId v : core.neighbors(u)) {
      if (u < v) g.add_edge(u, v);
    }
  }
  // Leaves attach to degree-preferential ultrapeers (host caches hand out
  // the well-known, well-connected ones first).
  for (PeerId leaf = static_cast<PeerId>(config.ultrapeers);
       leaf < config.nodes; ++leaf) {
    std::size_t added = 0;
    for (std::size_t tries = 0;
         tries < config.leaf_links * 16 && added < config.leaf_links; ++tries) {
      const auto up = static_cast<PeerId>(
          rng.below(static_cast<std::uint32_t>(config.ultrapeers)));
      if (g.add_edge(leaf, up)) ++added;
    }
  }
  return g;
}

Graph paper_topology(std::size_t nodes, util::Rng& rng) {
  GeneratorConfig cfg;
  cfg.model = Model::kBarabasiAlbert;
  cfg.nodes = nodes;
  cfg.ba_links_per_node = 3;
  return generate(cfg, rng);
}

}  // namespace ddp::topology
