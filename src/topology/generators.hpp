#pragma once

/// \file generators.hpp
/// Overlay topology generators replacing the paper's use of BRITE
/// (Sec. 3.5): Barabási–Albert preferential attachment (BRITE's default
/// AS-level model and the one matching the paper's description — "most
/// peers have 3 or 4 logical neighbors, and a few peers have tens of direct
/// neighbors; the average number of neighbors is 6"), Waxman random
/// geometric graphs, and Erdős–Rényi as a null model for ablations.

#include <cstdint>
#include <string_view>

#include "topology/graph.hpp"
#include "util/rng.hpp"

namespace ddp::topology {

enum class Model : std::uint8_t {
  kBarabasiAlbert,  ///< preferential attachment, m links per joining node
  kWaxman,          ///< BRITE's Waxman flat random model
  kErdosRenyi,      ///< G(n, p) null model
  kTwoTier,         ///< Gnutella 0.6 ultrapeer/leaf structure
  kHardCutoff,      ///< preferential attachment with a hard degree cutoff
};

/// CLI name of a model: ba, waxman, er, two-tier, hard-cutoff ("?" past
/// the last one).
std::string_view model_name(Model model) noexcept;

/// A Gnutella-0.6-style two-tier overlay (the paper's introduction: the
/// flood runs "among peers or among super-peers"). A BA core of
/// `ultrapeers` forms the flooding backbone; the remaining nodes are
/// leaves, each attached to `leaf_links` ultrapeers. Node ids
/// [0, ultrapeers) are the core.
struct TwoTierConfig {
  std::size_t nodes = 2000;
  std::size_t ultrapeers = 300;
  std::size_t core_links_per_node = 3;  ///< BA parameter inside the core
  std::size_t leaf_links = 2;           ///< ultrapeer connections per leaf
};

struct GeneratorConfig {
  Model model = Model::kBarabasiAlbert;
  std::size_t nodes = 2000;

  /// Two-tier parameters (model == kTwoTier); `nodes` overrides the
  /// embedded node count.
  TwoTierConfig two_tier{};

  /// Barabási–Albert: edges added per joining node. m = 3 yields average
  /// degree ~6 with mode 3-4 and a heavy tail — the paper's shape.
  std::size_t ba_links_per_node = 3;

  /// Waxman parameters: P(edge between u,v) = alpha * exp(-d / (beta * L)).
  double waxman_alpha = 0.15;
  double waxman_beta = 0.2;
  /// Waxman target average degree; edge probability is scaled to hit it.
  double waxman_target_degree = 6.0;

  /// Erdős–Rényi target average degree (p = target / (n-1)).
  double er_target_degree = 6.0;

  /// Hard-cutoff scale-free (model == kHardCutoff): Barabási–Albert growth
  /// with `ba_links_per_node` links per joining node, but no node may
  /// exceed k_c = max(m + 1, ceil(n^(1 / hc_cutoff_exponent))) neighbours —
  /// saturated nodes stop attracting links and the tail mass redistributes
  /// to mid-degree peers. Exponent 2 (k_c ~ sqrt(n)) is the classic
  /// hub-suppressed overlay; larger exponents cut harder. Valid range is
  /// [1, 16] (validated by the experiment config; 1 means k_c = n, i.e.
  /// plain BA).
  double hc_cutoff_exponent = 2.0;
};

/// The hard-cutoff generator's degree ceiling for `config`:
/// k_c = max(m + 1, min(ceil(n^(1 / hc_cutoff_exponent)), n)), with
/// m = ba_links_per_node and n = nodes.
std::size_t hard_cutoff_degree(const GeneratorConfig& config);

/// Generate a connected overlay per `config`. Generators retry/patch until
/// the graph is connected (flooding experiments need one component).
Graph generate(const GeneratorConfig& config, util::Rng& rng);

/// The exact topology family used in the paper's evaluation: 2,000 peers,
/// Barabási–Albert, average degree ~6.
Graph paper_topology(std::size_t nodes, util::Rng& rng);

Graph two_tier_topology(const TwoTierConfig& config, util::Rng& rng);

/// True when `node` is in the ultrapeer core of a two-tier overlay.
constexpr bool is_ultrapeer(const TwoTierConfig& config, PeerId node) noexcept {
  return node < config.ultrapeers;
}

}  // namespace ddp::topology
