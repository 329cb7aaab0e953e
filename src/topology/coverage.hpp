#pragma once

/// \file coverage.hpp
/// Exact flood-coverage profiles of an overlay: for an origin peer, how
/// many fresh nodes a TTL-limited Gnutella flood reaches at each hop and
/// how many messages it generates there. These profiles serve two roles:
///
///  1. validation — the packet engine's measured coverage must match them
///     on an idle network (tests assert this);
///  2. calibration — the flow engine's duplicate-damping factors delta(h)
///     are read off the network-average profile, so aggregate flows
///     propagate with the same branching the real flood would have.
///
/// Flood model (Gnutella 0.6 / the paper's Sec. 2): the origin sends the
/// query to every neighbour; every peer receiving a query it has not seen
/// forwards it to all neighbours except the sender; duplicates are dropped
/// on arrival (but still consumed bandwidth, so they count as messages).
///
/// Two kernels compute the same profiles. flood_coverage runs one BFS per
/// origin; it is the reference the tests check against, and the figure
/// code uses it. flood_coverage_batch floods 64 origins per pass, one bit
/// per origin in a 64-bit mask per peer, so one sweep of the adjacency
/// advances all 64 wavefronts. The calibration paths (average_coverage
/// and the flow engine's damping loop) use it. Every count is an integer,
/// so both kernels produce the same doubles bit for bit.

#include <cstddef>
#include <span>
#include <vector>

#include "topology/graph.hpp"
#include "util/rng.hpp"

namespace ddp::topology {

struct CoverageProfile {
  /// new_nodes[h] = peers first reached at hop h (h in [1, ttl]).
  std::vector<double> new_nodes;
  /// messages[h] = query copies transmitted into hop h.
  std::vector<double> messages;

  std::size_t ttl() const noexcept { return new_nodes.size(); }

  /// Total peers reached within the TTL (excluding the origin).
  double total_reach() const noexcept;
  /// Total message transmissions of the flood.
  double total_messages() const noexcept;
  /// Cumulative reach through hop h (1-based; 0 yields 0).
  double cumulative_reach(std::size_t h) const noexcept;

  /// delta(h) = fraction of messages arriving at hop h that land on a
  /// fresh peer (and therefore get forwarded onward). Zero where no
  /// messages flow.
  double fresh_fraction(std::size_t h) const noexcept;

  /// branching(h) = messages(h+1) / new_nodes(h): average out-fan of the
  /// peers first reached at hop h.
  double branching(std::size_t h) const noexcept;
};

/// Exact profile of a flood from `origin` over active nodes.
CoverageProfile flood_coverage(const Graph& g, PeerId origin, std::size_t ttl);

/// Exact profiles of floods from every entry of `origins` (repeats
/// allowed), in that order, 64 origins per bit-parallel BFS pass.
/// Entry i equals flood_coverage(g, origins[i], ttl) bit for bit.
std::vector<CoverageProfile> flood_coverage_batch(
    const Graph& g, std::span<const PeerId> origins, std::size_t ttl);

/// Network-average profile over `samples` random active origins (all
/// origins when samples >= active count).
CoverageProfile average_coverage(const Graph& g, std::size_t ttl,
                                 std::size_t samples, util::Rng& rng);

}  // namespace ddp::topology
