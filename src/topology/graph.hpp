#pragma once

/// \file graph.hpp
/// Dynamic undirected overlay graph. Peers are dense PeerIds; adjacency is
/// per-node neighbour vectors (typical degree ~6, so linear membership
/// scans beat hash sets in both time and memory). The graph supports the
/// churn operations the simulation needs: edge insertion/removal, node
/// activation/deactivation, and queries used by the engines (degree,
/// neighbour spans, connectivity).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "topology/edge_index.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace ddp::snapshot {
class Writer;
class Reader;
}  // namespace ddp::snapshot

namespace ddp::topology {

class Graph {
 public:
  explicit Graph(std::size_t node_count = 0);

  std::size_t node_count() const noexcept { return adj_.size(); }
  std::size_t edge_count() const noexcept { return edge_count_; }

  /// Moves on every change to the adjacency or the node table (an edge
  /// added or removed, a node added, activated or deactivated) and on
  /// load(). A view cached for one version holds until it moves.
  std::uint64_t version() const noexcept { return version_; }

  /// Grow the node table (new nodes start active and isolated).
  PeerId add_node();

  /// Nodes can be deactivated (peer offline) without renumbering; their
  /// edges are removed. Reactivation brings them back isolated.
  void set_active(PeerId u, bool active);
  bool is_active(PeerId u) const noexcept { return active_[u]; }
  std::size_t active_count() const noexcept { return active_count_; }

  /// Add/remove an undirected edge. Adding an existing edge, a self-loop,
  /// or an edge touching an inactive peer is a no-op returning false;
  /// removing a missing edge returns false.
  bool add_edge(PeerId u, PeerId v);
  bool remove_edge(PeerId u, PeerId v);
  bool has_edge(PeerId u, PeerId v) const noexcept;

  std::size_t degree(PeerId u) const noexcept { return adj_[u].size(); }
  std::span<const PeerId> neighbors(PeerId u) const noexcept {
    return {adj_[u].data(), adj_[u].size()};
  }

  /// The dense directed-edge slot index. Every add_edge acquires a slot
  /// pair, every remove_edge releases it — all edge teardown funnels
  /// through here, so the engines' EdgeMaps never leak a direction.
  const EdgeIndex& edge_index() const noexcept { return index_; }

  /// Directed slots parallel to neighbors(u): out_slots(u)[i] is the slot
  /// of the edge u -> neighbors(u)[i].
  std::span<const std::uint32_t> out_slots(PeerId u) const noexcept {
    return {out_slots_[u].data(), out_slots_[u].size()};
  }

  /// In-link slots parallel to neighbors(u): in_slots(u)[i] is the slot of
  /// the edge neighbors(u)[i] -> u, i.e. reverse(out_slots(u)[i]) held
  /// materialized so the per-tick arrival gather reads its in-links
  /// straight from one contiguous list instead of chasing the reverse
  /// indirection through the slot table.
  std::span<const std::uint32_t> in_slots(PeerId u) const noexcept {
    return {in_slots_[u].data(), in_slots_[u].size()};
  }

  /// Slot of the directed edge u -> v, or EdgeIndex::kInvalidSlot if the
  /// edge does not exist. Linear in min-degree, like has_edge.
  std::uint32_t edge_slot(PeerId u, PeerId v) const noexcept;

  /// Remove all edges of u (keeps it active).
  void isolate(PeerId u);

  /// A uniformly random *active* node, excluding `exclude` (pass
  /// kInvalidPeer for no exclusion). Returns kInvalidPeer if none exists.
  PeerId random_active_node(util::Rng& rng, PeerId exclude = kInvalidPeer) const;

  /// A random active node chosen with probability proportional to
  /// degree + 1 (preferential attachment for churn rewiring).
  PeerId random_active_node_by_degree(util::Rng& rng,
                                      PeerId exclude = kInvalidPeer) const;

  /// Hop distance u -> v over active nodes (BFS); negative if unreachable.
  int hop_distance(PeerId u, PeerId v) const;

  /// True when all active nodes with at least one edge form one component.
  bool is_connected_over_active() const;

  /// Sum of degrees over active nodes / number of active nodes.
  double average_degree() const noexcept;

  /// Degree histogram (index = degree) over active nodes; its last entry
  /// is at the largest active degree (empty with no active node).
  std::vector<std::size_t> degree_histogram() const { return active_degrees_; }

  /// Serialize the full graph (adjacency, directed slot table, activity
  /// flags, edge index) into the writer's open section.
  void save(snapshot::Writer& w) const;

  /// Restore state saved by save(). Replaces all current state; throws
  /// SnapshotError when adjacency, slot table and edge index disagree.
  void load(snapshot::Reader& r);

 private:
  /// Add or drop one active peer of degree `d` in active_degrees_.
  void count_active_degree(std::size_t d);
  void uncount_active_degree(std::size_t d);

  std::vector<std::vector<PeerId>> adj_;
  /// Parallel to adj_: out_slots_[u][i] is the slot of u -> adj_[u][i].
  std::vector<std::vector<std::uint32_t>> out_slots_;
  /// Parallel to adj_: in_slots_[u][i] is the slot of adj_[u][i] -> u.
  std::vector<std::vector<std::uint32_t>> in_slots_;
  EdgeIndex index_;
  std::vector<char> active_;
  /// active_degrees_[d] is the number of active peers of degree d, with no
  /// trailing zero, so its last index is the largest active degree.
  std::vector<std::size_t> active_degrees_;
  std::size_t edge_count_ = 0;
  std::size_t active_count_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace ddp::topology
