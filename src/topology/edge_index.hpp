#pragma once

/// \file edge_index.hpp
/// Dense directed-edge slot index over the overlay graph, plus the generic
/// dense containers (`EdgeMap`, `PeerMap`) the engines key per-link and
/// per-peer state off.
///
/// Every live directed edge owns a stable dense *slot* (a small integer).
/// Slots of removed edges go on a free list and are recycled by later
/// insertions, so the slot space stays compact under arbitrary churn —
/// the same slab-with-generations design as the simulation core's event
/// slab. A recycled slot's *generation* is bumped on release, which is how
/// an `EdgeMap` distinguishes state written for a previous incarnation of
/// the slot from state belonging to the current edge: stale entries are
/// simply unreadable, no per-layer teardown bookkeeping required.
///
/// The index replaces the per-layer `(from << 32 | to)` hash maps that the
/// flow engine, the packet engine's rate monitors and DD-POLICE each grew
/// independently: one authority for the live directed edge set, O(1)
/// array-indexed state access, and linear slot sweeps instead of scattered
/// hash iteration on the per-minute paths.
///
/// Layout: the slot table is structure-of-arrays (parallel from_/to_/
/// rev_/gen_ vectors) so sweeps that consult a single attribute — the
/// per-minute generation scans, the endpoint lookups of the shard planner
/// — pull one tightly packed array through cache instead of striding
/// 16-byte records. The snapshot byte format interleaves the fields
/// exactly as the old array-of-structs table did, so images round-trip
/// across the layout change.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace ddp::snapshot {
class Writer;
class Reader;
}  // namespace ddp::snapshot

namespace ddp::topology {

class EdgeIndex {
 public:
  using Slot = std::uint32_t;
  static constexpr Slot kInvalidSlot = 0xffffffffu;
  /// Generation value no live or released slot ever carries; dense maps
  /// use it to mark never-written entries.
  static constexpr std::uint32_t kNeverGeneration = 0xffffffffu;

  /// Allocate slots for both directions of a new undirected edge.
  /// Returns {slot(u->v), slot(v->u)}; the two are mutual reverses.
  std::pair<Slot, Slot> acquire_pair(PeerId u, PeerId v);

  /// Release a directed slot *and its reverse* (edges are undirected at
  /// the topology level, so both directions always die together). Bumps
  /// both generations, invalidating any EdgeMap state they carried.
  void release(Slot slot);

  /// Slots ever allocated (live + free). EdgeMaps size their arrays to it.
  std::size_t capacity() const noexcept { return from_.size(); }
  /// Live directed slots — exactly 2 * Graph::edge_count().
  std::size_t live_count() const noexcept { return live_; }

  bool live(Slot slot) const noexcept {
    return slot < from_.size() && from_[slot] != kInvalidPeer;
  }
  PeerId from(Slot slot) const noexcept { return from_[slot]; }
  PeerId to(Slot slot) const noexcept { return to_[slot]; }
  Slot reverse(Slot slot) const noexcept { return rev_[slot]; }
  std::uint32_t generation(Slot slot) const noexcept { return gen_[slot]; }

  /// Structural self-check (tests, soak invariants): live/free partition
  /// adds up, reverses are mutual, free-list entries are dead and unique.
  /// Writes the first violation into *why (if non-null) on failure.
  bool consistent(std::string* why = nullptr) const;

  /// Serialize the complete slot table, free list and generations into the
  /// writer's open section.
  void save(snapshot::Writer& w) const;

  /// Restore state saved by save(). Replaces all current state; throws
  /// SnapshotError when the restored index fails consistent().
  void load(snapshot::Reader& r);

 private:
  Slot acquire_one(PeerId u, PeerId v);

  // Parallel arrays over the slot space. from_[s] == kInvalidPeer marks a
  // slot on the free list; gen_ survives release so recycled incarnations
  // stay distinguishable.
  std::vector<PeerId> from_;
  std::vector<PeerId> to_;
  std::vector<Slot> rev_;
  std::vector<std::uint32_t> gen_;
  std::vector<Slot> free_;
  std::size_t live_ = 0;
};

/// Dense per-directed-edge state, keyed by EdgeIndex slot. Semantics match
/// the hash maps it replaces: `touch` is operator[] (find-or-create),
/// `find` is lookup-without-insert, and entries written for a previous
/// incarnation of a recycled slot read as absent (generation mismatch) —
/// tearing an edge down implicitly erases every layer's state for it.
template <typename T>
class EdgeMap {
 public:
  explicit EdgeMap(const EdgeIndex& index) : index_(&index) {}

  /// Value for the slot's current incarnation, default-constructed (or
  /// reset from a stale incarnation) on first touch.
  T& touch(EdgeIndex::Slot slot) {
    if (slot >= gens_.size()) {
      const std::size_t want = std::max<std::size_t>(slot + 1, index_->capacity());
      gens_.resize(want, EdgeIndex::kNeverGeneration);
      values_.resize(want);
    }
    const std::uint32_t gen = index_->generation(slot);
    if (gens_[slot] != gen) {
      values_[slot] = T{};
      gens_[slot] = gen;
    }
    return values_[slot];
  }

  /// Null when the slot is dead, recycled since last touched, or never
  /// touched — exactly unordered_map::find on the old keyed maps.
  const T* find(EdgeIndex::Slot slot) const noexcept {
    if (slot >= gens_.size() || !index_->live(slot)) return nullptr;
    return gens_[slot] == index_->generation(slot) ? &values_[slot] : nullptr;
  }
  T* find(EdgeIndex::Slot slot) noexcept {
    return const_cast<T*>(std::as_const(*this).find(slot));
  }

  void erase(EdgeIndex::Slot slot) noexcept {
    if (slot < gens_.size()) gens_[slot] = EdgeIndex::kNeverGeneration;
  }

  /// Pre-grow the dense arrays to the index's current capacity so a batch
  /// of touch() calls never reallocates mid-batch (references handed out
  /// earlier in the batch stay valid).
  void sync() {
    if (gens_.size() < index_->capacity()) {
      gens_.resize(index_->capacity(), EdgeIndex::kNeverGeneration);
      values_.resize(index_->capacity());
    }
  }

  void clear() noexcept {
    gens_.assign(gens_.size(), EdgeIndex::kNeverGeneration);
  }

  /// Visit every live, current entry in slot order (deterministic: slot
  /// assignment is a pure function of the graph's edge add/remove
  /// history, never of hash layout).
  template <typename F>
  void for_each(F&& f) {
    for (EdgeIndex::Slot s = 0; s < gens_.size(); ++s) {
      if (index_->live(s) && gens_[s] == index_->generation(s)) {
        f(s, values_[s]);
      }
    }
  }
  template <typename F>
  void for_each(F&& f) const {
    for (EdgeIndex::Slot s = 0; s < gens_.size(); ++s) {
      if (index_->live(s) && gens_[s] == index_->generation(s)) {
        f(s, values_[s]);
      }
    }
  }

  const EdgeIndex& index() const noexcept { return *index_; }

 private:
  const EdgeIndex* index_;
  std::vector<T> values_;
  std::vector<std::uint32_t> gens_;
};

/// Dense per-peer state keyed by PeerId. PeerIds are already dense and
/// never recycled (deactivation keeps the id), so this is a plain
/// auto-growing array with map-like access semantics: absent entries read
/// as default-constructed, iteration runs in PeerId order.
template <typename T>
class PeerMap {
 public:
  /// Find-or-create (operator[] of the map it replaces).
  T& operator[](PeerId p) {
    if (p >= values_.size()) values_.resize(static_cast<std::size_t>(p) + 1);
    return values_[p];
  }

  const T* find(PeerId p) const noexcept {
    return p < values_.size() ? &values_[p] : nullptr;
  }
  T* find(PeerId p) noexcept {
    return p < values_.size() ? &values_[p] : nullptr;
  }

  /// Peers touched so far (the dense array's extent, not a live count).
  std::size_t extent() const noexcept { return values_.size(); }

  /// Visit every entry (default-valued ones included) in PeerId order.
  template <typename F>
  void for_each(F&& f) {
    for (PeerId p = 0; p < values_.size(); ++p) f(p, values_[p]);
  }
  template <typename F>
  void for_each(F&& f) const {
    for (PeerId p = 0; p < values_.size(); ++p) f(p, values_[p]);
  }

  void clear() noexcept { values_.clear(); }

 private:
  std::vector<T> values_;
};

}  // namespace ddp::topology
