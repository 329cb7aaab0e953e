#pragma once

/// \file series.hpp
/// Ring-buffered per-minute time series for every peer and every live
/// directed edge. The store keeps the last `window` minute columns of a
/// rate value (peers dense by id, edges keyed by the graph's directed-edge
/// slots, so a torn-down link retires its history by generation mismatch
/// and a re-established one starts clean). Forensics reads it to price an
/// attacker's pre-cut damage; the adaptive-CT work queries the per-edge
/// normal bands ({min, mean, max} over the retained window) it needs to
/// re-estimate thresholds. Feeding one minute is a linear sweep — O(peers
/// + live slots) — and the store never observes the engines itself: the
/// scenario runtime pushes settled minute totals via begin_minute /
/// set_peer / set_edge.

#include <cstdint>
#include <vector>

#include "topology/edge_index.hpp"
#include "topology/graph.hpp"
#include "util/types.hpp"

namespace ddp::snapshot {
class Writer;
class Reader;
}  // namespace ddp::snapshot

namespace ddp::obs {

class SeriesStore {
 public:
  using Slot = topology::EdgeIndex::Slot;

  /// Min/mean/max of the retained samples of one row (zeros included:
  /// a silent minute is a real observation).
  struct Band {
    double min = 0.0;
    double mean = 0.0;
    double max = 0.0;
    std::size_t samples = 0;
  };

  /// Rows attach to `graph`'s peers and edge slots; `window_minutes` is
  /// the ring depth (>= 1).
  SeriesStore(const topology::Graph& graph, std::size_t window_minutes);

  std::size_t window() const noexcept { return window_; }
  /// Minute columns ever recorded (monotonic; only the last window()
  /// remain addressable).
  std::uint64_t minutes_recorded() const noexcept { return recorded_; }
  /// Columns currently retained: min(minutes_recorded, window).
  std::size_t depth() const noexcept;

  /// Open the column for `minute`: every peer value resets to 0 and every
  /// live edge's column resets to 0 until set_peer / set_edge overwrite
  /// them. Must be called once per minute, before any set_* for it.
  void begin_minute(double minute);
  void set_peer(PeerId p, double value) noexcept;
  void set_edge(Slot slot, double value);

  /// Value `back` columns before the latest (0 = latest). Out-of-range
  /// lookups — back >= depth(), dead/never-touched slots — read 0.
  double peer_rate(PeerId p, std::size_t back = 0) const noexcept;
  double edge_rate(Slot slot, std::size_t back = 0) const noexcept;
  /// Minute label of the column `back` columns before the latest.
  double minute_label(std::size_t back = 0) const noexcept;

  Band peer_band(PeerId p) const noexcept;

  /// Serialize the ring (labels, peer rows, live edge rows in slot order)
  /// into the writer's open section. The graph is saved by its owner;
  /// load() must run after it has been restored.
  void save(snapshot::Writer& w) const;

  /// Restore state saved by save(). Throws SnapshotError when the stored
  /// shape (window, peer count) or an edge slot disagrees with the
  /// restored graph.
  void load(snapshot::Reader& r);

 private:
  struct EdgeSeries {
    std::vector<double> values;  ///< sized to window_ on first touch
  };

  std::size_t col(std::size_t back) const noexcept {
    return (static_cast<std::size_t>(recorded_) - 1 - back) % window_;
  }

  const topology::Graph* graph_;
  std::size_t window_;
  std::uint64_t recorded_ = 0;
  std::size_t head_ = 0;              ///< column being written
  std::vector<double> minutes_;       ///< ring of minute labels
  std::vector<double> peer_values_;   ///< node_count x window, row-major
  topology::EdgeMap<EdgeSeries> edges_;
};

}  // namespace ddp::obs
