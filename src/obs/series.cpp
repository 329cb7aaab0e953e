#include "obs/series.hpp"

#include <algorithm>

#include "snapshot/snapshot.hpp"
#include "snapshot/state_io.hpp"

namespace ddp::obs {

SeriesStore::SeriesStore(const topology::Graph& graph,
                         std::size_t window_minutes)
    : graph_(&graph),
      window_(std::max<std::size_t>(1, window_minutes)),
      minutes_(window_, 0.0),
      peer_values_(graph.node_count() * window_, 0.0),
      edges_(graph.edge_index()) {}

std::size_t SeriesStore::depth() const noexcept {
  return recorded_ < window_ ? static_cast<std::size_t>(recorded_) : window_;
}

void SeriesStore::begin_minute(double minute) {
  head_ = static_cast<std::size_t>(recorded_ % window_);
  ++recorded_;
  minutes_[head_] = minute;
  const std::size_t peers = peer_values_.size() / window_;
  for (std::size_t p = 0; p < peers; ++p) {
    peer_values_[p * window_ + head_] = 0.0;
  }
  // Zero the live edges' column too: an edge not fed this minute must not
  // leak the value it held one full ring revolution ago.
  edges_.for_each([this](Slot, EdgeSeries& es) {
    if (!es.values.empty()) es.values[head_] = 0.0;
  });
}

void SeriesStore::set_peer(PeerId p, double value) noexcept {
  const std::size_t row = static_cast<std::size_t>(p) * window_;
  if (recorded_ == 0 || row + head_ >= peer_values_.size()) return;
  peer_values_[row + head_] = value;
}

void SeriesStore::set_edge(Slot slot, double value) {
  if (recorded_ == 0) return;
  EdgeSeries& es = edges_.touch(slot);
  if (es.values.empty()) es.values.assign(window_, 0.0);
  es.values[head_] = value;
}

double SeriesStore::peer_rate(PeerId p, std::size_t back) const noexcept {
  if (back >= depth()) return 0.0;
  const std::size_t row = static_cast<std::size_t>(p) * window_;
  if (row + window_ > peer_values_.size()) return 0.0;
  return peer_values_[row + col(back)];
}

double SeriesStore::edge_rate(Slot slot, std::size_t back) const noexcept {
  if (back >= depth()) return 0.0;
  const EdgeSeries* es = edges_.find(slot);
  if (es == nullptr || es->values.empty()) return 0.0;
  return es->values[col(back)];
}

double SeriesStore::minute_label(std::size_t back) const noexcept {
  if (back >= depth()) return -1.0;
  return minutes_[col(back)];
}

SeriesStore::Band SeriesStore::peer_band(PeerId p) const noexcept {
  const std::size_t first = static_cast<std::size_t>(p) * window_;
  if (first + window_ > peer_values_.size()) return Band{};
  const double* row = peer_values_.data() + first;
  Band band;
  band.samples = depth();
  if (band.samples == 0) return band;
  double sum = 0.0;
  band.min = band.max = row[col(0)];
  for (std::size_t back = 0; back < band.samples; ++back) {
    const double v = row[col(back)];
    band.min = std::min(band.min, v);
    band.max = std::max(band.max, v);
    sum += v;
  }
  band.mean = sum / static_cast<double>(band.samples);
  return band;
}

void SeriesStore::save(snapshot::Writer& w) const {
  w.u64(static_cast<std::uint64_t>(window_));
  w.u64(recorded_);
  w.u64(static_cast<std::uint64_t>(peer_values_.size() / window_));
  snapshot::save_f64_vector(w, minutes_);
  snapshot::save_f64_vector(w, peer_values_);
  // Live edge rows, slot order (deterministic — for_each walks ascending
  // slots). Const-cast: EdgeMap only exposes a mutating for_each, but the
  // visitor does not write.
  auto& edges = const_cast<topology::EdgeMap<EdgeSeries>&>(edges_);
  std::uint64_t live_rows = 0;
  edges.for_each([&live_rows](Slot, EdgeSeries& es) {
    if (!es.values.empty()) ++live_rows;
  });
  w.u64(live_rows);
  edges.for_each([&w](Slot slot, EdgeSeries& es) {
    if (es.values.empty()) return;
    w.u32(slot);
    snapshot::save_f64_vector(w, es.values);
  });
}

void SeriesStore::load(snapshot::Reader& r) {
  const auto window = static_cast<std::size_t>(r.u64());
  if (window != window_) {
    throw snapshot::SnapshotError("series store window mismatch");
  }
  recorded_ = r.u64();
  head_ = recorded_ == 0 ? 0
                         : static_cast<std::size_t>((recorded_ - 1) % window_);
  const auto peers = static_cast<std::size_t>(r.u64());
  if (peers != peer_values_.size() / window_) {
    throw snapshot::SnapshotError("series store peer count mismatch");
  }
  snapshot::load_f64_vector(r, minutes_);
  snapshot::load_f64_vector(r, peer_values_);
  if (minutes_.size() != window_ || peer_values_.size() != peers * window_) {
    throw snapshot::SnapshotError("series store row shape mismatch");
  }
  const std::uint64_t live_rows = r.u64();
  for (std::uint64_t i = 0; i < live_rows; ++i) {
    const Slot slot = r.u32();
    if (!graph_->edge_index().live(slot)) {
      throw snapshot::SnapshotError(
          "series store references a dead edge slot");
    }
    EdgeSeries& es = edges_.touch(slot);
    snapshot::load_f64_vector(r, es.values);
    if (es.values.size() != window_) {
      throw snapshot::SnapshotError("series store edge row size mismatch");
    }
  }
}

}  // namespace ddp::obs
