#include "defense/defense.hpp"

#include "snapshot/snapshot.hpp"

namespace ddp::defense {

std::string_view kind_name(Kind k) noexcept {
  switch (k) {
    case Kind::kNone: return "none";
    case Kind::kDdPolice: return "dd-police";
    case Kind::kNaiveCut: return "naive-cut";
    case Kind::kFairShare: return "fair-share";
  }
  return "?";
}

NaiveCutDefense::NaiveCutDefense(core::OverlayPort& port,
                                 double threshold_per_minute)
    : port_(port), threshold_(threshold_per_minute) {}

void NaiveCutDefense::on_minute(double minute) {
  const auto& g = port_.graph();
  // Collect first: disconnecting mutates adjacency. The in-link counter is
  // the port's sent_last_minute(neighbour -> i) read.
  std::vector<std::pair<PeerId, PeerId>> cuts;
  for (PeerId i = 0; i < g.node_count(); ++i) {
    if (!g.is_active(i)) continue;
    for (const PeerId j : g.neighbors(i)) {
      if (port_.sent_last_minute(j, i) > threshold_) {
        cuts.emplace_back(i, j);
      }
    }
  }
  for (const auto& [i, j] : cuts) {
    core::Decision d;
    d.minute = minute;
    d.judge = i;
    d.suspect = j;
    d.g = port_.sent_last_minute(j, i) / 100.0;
    decisions_.push_back(d);
    port_.disconnect(i, j);
  }
}

void NaiveCutDefense::save(snapshot::Writer& w) const {
  w.size(decisions_.size());
  for (const core::Decision& d : decisions_) core::save_decision(w, d);
}

void NaiveCutDefense::load(snapshot::Reader& r) {
  decisions_.resize(r.size(1u << 26));
  for (core::Decision& d : decisions_) core::load_decision(r, d);
}

}  // namespace ddp::defense
