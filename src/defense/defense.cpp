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
  // Collect first: disconnecting mutates adjacency. Each peer's in-link
  // counters come in one read, and a cut keeps the count it was flagged
  // on: the monitors remember the completed minute after a link is torn
  // down (the flow port's ghost counters read the same value).
  struct Cut {
    PeerId judge;
    PeerId suspect;
    double rate;
  };
  std::vector<Cut> cuts;
  std::vector<core::LinkMinute> links;
  for (PeerId i = 0; i < g.node_count(); ++i) {
    if (!g.is_active(i)) continue;
    port_.link_minutes(i, links);
    for (const core::LinkMinute& l : links) {
      if (l.in_queries > threshold_) cuts.push_back({i, l.peer, l.in_queries});
    }
  }
  for (const Cut& c : cuts) {
    core::Decision d;
    d.minute = minute;
    d.judge = c.judge;
    d.suspect = c.suspect;
    d.g = c.rate / 100.0;
    decisions_.push_back(d);
    port_.disconnect(c.judge, c.suspect);
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
