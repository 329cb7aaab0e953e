#pragma once

// Shared test double for core::OverlayPort: a fixed graph plus a writable
// rate matrix, so tests control exactly what every monitor observes each
// minute. Used by the adaptive-band tests and the DdPolice/LocalPolice
// differential test.

#include <cstddef>
#include <map>
#include <utility>

#include "core/overlay_port.hpp"
#include "topology/graph.hpp"
#include "util/types.hpp"

namespace ddp::test {

class FakeOverlay final : public core::OverlayPort {
 public:
  explicit FakeOverlay(std::size_t peers) : graph_(peers) {}

  topology::Graph& mutable_graph() { return graph_; }
  void set_rate(PeerId from, PeerId to, double rate) {
    rate_[{from, to}] = rate;
  }
  double budget(PeerId p) const {
    auto it = budget_.find(p);
    return it != budget_.end() ? it->second : 1.0;
  }

  const topology::Graph& graph() const override { return graph_; }
  double sent_last_minute(PeerId from, PeerId to) const override {
    auto it = rate_.find({from, to});
    return it != rate_.end() ? it->second : 0.0;
  }
  void disconnect(PeerId a, PeerId b) override { graph_.remove_edge(a, b); }
  void set_query_budget(PeerId p, double scale) override {
    budget_[p] = scale;
  }
  void report_overhead(double) override {}

 private:
  topology::Graph graph_;
  std::map<std::pair<PeerId, PeerId>, double> rate_;
  std::map<PeerId, double> budget_;
};

}  // namespace ddp::test
