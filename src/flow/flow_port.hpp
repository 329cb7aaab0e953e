#pragma once

/// \file flow_port.hpp
/// core::OverlayPort adapter over the flow-level engine. Lives with the
/// engine (not in core/) so the DD-POLICE core stays engine-agnostic: core
/// and defense see only the port interface, and each engine — flow, packet,
/// or the real-socket netengine — ships its own adapter.

#include "core/overlay_port.hpp"
#include "flow/network.hpp"

namespace ddp::flow {

class FlowPort final : public core::OverlayPort {
 public:
  explicit FlowPort(FlowNetwork& net) : net_(net) {}

  const topology::Graph& graph() const override { return net_.graph(); }

  double sent_last_minute(PeerId from, PeerId to) const override {
    return net_.sent_last_minute(from, to);
  }

  /// Reads each link by its slot: out_slots(p)[k] is p -> n_k and
  /// in_slots(p)[k] is n_k -> p.
  void link_minutes(PeerId p,
                    std::vector<core::LinkMinute>& out) const override {
    const auto& g = net_.graph();
    const auto peers = g.neighbors(p);
    const auto out_slots = g.out_slots(p);
    const auto in_slots = g.in_slots(p);
    out.resize(peers.size());
    for (std::size_t k = 0; k < peers.size(); ++k) {
      out[k] = {peers[k], net_.sent_last_minute(p, peers[k], out_slots[k]),
                net_.sent_last_minute(peers[k], p, in_slots[k])};
    }
  }

  void disconnect(PeerId a, PeerId b) override { net_.disconnect(a, b); }

  bool connect(PeerId a, PeerId b) override {
    if (!net_.mutable_graph().add_edge(a, b)) return false;
    net_.on_edge_added(a, b);
    return true;
  }

  void set_query_budget(PeerId p, double scale) override {
    net_.set_issue_scale(p, scale);
  }

  void report_overhead(double messages) override {
    net_.add_overhead_messages(messages);
  }

 private:
  FlowNetwork& net_;
};

}  // namespace ddp::flow
