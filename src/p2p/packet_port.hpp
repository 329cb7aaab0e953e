#pragma once

/// \file packet_port.hpp
/// core::OverlayPort adapter over the packet-level engine: DD-POLICE running
/// against individually simulated Gnutella descriptors. The per-minute
/// counters come from the engine's sliding-window link monitors — exactly
/// the Out_query/In_query windows a real servent would keep (Sec. 3.2).
/// Lives with the engine (not in core/) so the DD-POLICE core stays
/// engine-agnostic.
///
/// Use run_ddpolice_minutes() (or schedule the protocol step yourself at
/// minute cadence) — the packet engine is event-driven, so the protocol
/// must be driven by scheduled events rather than engine hooks.

#include "core/overlay_port.hpp"
#include "p2p/network.hpp"

namespace ddp::p2p {

class PacketPort final : public core::OverlayPort {
 public:
  explicit PacketPort(PacketNetwork& net) : net_(&net) {}

  const topology::Graph& graph() const override { return net_->graph(); }

  double sent_last_minute(PeerId from, PeerId to) const override {
    // OverlayPort's read is const, so it must not advance the window:
    // the const read is bit-identical to the advancing one at the same
    // timestamp. Windows advance on record() instead.
    return net_->monitors().out_per_minute_at(from, to, net_->engine().now());
  }

  void disconnect(PeerId a, PeerId b) override { net_->disconnect(a, b); }

  bool connect(PeerId a, PeerId b) override { return net_->connect(a, b); }
  // set_query_budget keeps the default no-op: the packet engine's issue
  // schedule is owned by the workload driver, not the engine itself.

  void report_overhead(double messages) override {
    net_->add_overhead_messages(messages);
  }

 private:
  PacketNetwork* net_;
};

}  // namespace ddp::p2p
