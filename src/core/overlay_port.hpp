#pragma once

/// \file overlay_port.hpp
/// The seam between the DD-POLICE protocol and a simulation engine. The
/// protocol only ever needs what a real deployment would have: the local
/// topology, per-link per-minute query counters (its own monitors), the
/// ability to tear down a logical connection, and a place to account its
/// own message overhead. Both engines (flow and packet) provide this.

#include <cstdint>
#include <vector>

#include "topology/graph.hpp"
#include "util/types.hpp"

namespace ddp::core {

/// One neighbour link's monitor reading for a completed minute.
struct LinkMinute {
  std::uint32_t peer = 0;    ///< neighbour (its overlay address on sockets)
  double out_queries = 0.0;  ///< we -> peer, past minute (Out_query)
  double in_queries = 0.0;   ///< peer -> we, past minute (In_query)
};

class OverlayPort {
 public:
  virtual ~OverlayPort() = default;

  virtual const topology::Graph& graph() const = 0;

  /// Out_query(from -> to) over the last completed minute (Sec. 3.2).
  virtual double sent_last_minute(PeerId from, PeerId to) const = 0;

  /// Both counters of every link of `p` in one read: `out` becomes one
  /// entry per neighbour, in neighbors(p) order, with out_queries =
  /// sent_last_minute(p, n) and in_queries = sent_last_minute(n, p). The
  /// default reads pair by pair; an engine that keys counters by slot
  /// reads them without a lookup per pair.
  virtual void link_minutes(PeerId p, std::vector<LinkMinute>& out) const {
    const auto peers = graph().neighbors(p);
    out.resize(peers.size());
    for (std::size_t k = 0; k < peers.size(); ++k) {
      out[k] = {peers[k], sent_last_minute(p, peers[k]),
                sent_last_minute(peers[k], p)};
    }
  }

  /// Tear down the logical connection between a and b.
  virtual void disconnect(PeerId a, PeerId b) = 0;

  /// Establish a logical connection between a and b (probational
  /// reconnection, partition repair). Engines that cannot add edges keep
  /// the default refusal and the caller degrades gracefully.
  virtual bool connect(PeerId a, PeerId b) {
    (void)a;
    (void)b;
    return false;
  }

  /// Scale a peer's query-issue budget (1.0 = normal, 0.25 = probation).
  /// Default no-op: engines without rate control simply ignore budgets.
  virtual void set_query_budget(PeerId p, double scale) {
    (void)p;
    (void)scale;
  }

  /// Account protocol messages into the engine's traffic metric.
  virtual void report_overhead(double messages) = 0;
};

}  // namespace ddp::core
