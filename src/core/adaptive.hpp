#pragma once

/// \file adaptive.hpp
/// Learned per-link cut bands for DD-POLICE (the adaptive-CT extension).
///
/// The paper's defense judges every link against two global constants: the
/// 500 q/min warning threshold and CT = 5. A sub-warning attacker (ramping
/// slowly, or pulsing under the threshold) never triggers a buddy round at
/// all, and no deployment can hand-tune the constants per network. This
/// policy instead has every monitor learn what *normal* looks like on each
/// of its incoming links — a {min, lambda, max} band over a sliding window
/// of per-minute Out_query samples — and derives two rails from the band:
///
///   r1 = max(k1 * band.max, band_floor)    suspicion rail
///   r2 = (k2 / k1) * r1                    malicious rail   (k1 < k2)
///
/// Crossing r1 makes the sender locally suspicious: its query budget is
/// reduced to suspicious_budget until it stays in-band again for
/// suspicion_exit_minutes (the quarantine ladder's soft rung). Crossing r1
/// also arms the normal DD-POLICE warning path — warning_threshold() for a
/// mature link is min(static_warning, r1) — so the buddy round the paper
/// would only run at 500 q/min now runs at the learned rail. Crossing r2
/// additionally tightens the CT that round judges against (malicious_ct,
/// clamped to never exceed the static CT), which is what finally cuts a
/// low-and-slow attacker whose g sits between 1 and 5.
///
/// False-cut safety under flash crowds comes from the indicators, not the
/// rails: a surging honest peer trips r1/r2 too, but forwarding cancels in
/// g, so the buddy round it triggers acquits it — the only cost is the
/// temporary budget reduction. Band learning is poison-resistant: samples
/// above r2 on a mature band are excluded from the window, so an attacker
/// cannot ramp its own band upward faster than the suspicion machinery
/// reacts.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/overlay_port.hpp"
#include "core/quarantine.hpp"
#include "obs/trace.hpp"
#include "topology/edge_index.hpp"
#include "util/types.hpp"

namespace ddp::snapshot {
class Writer;
class Reader;
}  // namespace ddp::snapshot

namespace ddp::core {

class AdaptiveThresholds final {
 public:
  /// A learned normal band for one directed link (sender -> monitor).
  struct Band {
    double min = 0.0;
    double lambda = 0.0;  ///< mean rate over the window
    double max = 0.0;
    bool mature = false;  ///< enough samples to trust (>= min_samples)
  };

  AdaptiveThresholds(OverlayPort& port, const DdPoliceConfig& police);

  /// The ledger guards budget writes: a quarantined/probationary peer's
  /// budget belongs to the ladder, not to local suspicion.
  void set_ledger(const QuarantineLedger* ledger) noexcept {
    ledger_ = ledger;
  }

  void set_trace_sink(obs::TraceSink* sink) noexcept { tracer_.bind(sink); }

  /// Feed this minute's per-link samples, re-estimate bands on schedule,
  /// and step the per-peer suspicion state machine. Call once per minute,
  /// before the detection phase consults the rails.
  void on_minute(double minute);

  // -- Thresholds DdPolice judges against ----------------------------------
  // Both take `link`, the slot of the directed link suspect -> judge that
  // the caller already holds (EdgeIndex::kInvalidSlot: no link, no band).
  /// Queries/minute above which the judge flags the suspect:
  /// min(static warning, r1) on a mature band; the static warning
  /// threshold while the band is still immature.
  double warning_threshold(topology::EdgeIndex::Slot link) const;
  /// The CT the judge applies to the suspect this round, given `rate`, the
  /// link's completed-minute count: malicious_ct (clamped to the static
  /// CT) when `rate` exceeds r2; the static CT otherwise.
  double cut_threshold(topology::EdgeIndex::Slot link, double rate) const;

  // -- Introspection (tests, metrics, the ablation) -------------------------
  /// The learned band on the directed link from -> to (default-constructed,
  /// immature, when the link is unknown).
  Band band(PeerId from, PeerId to) const;
  /// r1 for from -> to, or +infinity while the band is immature.
  double suspicion_rail(PeerId from, PeerId to) const;
  /// r2 for from -> to, or +infinity while the band is immature.
  double malicious_rail(PeerId from, PeerId to) const;
  bool suspicious(PeerId p) const noexcept;
  std::size_t currently_suspicious() const noexcept { return suspicious_now_; }

  std::uint64_t band_reestimates() const noexcept { return reestimates_; }
  std::uint64_t suspicion_entries() const noexcept { return entries_; }
  std::uint64_t suspicion_exits() const noexcept { return exits_; }

  /// Serialize sample windows, bands, suspicion states and counters into
  /// the writer's open section. The graph/edge-index must be restored
  /// before load() (slots and generations are snapshot-stable).
  void save(snapshot::Writer& w) const;
  void load(snapshot::Reader& r);

 private:
  /// Per-directed-link learning state: a ring of the last window_minutes
  /// per-minute samples plus the band estimated from them.
  struct LinkState {
    std::vector<double> ring;   ///< sized to window_minutes on first touch
    std::uint32_t head = 0;     ///< next write position
    std::uint32_t count = 0;    ///< samples held (saturates at ring size)
    Band band{};
  };

  /// Per-peer suspicion state (the ladder's soft rung).
  struct SuspectState {
    bool suspicious = false;
    double entered_minute = 0.0;
    double in_band_minutes = 0.0;  ///< consecutive minutes back in band
  };

  const LinkState* link(PeerId from, PeerId to) const;
  double rail1(const Band& b) const noexcept;
  double rail2(const Band& b) const noexcept;
  void feed_samples();
  void reestimate(double minute);
  void step_suspicion(double minute);

  OverlayPort& port_;
  const DdPoliceConfig police_;  ///< adaptive knobs + the static fallbacks
  const QuarantineLedger* ledger_ = nullptr;
  obs::Tracer tracer_;

  topology::EdgeMap<LinkState> links_;
  std::vector<LinkMinute> readings_;  ///< one peer's links, reused per peer
  topology::PeerMap<SuspectState> suspects_;
  double next_estimate_minute_ = 0.0;
  std::size_t suspicious_now_ = 0;
  std::uint64_t reestimates_ = 0;
  std::uint64_t entries_ = 0;
  std::uint64_t exits_ = 0;
};

}  // namespace ddp::core
