#include "core/adaptive.hpp"

#include <algorithm>
#include <limits>

#include "snapshot/state_io.hpp"

namespace ddp::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

AdaptiveThresholds::AdaptiveThresholds(OverlayPort& port,
                                       const DdPoliceConfig& police)
    : port_(port),
      police_(police),
      links_(port.graph().edge_index()),
      next_estimate_minute_(police.adaptive.estimate_period_minutes) {}

double AdaptiveThresholds::rail1(const Band& b) const noexcept {
  if (!b.mature) return kInf;
  return std::max(police_.adaptive.k1 * b.max, police_.adaptive.band_floor);
}

double AdaptiveThresholds::rail2(const Band& b) const noexcept {
  if (!b.mature) return kInf;
  // r2/r1 = k2/k1 by construction, so validation's k1 < k2 keeps the
  // malicious rail strictly above the suspicion rail.
  return (police_.adaptive.k2 / police_.adaptive.k1) * rail1(b);
}

const AdaptiveThresholds::LinkState* AdaptiveThresholds::link(
    PeerId from, PeerId to) const {
  const auto& g = port_.graph();
  if (from >= g.node_count() || to >= g.node_count()) return nullptr;
  const std::uint32_t slot = g.edge_slot(from, to);
  if (slot == topology::EdgeIndex::kInvalidSlot) return nullptr;
  return links_.find(slot);
}

AdaptiveThresholds::Band AdaptiveThresholds::band(PeerId from, PeerId to) const {
  const LinkState* s = link(from, to);
  return s != nullptr ? s->band : Band{};
}

double AdaptiveThresholds::suspicion_rail(PeerId from, PeerId to) const {
  const LinkState* s = link(from, to);
  return s != nullptr ? rail1(s->band) : kInf;
}

double AdaptiveThresholds::malicious_rail(PeerId from, PeerId to) const {
  const LinkState* s = link(from, to);
  return s != nullptr ? rail2(s->band) : kInf;
}

bool AdaptiveThresholds::suspicious(PeerId p) const noexcept {
  const SuspectState* s = suspects_.find(p);
  return s != nullptr && s->suspicious;
}

double AdaptiveThresholds::warning_threshold(
    topology::EdgeIndex::Slot link) const {
  const LinkState* s = links_.find(link);
  if (s == nullptr || !s->band.mature) return police_.warning_threshold;
  return std::min(police_.warning_threshold, rail1(s->band));
}

double AdaptiveThresholds::cut_threshold(topology::EdgeIndex::Slot link,
                                         double rate) const {
  const LinkState* s = links_.find(link);
  if (s == nullptr || !s->band.mature) return police_.cut_threshold;
  if (rate > rail2(s->band)) {
    // Never looser than the paper's CT, however the knob is set.
    return std::min(police_.adaptive.malicious_ct, police_.cut_threshold);
  }
  return police_.cut_threshold;
}

void AdaptiveThresholds::feed_samples() {
  const auto& g = port_.graph();
  const std::size_t window = police_.adaptive.window_minutes;
  links_.sync();
  for (PeerId p = 0; p < g.node_count(); ++p) {
    if (!g.is_active(p)) continue;
    port_.link_minutes(p, readings_);
    const auto slots = g.out_slots(p);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const double sample = readings_[i].out_queries;
      LinkState& s = links_.touch(slots[i]);
      if (s.ring.empty()) s.ring.resize(window, 0.0);
      // Poison guard: a mature band refuses samples above its malicious
      // rail, so an attacker cannot drag its own normal upward by
      // attacking. Samples between r1 and r2 still enter — legitimate
      // load drift keeps adapting the band.
      if (s.band.mature && sample > rail2(s.band)) continue;
      s.ring[s.head] = sample;
      s.head = static_cast<std::uint32_t>((s.head + 1) % s.ring.size());
      if (s.count < s.ring.size()) ++s.count;
    }
  }
}

void AdaptiveThresholds::reestimate(double minute) {
  if (minute + 1e-9 < next_estimate_minute_) return;
  next_estimate_minute_ = minute + police_.adaptive.estimate_period_minutes;
  std::size_t updated = 0;
  std::size_t mature = 0;
  links_.for_each([&](topology::EdgeIndex::Slot, LinkState& s) {
    if (s.count < police_.adaptive.min_samples) return;
    double lo = kInf;
    double hi = 0.0;
    double sum = 0.0;
    for (std::uint32_t i = 0; i < s.count; ++i) {
      const double v = s.ring[i];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      sum += v;
    }
    s.band.min = lo;
    s.band.max = hi;
    s.band.lambda = sum / static_cast<double>(s.count);
    s.band.mature = true;
    ++updated;
  });
  links_.for_each([&](topology::EdgeIndex::Slot, LinkState& s) {
    if (s.band.mature) ++mature;
  });
  if (updated > 0) {
    ++reestimates_;
    DDP_TRACE(tracer_, obs::EventType::kBandReestimated, minute * kMinute,
              kInvalidPeer, kInvalidPeer,
              {{"links", static_cast<double>(updated)},
               {"mature", static_cast<double>(mature)}});
  }
}

void AdaptiveThresholds::step_suspicion(double minute) {
  const auto& g = port_.graph();
  for (PeerId p = 0; p < g.node_count(); ++p) {
    SuspectState& st = suspects_[p];
    if (!g.is_active(p)) {
      // A departed peer's suspicion dissolves; no budget to restore (the
      // engine resets budgets on rejoin).
      if (st.suspicious) {
        st.suspicious = false;
        --suspicious_now_;
      }
      st.in_band_minutes = 0.0;
      continue;
    }
    port_.link_minutes(p, readings_);
    const auto slots = g.out_slots(p);
    bool over = false;
    double worst_ratio = 0.0;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const LinkState* s = links_.find(slots[i]);
      if (s == nullptr || !s->band.mature) continue;
      const double rate = readings_[i].out_queries;
      const double r1 = rail1(s->band);
      if (rate > r1) {
        over = true;
        worst_ratio = std::max(worst_ratio, rate / r1);
      }
    }
    if (over) {
      st.in_band_minutes = 0.0;
      if (!st.suspicious) {
        st.suspicious = true;
        st.entered_minute = minute;
        ++suspicious_now_;
        ++entries_;
        // Soft rung of the ladder: reduce the budget unless the ledger
        // already owns it (probation/quarantine budgets must not be
        // overwritten by local suspicion).
        if (ledger_ == nullptr || !ledger_->restricted(p)) {
          port_.set_query_budget(p, police_.adaptive.suspicious_budget);
        }
        DDP_TRACE(tracer_, obs::EventType::kSuspicionEntered,
                  minute * kMinute, p, kInvalidPeer,
                  {{"ratio", worst_ratio}});
      }
    } else if (st.suspicious) {
      st.in_band_minutes += 1.0;
      if (st.in_band_minutes + 1e-9 >= police_.adaptive.suspicion_exit_minutes) {
        st.suspicious = false;
        st.in_band_minutes = 0.0;
        --suspicious_now_;
        ++exits_;
        if (ledger_ == nullptr || !ledger_->restricted(p)) {
          port_.set_query_budget(p, 1.0);
        }
        DDP_TRACE(tracer_, obs::EventType::kSuspicionExited, minute * kMinute,
                  p, kInvalidPeer,
                  {{"minutes", minute - st.entered_minute}});
      }
    }
  }
}

void AdaptiveThresholds::on_minute(double minute) {
  feed_samples();
  reestimate(minute);
  step_suspicion(minute);
}

void AdaptiveThresholds::save(snapshot::Writer& w) const {
  // Link states, in slot order (deterministic by construction).
  std::size_t entries = 0;
  links_.for_each([&](topology::EdgeIndex::Slot, const LinkState&) {
    ++entries;
  });
  w.size(entries);
  links_.for_each([&](topology::EdgeIndex::Slot slot, const LinkState& s) {
    w.u32(slot);
    w.size(s.ring.size());
    for (const double v : s.ring) w.f64(v);
    w.u32(s.head);
    w.u32(s.count);
    w.f64(s.band.min);
    w.f64(s.band.lambda);
    w.f64(s.band.max);
    w.boolean(s.band.mature);
  });

  w.size(suspects_.extent());
  suspects_.for_each([&w](PeerId, const SuspectState& st) {
    w.boolean(st.suspicious);
    w.f64(st.entered_minute);
    w.f64(st.in_band_minutes);
  });

  w.f64(next_estimate_minute_);
  w.u64(static_cast<std::uint64_t>(suspicious_now_));
  w.u64(reestimates_);
  w.u64(entries_);
  w.u64(exits_);
}

void AdaptiveThresholds::load(snapshot::Reader& r) {
  constexpr std::size_t kMaxSlots = 1u << 26;
  links_.clear();
  links_.sync();
  const std::size_t entries = r.size(kMaxSlots);
  for (std::size_t i = 0; i < entries; ++i) {
    const std::uint32_t slot = r.u32();
    // The edge index was restored before us, so slots and generations
    // match the ones this state was saved under.
    LinkState& s = links_.touch(slot);
    s.ring.resize(r.size(1u << 16));
    for (double& v : s.ring) v = r.f64();
    s.head = r.u32();
    s.count = r.u32();
    s.band.min = r.f64();
    s.band.lambda = r.f64();
    s.band.max = r.f64();
    s.band.mature = r.boolean();
  }

  suspects_.clear();
  const std::size_t peers = r.size(1u << 24);
  for (PeerId p = 0; p < peers; ++p) {
    SuspectState& st = suspects_[p];
    st.suspicious = r.boolean();
    st.entered_minute = r.f64();
    st.in_band_minutes = r.f64();
  }

  next_estimate_minute_ = r.f64();
  suspicious_now_ = static_cast<std::size_t>(r.u64());
  reestimates_ = r.u64();
  entries_ = r.u64();
  exits_ = r.u64();
}

}  // namespace ddp::core
