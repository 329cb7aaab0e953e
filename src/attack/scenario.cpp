#include "attack/scenario.hpp"

#include <algorithm>
#include <cmath>

#include "snapshot/state_io.hpp"
#include "util/log.hpp"

namespace ddp::attack {

namespace {
std::string_view sv(const char* s) { return s; }
}  // namespace

std::string_view report_strategy_name(ReportStrategy s) noexcept {
  switch (s) {
    case ReportStrategy::kHonest: return sv("honest");
    case ReportStrategy::kInflate: return sv("inflate");
    case ReportStrategy::kDeflate: return sv("deflate");
    case ReportStrategy::kMute: return sv("mute");
    case ReportStrategy::kCollude: return sv("collude");
  }
  return sv("?");
}

std::string_view list_strategy_name(ListStrategy s) noexcept {
  switch (s) {
    case ListStrategy::kHonest: return sv("honest");
    case ListStrategy::kFabricate: return sv("fabricate");
    case ListStrategy::kWithhold: return sv("withhold");
  }
  return sv("?");
}

std::string_view sourcing_strategy_name(SourcingStrategy s) noexcept {
  switch (s) {
    case SourcingStrategy::kConstant: return sv("constant");
    case SourcingStrategy::kRamp: return sv("ramp");
    case SourcingStrategy::kPulse: return sv("pulse");
    case SourcingStrategy::kProbe: return sv("probe");
  }
  return sv("?");
}

double schedule_scale(const AttackConfig& config, double minutes_since_start) {
  const double t = std::max(0.0, minutes_since_start);
  switch (config.sourcing) {
    case SourcingStrategy::kConstant:
      return 1.0;
    case SourcingStrategy::kRamp: {
      if (config.ramp_minutes <= 0.0) return config.ramp_target_scale;
      return std::min(config.ramp_target_scale,
                      config.ramp_target_scale * t / config.ramp_minutes);
    }
    case SourcingStrategy::kPulse: {
      const double period = config.pulse_on_minutes + config.pulse_off_minutes;
      if (period <= 0.0) return config.pulse_scale;
      const double phase = std::fmod(t, period);
      return phase < config.pulse_on_minutes ? config.pulse_scale : 0.0;
    }
    case SourcingStrategy::kProbe:
      return config.probe_step_scale;  // initial rung of the climb
  }
  return 1.0;
}

AttackScenario::AttackScenario(flow::FlowNetwork& net, const AttackConfig& config,
                               util::Rng rng)
    : net_(net), config_(config), rng_(rng),
      is_agent_(net.graph().node_count(), 0),
      rejoin_due_(net.graph().node_count(), -1.0) {}

bool AttackScenario::is_agent(PeerId p) const noexcept {
  return p < is_agent_.size() && is_agent_[p] != 0;
}

void AttackScenario::start(double minute) {
  started_ = true;
  started_minute_ = minute;
  const auto& g = net_.graph();
  std::size_t picked = 0;
  // Bounded attempts: when the requested campaign size approaches the
  // population, rejection sampling would spin on already-picked peers.
  for (std::size_t attempts = 0;
       picked < config_.agents && attempts < 64 * (config_.agents + g.node_count());
       ++attempts) {
    const PeerId p = g.random_active_node(rng_);
    if (p == kInvalidPeer) break;
    if (is_agent_[p]) continue;
    is_agent_[p] = 1;
    agents_.push_back(p);
    net_.set_kind(p, PeerKind::kBad);
    ++picked;
  }
  util::log_info("attack: campaign started with " + std::to_string(picked) +
                 " agents");
  DDP_TRACE(tracer_, obs::EventType::kAttackStarted, net_.now(), kInvalidPeer,
            kInvalidPeer, {{"agents", static_cast<double>(picked)}});
  if (trace_agents_ && tracer_.on()) {
    // Per-agent activation for the forensics plane, ascending id so the
    // emission order is independent of the pick order.
    std::vector<PeerId> sorted(agents_);
    std::sort(sorted.begin(), sorted.end());
    const double rate = net_.config().attack_target_per_minute;
    for (const PeerId a : sorted) {
      tracer_.emit(obs::EventType::kAgentActivated, net_.now(), a,
                   kInvalidPeer, {{"rate", rate}});
    }
  }
}

void AttackScenario::on_minute(double minute) {
  if (!started_) {
    if (minute >= config_.start_minute) {
      start(minute);
      drive_sourcing(minute);
    }
    return;
  }
  drive_sourcing(minute);
  auto& g = net_.mutable_graph();
  for (PeerId a : agents_) {
    if (rejoin_due_[a] >= 0.0) {
      if (minute >= rejoin_due_[a]) {
        // Walk back in with fresh links (the defense cannot blacklist:
        // queries carry no source identity, Sec. 2.1).
        if (!g.is_active(a)) g.set_active(a, true);
        std::size_t added = 0;
        for (std::size_t tries = 0;
             tries < config_.rejoin_links * 8 && added < config_.rejoin_links;
             ++tries) {
          const PeerId t = g.random_active_node_by_degree(rng_, a);
          if (t == kInvalidPeer) break;
          if (g.add_edge(a, t)) {
            net_.on_edge_added(a, t);
            ++added;
          }
        }
        if (added > 0) {
          rejoin_due_[a] = -1.0;
          ++rejoins_;
          DDP_TRACE(tracer_, obs::EventType::kAgentRejoined, net_.now(), a,
                    kInvalidPeer, {{"links", static_cast<double>(added)}});
        }
      }
      continue;
    }
    // Isolated by the defense (or by churn of all its neighbours)?
    if (g.is_active(a) && g.degree(a) == 0) {
      if (config_.rejoin) {
        rejoin_due_[a] = minute + config_.rejoin_after_minutes;
      }
    }
  }
}

void AttackScenario::drive_sourcing(double minute) {
  // The paper's constant-rate agent never touches issue scales, keeping
  // every pre-existing scenario byte-identical.
  if (config_.sourcing == SourcingStrategy::kConstant) return;
  const auto& g = net_.graph();
  if (config_.sourcing == SourcingStrategy::kProbe) {
    if (probe_scale_.empty()) {
      // Lazily initialized at activation: every agent starts on the
      // lowest rung with its current degree as the baseline.
      probe_scale_.assign(agents_.size(), config_.probe_step_scale);
      prev_degree_.resize(agents_.size());
      for (std::size_t i = 0; i < agents_.size(); ++i) {
        prev_degree_[i] = static_cast<std::uint32_t>(g.degree(agents_[i]));
      }
    }
    for (std::size_t i = 0; i < agents_.size(); ++i) {
      const PeerId a = agents_[i];
      const auto deg = static_cast<std::uint32_t>(g.degree(a));
      if (deg < prev_degree_[i]) {
        // Lost a link since last minute: the defense noticed. Back off
        // (but stay on the ladder — the climb resumes next minute).
        probe_scale_[i] = std::max(config_.probe_step_scale,
                                   probe_scale_[i] * config_.probe_backoff);
      } else {
        probe_scale_[i] =
            std::min(1.0, probe_scale_[i] + config_.probe_step_scale);
      }
      prev_degree_[i] = deg;
      net_.set_issue_scale(a, probe_scale_[i]);
    }
    return;
  }
  const double scale = schedule_scale(config_, minute - started_minute_);
  for (const PeerId a : agents_) net_.set_issue_scale(a, scale);
}

void AttackScenario::save(snapshot::Writer& w) const {
  w.size(agents_.size());
  for (const PeerId p : agents_) w.u32(p);
  w.size(is_agent_.size());
  for (const char c : is_agent_) w.boolean(c != 0);
  snapshot::save_f64_vector(w, rejoin_due_);
  w.boolean(started_);
  w.u64(rejoins_);
  w.f64(started_minute_);
  snapshot::save_f64_vector(w, probe_scale_);
  w.size(prev_degree_.size());
  for (const std::uint32_t d : prev_degree_) w.u32(d);
  snapshot::save_rng(w, rng_);
}

void AttackScenario::load(snapshot::Reader& r) {
  constexpr std::size_t kMaxPeers = 1u << 24;
  agents_.resize(r.size(kMaxPeers));
  for (PeerId& p : agents_) p = r.u32();
  is_agent_.resize(r.size(kMaxPeers));
  for (char& c : is_agent_) c = r.boolean() ? 1 : 0;
  snapshot::load_f64_vector(r, rejoin_due_, kMaxPeers);
  started_ = r.boolean();
  rejoins_ = static_cast<std::size_t>(r.u64());
  started_minute_ = r.f64();
  snapshot::load_f64_vector(r, probe_scale_, kMaxPeers);
  prev_degree_.resize(r.size(kMaxPeers));
  for (std::uint32_t& d : prev_degree_) d = r.u32();
  snapshot::load_rng(r, rng_);
  if (rejoin_due_.size() != net_.graph().node_count()) {
    throw snapshot::SnapshotError("attack rejoin schedule size != node count");
  }
}

}  // namespace ddp::attack
