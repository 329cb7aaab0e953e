#include "experiments/scenario.hpp"

#include <cmath>
#include <string>

#include "experiments/runtime.hpp"
#include "flow/network.hpp"

namespace ddp::experiments {

namespace {

bool pos(double v) noexcept { return std::isfinite(v) && v > 0.0; }
bool nonneg(double v) noexcept { return std::isfinite(v) && v >= 0.0; }
bool prob(double v) noexcept { return std::isfinite(v) && v >= 0.0 && v <= 1.0; }

}  // namespace

std::string validate_config(const ScenarioConfig& config) {
  if (config.topo.nodes < 2) return "topo.nodes must be >= 2";
  if (config.topo.ba_links_per_node < 1) {
    return "topo.ba_links_per_node must be >= 1";
  }
  if (config.topo.model == topology::Model::kBarabasiAlbert) {
    // A BA overlay is built with exactly m(m+1) + 2m(n-m-1) directed slots
    // (the seed clique, then m links per joining peer), so one past the
    // flow engine's ceiling is refused here, before any graph exists.
    constexpr std::size_t kMaxSlots = flow::FlowNetwork::kMaxSlots;
    const std::size_t m = config.topo.ba_links_per_node;
    const std::size_t max_nodes =
        m > kMaxSlots || m * (m + 1) > kMaxSlots
            ? m
            : m + 1 + (kMaxSlots - m * (m + 1)) / (2 * m);
    if (config.topo.nodes > max_nodes) {
      return "topo.nodes must be at most " + std::to_string(max_nodes) +
             " for a BA overlay with ba_links_per_node=" + std::to_string(m) +
             " (the flow engine runs at most " + std::to_string(kMaxSlots) +
             " directed links)";
    }
  }
  if (!std::isfinite(config.topo.hc_cutoff_exponent) ||
      config.topo.hc_cutoff_exponent < 1.0 ||
      config.topo.hc_cutoff_exponent > 16.0) {
    return "topo.hc_cutoff_exponent must be within [1, 16] (degree cutoff "
           "k_c ~ n^(1/exponent); 1 reduces to plain BA)";
  }
  if (config.content.objects == 0) return "content.objects must be > 0";
  if (!pos(config.content.mean_replicas)) {
    return "content.mean_replicas must be a finite value > 0";
  }
  if (!nonneg(config.content.popularity_theta)) {
    return "content.popularity_theta must be finite and >= 0";
  }
  if (config.churn.enabled) {
    if (!pos(config.churn.mean_lifetime)) {
      return "churn.mean_lifetime must be a finite value > 0";
    }
    if (!pos(config.churn.lifetime_variance)) {
      return "churn.lifetime_variance must be a finite value > 0";
    }
    if (!nonneg(config.churn.mean_offline)) {
      return "churn.mean_offline must be finite and >= 0";
    }
    if (config.churn.rejoin_links < 1) return "churn.rejoin_links must be >= 1";
    if (!pos(config.churn.pareto_shape)) {
      return "churn.pareto_shape must be a finite value > 0";
    }
  }
  if (config.attack.agents >= config.topo.nodes) {
    return "attack.agents must be fewer than topo.nodes";
  }
  if (!nonneg(config.attack.start_minute)) {
    return "attack.start_minute must be finite and >= 0";
  }
  if (!nonneg(config.attack.rejoin_after_minutes)) {
    return "attack.rejoin_after_minutes must be finite and >= 0";
  }
  if (const std::string err = core::validate(config.ddpolice); !err.empty()) {
    return err;
  }
  if (config.ddpolice.cut_confirmations != 1) {
    return "ddpolice.cut_confirmations must be 1 in the simulator (only the "
           "per-node LocalPolice judge confirms cuts)";
  }
  if (config.ddpolice.adaptive.enabled &&
      config.defense != defense::Kind::kDdPolice) {
    return "ddpolice.adaptive.enabled requires defense=ddpolice (the bands "
           "are learned from DD-POLICE's own monitors)";
  }
  if (const std::string err = workload::validate(config.flash); !err.empty()) {
    return err;
  }
  {
    const auto& a = config.attack;
    if (!nonneg(a.ramp_minutes)) {
      return "attack.ramp_minutes must be finite and >= 0";
    }
    if (!nonneg(a.ramp_target_scale)) {
      return "attack.ramp_target_scale must be finite and >= 0";
    }
    if (!nonneg(a.pulse_on_minutes) || !nonneg(a.pulse_off_minutes)) {
      return "attack.pulse_on/off_minutes must be finite and >= 0";
    }
    if (a.sourcing == attack::SourcingStrategy::kPulse &&
        a.pulse_on_minutes + a.pulse_off_minutes <= 0.0) {
      return "attack.pulse_on_minutes + pulse_off_minutes must be > 0";
    }
    if (!nonneg(a.pulse_scale)) {
      return "attack.pulse_scale must be finite and >= 0";
    }
    if (!pos(a.probe_step_scale) || a.probe_step_scale > 1.0) {
      return "attack.probe_step_scale must be within (0, 1]";
    }
    if (!prob(a.probe_backoff)) {
      return "attack.probe_backoff must be within [0, 1]";
    }
  }
  if (!pos(config.naive_cut_threshold)) {
    return "naive_cut_threshold must be a finite value > 0";
  }
  if (config.flow.ttl < 1 || config.flow.ttl > flow::kMaxTtl) {
    return "flow.ttl must be within [1, 8]";
  }
  if (!pos(config.flow.tick_seconds)) {
    return "flow.tick_seconds must be a finite value > 0";
  }
  if (!pos(config.flow.capacity_per_minute)) {
    return "flow.capacity_per_minute must be a finite value > 0";
  }
  if (!nonneg(config.flow.good_issue_per_minute)) {
    return "flow.good_issue_per_minute must be finite and >= 0";
  }
  if (!nonneg(config.flow.attack_target_per_minute)) {
    return "flow.attack_target_per_minute must be finite and >= 0";
  }
  if (!nonneg(config.flow.hop_latency)) {
    return "flow.hop_latency must be finite and >= 0";
  }
  if (!nonneg(config.flow.max_queue_delay)) {
    return "flow.max_queue_delay must be finite and >= 0";
  }
  if (!nonneg(config.flow.recalibrate_minutes)) {
    return "flow.recalibrate_minutes must be finite and >= 0";
  }
  if (config.flow.calibration_samples < 1 ||
      config.flow.calibration_samples > 4096) {
    return "flow.calibration_samples must be within [1, 4096]";
  }
  if (!std::isfinite(config.flow.link_reliability) ||
      config.flow.link_reliability < 0.0 || config.flow.link_reliability > 2.0) {
    return "flow.link_reliability must be within [0, 2]";
  }
  if (!prob(config.flow.control_reserve_fraction) ||
      config.flow.control_reserve_fraction >= 1.0) {
    return "flow.control_reserve_fraction must be within [0, 1)";
  }
  if (config.flow.jobs > 256) {
    return "flow.jobs must be within [0, 256] (0 = one per hardware thread)";
  }
  const auto& ch = config.fault.channel;
  if (!prob(ch.drop_probability) || !prob(ch.duplicate_probability) ||
      !prob(ch.corrupt_probability)) {
    return "fault.channel probabilities must be within [0, 1]";
  }
  if (!nonneg(ch.base_delay_seconds) || !nonneg(ch.delay_jitter_seconds)) {
    return "fault.channel delays must be finite and >= 0";
  }
  const auto& pf = config.fault.peer;
  if (!prob(pf.crash_probability_per_minute) ||
      !prob(pf.stall_probability_per_minute) || !prob(pf.slow_peer_fraction)) {
    return "fault.peer probabilities must be within [0, 1]";
  }
  if (!nonneg(pf.stall_duration_seconds)) {
    return "fault.peer.stall_duration_seconds must be finite and >= 0";
  }
  if (!pos(pf.slow_factor)) {
    return "fault.peer.slow_factor must be a finite value > 0";
  }
  if (!pos(config.total_minutes)) {
    return "total_minutes must be a finite value > 0";
  }
  if (!nonneg(config.warmup_minutes) ||
      config.warmup_minutes > config.total_minutes) {
    return "warmup_minutes must be within [0, total_minutes]";
  }
  if (!prob(config.maintain_rate_per_minute)) {
    return "maintain_rate_per_minute must be within [0, 1]";
  }
  if (config.repair_partitions) {
    if (config.repair.max_attempts < 1) {
      return "repair.max_attempts must be >= 1";
    }
    if (config.repair.links < 1) return "repair.links must be >= 1";
  }
  if (config.obs.series_window_minutes > (1u << 20)) {
    return "obs.series_window_minutes must be <= 2^20";
  }
  return {};
}

ScenarioResult run_scenario(const ScenarioConfig& config) {
  // The scenario is now a long-lived object with a checkpoint boundary
  // (runtime.hpp); this entry point keeps the one-shot contract every
  // figure bench and test relies on, bit-identical to the pre-runtime
  // implementation.
  ScenarioRuntime runtime(config);
  runtime.run_all();
  return runtime.result();
}

ScenarioResult run_baseline(ScenarioConfig config) {
  config.attack.agents = 0;
  config.defense = defense::Kind::kNone;
  // No defense means no monitors for adaptive bands to learn from; the
  // flag would only trip validation. Flash crowds stay: they are
  // legitimate workload and belong in the baseline.
  config.ddpolice.adaptive.enabled = false;
  // The reference curve runs unobserved: a shared trace sink would
  // otherwise interleave baseline events into the scenario's trace.
  config.obs = ObsConfig{};
  return run_scenario(config);
}

ScenarioConfig paper_scenario(std::size_t peers, std::size_t agents,
                              defense::Kind defense_kind, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.topo.model = topology::Model::kBarabasiAlbert;
  cfg.topo.nodes = peers;
  cfg.topo.ba_links_per_node = 3;
  cfg.content.objects = std::max<std::size_t>(peers * 5, 1000);
  cfg.content.mean_replicas = std::max(4.0, static_cast<double>(peers) / 100.0);
  cfg.attack.agents = agents;
  cfg.attack.start_minute = 5.0;
  cfg.defense = defense_kind;
  cfg.total_minutes = 30.0;
  cfg.warmup_minutes = 6.0;
  return cfg;
}

}  // namespace ddp::experiments
