#include "experiments/runtime.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "core/adaptive.hpp"
#include "flow/flow_port.hpp"
#include "snapshot/state_io.hpp"
#include "topology/bandwidth.hpp"

namespace ddp::experiments {

namespace {

/// Reconnect active good peers that fell below the minimum degree —
/// modelling Gnutella's host-cache-driven connection maintenance. Peers
/// the quarantine ledger keeps isolated are skipped on both ends: a host
/// cache handing out a quarantined address would undo the defense.
void maintain_overlay(flow::FlowNetwork& net, const attack::AttackScenario& atk,
                      util::Rng& rng, std::size_t min_degree,
                      double rate_per_minute,
                      const core::QuarantineLedger* ledger) {
  auto& g = net.mutable_graph();
  for (PeerId p = 0; p < g.node_count(); ++p) {
    if (!g.is_active(p) || atk.is_agent(p)) continue;
    if (ledger != nullptr && ledger->blocked(p)) continue;
    if (g.degree(p) >= min_degree) continue;
    if (!rng.chance(rate_per_minute)) continue;  // discovery takes time
    const std::size_t missing = min_degree - g.degree(p);
    for (std::size_t tries = 0, added = 0;
         tries < missing * 8 && added < missing; ++tries) {
      const PeerId t = g.random_active_node_by_degree(rng, p);
      if (t == kInvalidPeer) break;
      if (atk.is_agent(t)) continue;  // host caches would not favour leeches
      if (ledger != nullptr && ledger->blocked(t)) continue;
      if (g.add_edge(p, t)) {
        net.on_edge_added(p, t);
        ++added;
      }
    }
  }
}

constexpr std::uint32_t kSecRun = snapshot::section_id("RUN ");
constexpr std::uint32_t kSecGraph = snapshot::section_id("GRPH");
constexpr std::uint32_t kSecFlow = snapshot::section_id("FLOW");
constexpr std::uint32_t kSecChurn = snapshot::section_id("CHRN");
constexpr std::uint32_t kSecAttack = snapshot::section_id("ATTK");
constexpr std::uint32_t kSecDefense = snapshot::section_id("DEFN");
constexpr std::uint32_t kSecFault = snapshot::section_id("FALT");
constexpr std::uint32_t kSecHeal = snapshot::section_id("HEAL");
constexpr std::uint32_t kSecMaint = snapshot::section_id("MANT");
constexpr std::uint32_t kSecMetrics = snapshot::section_id("METR");
constexpr std::uint32_t kSecSeries = snapshot::section_id("SERS");
constexpr std::uint32_t kSecForensics = snapshot::section_id("FRNS");
constexpr std::uint32_t kSecFlash = snapshot::section_id("FLSH");
constexpr std::uint32_t kSecAdaptive = snapshot::section_id("ADPT");

ScenarioConfig validated(ScenarioConfig config) {
  if (const std::string err = validate_config(config); !err.empty()) {
    throw std::invalid_argument("invalid scenario config: " + err);
  }
  return config;
}

topology::Graph make_graph(const ScenarioConfig& config) {
  util::Rng master(config.seed);
  util::Rng topo_rng = master.fork("topology");
  return topology::generate(config.topo, topo_rng);
}

/// FNV-1a over the behavioural fields of one scenario configuration.
/// Run-shape knobs (total/warmup minutes) and the observability plane are
/// deliberately excluded: a resumed run may extend the horizon or attach
/// different instrumentation without invalidating the snapshot.
class ConfigDigest {
 public:
  void u(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void f(double v) noexcept { u(std::bit_cast<std::uint64_t>(v)); }
  void b(bool v) noexcept { u(v ? 1 : 0); }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

std::uint64_t ScenarioRuntime::config_digest(const ScenarioConfig& c) {
  ConfigDigest d;
  d.u(c.seed);
  d.u(static_cast<std::uint64_t>(c.topo.model));
  d.u(c.topo.nodes);
  d.u(c.topo.two_tier.nodes);
  d.u(c.topo.two_tier.ultrapeers);
  d.u(c.topo.two_tier.core_links_per_node);
  d.u(c.topo.two_tier.leaf_links);
  d.u(c.topo.ba_links_per_node);
  d.f(c.topo.waxman_alpha);
  d.f(c.topo.waxman_beta);
  d.f(c.topo.waxman_target_degree);
  d.f(c.topo.er_target_degree);
  d.f(c.topo.hc_cutoff_exponent);
  d.u(c.content.objects);
  d.f(c.content.popularity_theta);
  d.f(c.content.mean_replicas);
  d.f(c.content.replication_skew);
  d.u(c.content.placement_seed);
  d.b(c.churn.enabled);
  d.u(static_cast<std::uint64_t>(c.churn.distribution));
  d.f(c.churn.mean_lifetime);
  d.f(c.churn.lifetime_variance);
  d.f(c.churn.mean_offline);
  d.u(c.churn.rejoin_links);
  d.f(c.churn.pareto_shape);
  d.u(c.attack.agents);
  d.f(c.attack.start_minute);
  d.f(c.attack.rejoin_after_minutes);
  d.u(c.attack.rejoin_links);
  d.b(c.attack.rejoin);
  d.u(static_cast<std::uint64_t>(c.attack.behavior.report));
  d.u(static_cast<std::uint64_t>(c.attack.behavior.list));
  d.f(c.attack.behavior.inflate_factor);
  d.f(c.attack.behavior.deflate_factor);
  d.u(static_cast<std::uint64_t>(c.attack.sourcing));
  d.f(c.attack.ramp_minutes);
  d.f(c.attack.ramp_target_scale);
  d.f(c.attack.pulse_on_minutes);
  d.f(c.attack.pulse_off_minutes);
  d.f(c.attack.pulse_scale);
  d.f(c.attack.probe_step_scale);
  d.f(c.attack.probe_backoff);
  d.b(c.flash.enabled);
  d.f(c.flash.start_minute);
  d.f(c.flash.surge_minutes);
  d.f(c.flash.repeat_every_minutes);
  d.f(c.flash.surge_factor);
  d.f(c.flash.participation);
  d.u(static_cast<std::uint64_t>(c.defense));
  d.f(c.ddpolice.cut_threshold);
  d.f(c.ddpolice.warning_threshold);
  d.f(c.ddpolice.good_issue_bound);
  d.f(c.ddpolice.capacity_bound_per_minute);
  d.u(static_cast<std::uint64_t>(c.ddpolice.exchange_policy));
  d.f(c.ddpolice.exchange_period_minutes);
  d.b(c.ddpolice.verify_neighbor_lists);
  d.u(static_cast<std::uint64_t>(c.ddpolice.buddy_radius));
  d.f(c.ddpolice.suppression_window_seconds);
  d.f(c.ddpolice.collect_timeout_seconds);
  d.f(c.ddpolice.ping_period_minutes);
  d.u(static_cast<std::uint64_t>(c.ddpolice.max_report_retries));
  d.u(static_cast<std::uint64_t>(c.ddpolice.max_exchange_retries));
  d.f(c.ddpolice.retry_backoff_base_seconds);
  d.u(static_cast<std::uint64_t>(c.ddpolice.cut_policy));
  d.f(c.ddpolice.quarantine_minutes);
  d.f(c.ddpolice.quarantine_growth);
  d.f(c.ddpolice.probation_minutes);
  d.f(c.ddpolice.probation_budget);
  d.u(static_cast<std::uint64_t>(c.ddpolice.probation_links));
  d.u(static_cast<std::uint64_t>(c.ddpolice.max_strikes));
  d.b(c.ddpolice.adaptive.enabled);
  d.u(c.ddpolice.adaptive.window_minutes);
  d.f(c.ddpolice.adaptive.estimate_period_minutes);
  d.u(c.ddpolice.adaptive.min_samples);
  d.f(c.ddpolice.adaptive.k1);
  d.f(c.ddpolice.adaptive.k2);
  d.f(c.ddpolice.adaptive.band_floor);
  d.f(c.ddpolice.adaptive.suspicious_budget);
  d.f(c.ddpolice.adaptive.suspicion_exit_minutes);
  d.f(c.ddpolice.adaptive.malicious_ct);
  d.f(c.naive_cut_threshold);
  d.u(c.flow.ttl);
  d.u(static_cast<std::uint64_t>(c.flow.discipline));
  d.u(static_cast<std::uint64_t>(c.flow.admission));
  d.f(c.flow.control_reserve_fraction);
  d.f(c.flow.tick_seconds);
  d.f(c.flow.capacity_per_minute);
  d.f(c.flow.good_issue_per_minute);
  d.f(c.flow.attack_target_per_minute);
  d.b(c.flow.bandwidth_limits);
  d.f(c.flow.hop_latency);
  d.f(c.flow.max_queue_delay);
  d.f(c.flow.recalibrate_minutes);
  d.u(c.flow.calibration_samples);
  d.f(c.flow.link_reliability);
  d.f(c.fault.channel.drop_probability);
  d.f(c.fault.channel.duplicate_probability);
  d.f(c.fault.channel.corrupt_probability);
  d.f(c.fault.channel.base_delay_seconds);
  d.f(c.fault.channel.delay_jitter_seconds);
  d.f(c.fault.peer.crash_probability_per_minute);
  d.f(c.fault.peer.stall_probability_per_minute);
  d.f(c.fault.peer.stall_duration_seconds);
  d.f(c.fault.peer.slow_peer_fraction);
  d.f(c.fault.peer.slow_factor);
  d.b(c.fault.data_plane);
  d.b(c.maintain_overlay);
  d.u(c.maintain_min_degree);
  d.f(c.maintain_rate_per_minute);
  d.b(c.repair_partitions);
  d.u(static_cast<std::uint64_t>(c.repair.max_attempts));
  d.u(static_cast<std::uint64_t>(c.repair.links));
  return d.value();
}

ScenarioRuntime::~ScenarioRuntime() = default;

ScenarioRuntime::ScenarioRuntime(const ScenarioConfig& config)
    : config_(validated(config)),
      graph_(make_graph(config_)),
      maint_rng_(util::Rng(config_.seed).fork("maintenance")),
      liar_rng_(util::Rng(config_.seed).fork("liar")) {
  util::Rng master(config_.seed);
  {
    util::Rng bw_rng = master.fork("bandwidth");
    bandwidth_ = std::make_unique<topology::BandwidthMap>(graph_.node_count(),
                                                          bw_rng);
  }
  content_ = std::make_unique<workload::ContentModel>(config_.content,
                                                      graph_.node_count());

  flow::FlowConfig flow_cfg = config_.flow;
  if (config_.defense == defense::Kind::kFairShare) {
    flow_cfg.discipline = flow::ServiceDiscipline::kFairShare;
  }
  if (config_.fault.data_plane && config_.fault.channel.any()) {
    // Data-plane degradation: the expected delivered fraction per link
    // (drop removes volume, duplication adds it back). Off by default so
    // the fault ablation isolates control-plane effects.
    flow_cfg.link_reliability =
        std::clamp(1.0 - config_.fault.channel.drop_probability +
                       config_.fault.channel.duplicate_probability,
                   0.0, 2.0);
  }
  net_ = std::make_unique<flow::FlowNetwork>(graph_, *bandwidth_, *content_,
                                             flow_cfg, master.fork("flow"));

  // Fault plane: built only when some fault rate is non-zero, so fault-free
  // runs do not even construct the subsystem (and consume no rng draws —
  // fork() is order-independent, but not constructing is simplest of all).
  if (config_.fault.any()) {
    plane_ = std::make_unique<fault::FaultPlane>(
        config_.fault, graph_.node_count(), master.fork("fault"));
    flow::FlowNetwork* net = net_.get();
    plane_->peers().on_crash = [net](PeerId p) {
      net->on_peer_offline(p);
      net->mutable_graph().set_active(p, false);
    };
    plane_->peers().on_stall = [net](PeerId p) { net->set_issue_scale(p, 0.0); };
    plane_->peers().on_resume = [net](PeerId p) {
      if (net->graph().is_active(p)) net->set_issue_scale(p, 1.0);
    };
  }

  churn_ = std::make_unique<flow::ChurnDriver>(
      *net_, workload::ChurnModel(config_.churn), master.fork("churn"));
  atk_ = std::make_unique<attack::AttackScenario>(*net_, config_.attack,
                                                  master.fork("attack"));

  // The defenses see the engine only through the port seam; the runtime
  // owns the adapter so the core/defense layers never name flow types.
  // Fair-share lives in the flow engine's service discipline (above) and
  // none is the bare engine: neither builds defense state.
  port_ = std::make_unique<flow::FlowPort>(*net_);
  if (config_.defense == defense::Kind::kNaiveCut) {
    naive_ = std::make_unique<defense::NaiveCutDefense>(
        *port_, config_.naive_cut_threshold);
  }
  if (config_.defense == defense::Kind::kDdPolice) {
    ddpolice_ = std::make_unique<core::DdPolice>(*port_, config_.ddpolice,
                                                 master.fork("ddpolice"));
    // Compromised peers cheat per the configured behaviour (Sec. 3.4).
    attack::AttackScenario* atk = atk_.get();
    const attack::AgentBehavior behavior = config_.attack.behavior;
    ddpolice_->set_report_policy(
        [atk, behavior](PeerId reporter, PeerId suspect,
                        const core::TrafficTruth& truth)
            -> std::optional<core::TrafficTruth> {
          if (!atk->is_agent(reporter)) return truth;
          switch (behavior.report) {
            case attack::ReportStrategy::kHonest:
              return truth;
            case attack::ReportStrategy::kInflate: {
              core::TrafficTruth t = truth;
              t.out_to_suspect *= behavior.inflate_factor;
              return t;
            }
            case attack::ReportStrategy::kDeflate: {
              core::TrafficTruth t = truth;
              t.out_to_suspect *= behavior.deflate_factor;
              return t;
            }
            case attack::ReportStrategy::kMute:
              return std::nullopt;
            case attack::ReportStrategy::kCollude: {
              // Coordinated lying. Input into the suspect *subtracts* in
              // the indicators, so a colluder covers a fellow agent by
              // inflating Q_{m,j} (manufacturing forwardable input that
              // explains the flood) and frames an honest suspect by
              // deflating it (its real forwarding then looks like
              // issuing).
              core::TrafficTruth t = truth;
              if (atk->is_agent(suspect)) {
                t.out_to_suspect *= behavior.inflate_factor;
              } else {
                t.out_to_suspect *= behavior.deflate_factor;
              }
              return t;
            }
          }
          return truth;
        });
    if (config_.attack.behavior.list != attack::ListStrategy::kHonest) {
      // The liar stream is a member (not captured by value) so it can be
      // checkpointed; the draw sequence is identical either way.
      has_liar_rng_ = true;
      const attack::ListStrategy ls = config_.attack.behavior.list;
      ddpolice_->set_list_policy(
          [this, atk, ls](PeerId owner, std::vector<PeerId> truth) {
            if (!atk->is_agent(owner)) return truth;
            if (ls == attack::ListStrategy::kWithhold) {
              if (truth.size() > 1) truth.resize(truth.size() / 2);
              return truth;
            }
            // Fabricate: claim a random non-neighbour as a buddy.
            const PeerId fake =
                net_->graph().random_active_node(liar_rng_, owner);
            if (fake != kInvalidPeer && !net_->graph().has_edge(owner, fake)) {
              truth.push_back(fake);
            }
            return truth;
          });
    }
    ledger_ = ddpolice_->ledger();
  }

  if (plane_ != nullptr) {
    if (ddpolice_ != nullptr) ddpolice_->set_fault_plane(plane_.get());
    if (ledger_ != nullptr) {
      // A stall resume must not clobber a probation budget: resuming peers
      // come back at whatever rate their ladder standing allows.
      flow::FlowNetwork* net = net_.get();
      const double probation_budget = config_.ddpolice.probation_budget;
      core::QuarantineLedger* ledger_raw = ledger_;
      plane_->peers().on_resume = [net, ledger_raw, probation_budget](PeerId p) {
        if (!net->graph().is_active(p)) return;
        const bool on_probation =
            ledger_raw->standing(p) == core::Standing::kProbation;
        net->set_issue_scale(p, on_probation ? probation_budget : 1.0);
      };
    }
  }

  // Flash crowds: correlated legitimate surges, built only when enabled so
  // the default run constructs nothing. Eligibility keeps the shared
  // issue-scale channel conflict-free: agents (the attack schedule owns
  // their scale), ladder-restricted peers (probation budget) and
  // adaptive-suspicious peers (suspicion budget) are never recruited, so a
  // surge restore can never overwrite a defense-imposed budget.
  if (config_.flash.enabled) {
    flow::FlowNetwork* net = net_.get();
    attack::AttackScenario* atk = atk_.get();
    const core::QuarantineLedger* ledger = ledger_;
    const core::AdaptiveThresholds* adaptive =
        ddpolice_ != nullptr ? ddpolice_->adaptive() : nullptr;
    flash_ = std::make_unique<workload::FlashCrowdDriver>(
        config_.flash, graph_.node_count(), master.fork("flash"),
        [net](PeerId p, double scale) { net->set_issue_scale(p, scale); },
        [net, atk, ledger, adaptive](PeerId p) {
          return net->graph().is_active(p) && !atk->is_agent(p) &&
                 (ledger == nullptr || !ledger->restricted(p)) &&
                 (adaptive == nullptr || !adaptive->suspicious(p));
        });
  }

  // Observability plane. Tracing binds the caller's sink to every
  // instrumented subsystem; it only observes, so an untraced run is
  // bit-identical. Forensics folds the same event stream live: the bound
  // sink becomes the accumulator, or a fanout of {caller's sink,
  // accumulator} when both are requested (caller first, so a JSONL trace
  // and the fold see events in the same order). Profiling wraps each
  // minute hook in a wall-clock scope; the metrics hook runs last so it
  // snapshots the settled minute.
  sink_ = config_.obs.trace_sink;
  if (config_.obs.forensics) {
    forensics_ = std::make_shared<obs::ForensicsAccumulator>();
    if (sink_ != nullptr) {
      obs_fanout_.add(sink_);
      obs_fanout_.add(forensics_.get());
      sink_ = &obs_fanout_;
    } else {
      sink_ = forensics_.get();
    }
    atk_->set_trace_agents(true);
  }
  if (sink_ != nullptr) {
    net_->set_trace_sink(sink_);
    churn_->set_trace_sink(sink_);
    atk_->set_trace_sink(sink_);
    if (ddpolice_ != nullptr) {
      ddpolice_->set_trace_sink(sink_);
    }
    if (plane_ != nullptr) {
      plane_->peers().set_trace_sink(sink_);
    }
    if (flash_ != nullptr) {
      flash_->set_trace_sink(sink_);
    }
    obs_tracer_.bind(sink_);
  }
  if (config_.obs.series_window_minutes > 0) {
    series_ = std::make_shared<obs::SeriesStore>(
        graph_, config_.obs.series_window_minutes);
  }
  if (config_.obs.profile) {
    profiler_ = std::make_shared<obs::PhaseProfiler>();
    ph_churn_ = profiler_->phase("churn");
    ph_attack_ = profiler_->phase("attack");
    if (config_.flash.enabled) ph_flash_ = profiler_->phase("flash");
    ph_fault_ = profiler_->phase("fault");
    ph_defense_ = profiler_->phase("defense");
    ph_maintenance_ = profiler_->phase("maintenance");
    if (config_.repair_partitions) ph_repair_ = profiler_->phase("repair");
  }

  register_hooks();
  register_metrics_hook();
  register_obs_hooks();

  if (profiler_ != nullptr) {
    // "flow_ticks" is the engine stepping time *excluding* the hooks, so
    // the phase shares in the report partition the run's wall clock.
    ph_run_ = profiler_->phase("flow_ticks");
  }
}

void ScenarioRuntime::register_hooks() {
  // Hook order matters: churn first (membership), then the attack campaign
  // (start/rejoin), then faults (crash/stall the current membership), then
  // the defense (reads last-minute counters), then overlay maintenance
  // (re-links what the defense cut), then partition repair, inspection and
  // metrics. The order is part of the bit-identity contract and must match
  // what run_scenario always did.
  net_->add_minute_hook(
      [this](double m) { timed(ph_churn_, [&] { churn_->on_minute(m); }); });
  net_->add_minute_hook(
      [this](double m) { timed(ph_attack_, [&] { atk_->on_minute(m); }); });
  if (flash_ != nullptr) {
    // After the attack hook (membership + agent scales settled), before
    // faults and the defense — a surge this minute is visible to the same
    // minute's fault draws and to next minute's monitor samples.
    net_->add_minute_hook(
        [this](double m) { timed(ph_flash_, [&] { flash_->on_minute(m); }); });
  }
  if (plane_ != nullptr) {
    net_->add_minute_hook([this](double m) {
      timed(ph_fault_, [&] {
        plane_->on_minute(m);
        // Churn can resurrect a crash-stopped peer (rejoin draws know
        // nothing of the fault process): put it back down — crash-stop is
        // permanent.
        auto& g = net_->mutable_graph();
        for (PeerId p = 0; p < g.node_count(); ++p) {
          if (plane_->peers().is_crashed(p) && g.is_active(p)) {
            net_->on_peer_offline(p);
            g.set_active(p, false);
          }
        }
      });
    });
  }
  net_->add_minute_hook([this](double m) {
    timed(ph_defense_, [&] {
      if (ddpolice_ != nullptr) ddpolice_->on_minute(m);
      if (naive_ != nullptr) naive_->on_minute(m);
    });
  });
  if (config_.maintain_overlay) {
    net_->add_minute_hook([this](double /*m*/) {
      timed(ph_maintenance_, [&] {
        maintain_overlay(*net_, *atk_, maint_rng_, config_.maintain_min_degree,
                         config_.maintain_rate_per_minute, ledger_);
      });
    });
  }

  // Partition repair runs last in the mutation pipeline: after churn,
  // cuts and maintenance settled the topology, stranded healthy peers are
  // re-bootstrapped into the main component.
  if (config_.repair_partitions) {
    healer_ = std::make_unique<p2p::PartitionHealer>(
        net_->graph(), config_.repair, util::Rng(config_.seed).fork("repair"));
    if (sink_ != nullptr) {
      healer_->set_trace_sink(sink_);
    }
    net_->add_minute_hook([this](double m) {
      timed(ph_repair_, [&] {
        healer_->heal(
            m,
            [this](PeerId p) {
              return net_->graph().is_active(p) && !atk_->is_agent(p) &&
                     (ledger_ == nullptr || !ledger_->blocked(p));
            },
            [this](PeerId a, PeerId b) {
              if (!net_->mutable_graph().add_edge(a, b)) return false;
              net_->on_edge_added(a, b);
              return true;
            });
      });
    });
  }

  // Caller inspection: runs after the full mutation pipeline settled, so
  // invariant checks (soak harness) see exactly the state the next minute
  // starts from. Read-only by contract.
  if (config_.inspect) {
    net_->add_minute_hook([this](double m) { config_.inspect(m, view()); });
  }
}

void ScenarioRuntime::register_metrics_hook() {
  // Metrics snapshots: registered last so every per-minute value reflects
  // the completed hook pipeline for that minute.
  if (!config_.obs.metrics) return;
  registry_ = std::make_shared<obs::MetricsRegistry>();
  obs::MetricsRegistry* reg = registry_.get();
  const obs::MetricId m_traffic = reg->gauge("flow.traffic_messages");
  const obs::MetricId m_attack = reg->gauge("flow.attack_messages");
  const obs::MetricId m_dropped = reg->gauge("flow.dropped");
  const obs::MetricId m_dropped_good = reg->gauge("flow.dropped_good");
  const obs::MetricId m_dropped_attack = reg->gauge("flow.dropped_attack");
  const obs::MetricId m_success = reg->gauge("flow.success_rate");
  const obs::MetricId m_response = reg->gauge("flow.response_time");
  const obs::MetricId m_reach = reg->gauge("flow.reach_per_query");
  const obs::MetricId m_util = reg->gauge("flow.mean_utilization");
  const obs::MetricId m_overhead = reg->gauge("flow.overhead_messages");
  const obs::MetricId m_active = reg->gauge("net.active_peers");
  const obs::MetricId m_joins = reg->gauge("churn.joins");
  const obs::MetricId m_leaves = reg->gauge("churn.leaves");
  const obs::MetricId m_rounds = reg->gauge("defense.rounds");
  const obs::MetricId m_suspicions = reg->gauge("defense.suspicions");
  const obs::MetricId m_cuts = reg->gauge("defense.decisions");
  const obs::MetricId m_timeouts = reg->gauge("fault.timeouts");
  const obs::MetricId m_retries = reg->gauge("fault.retries");
  const obs::MetricId m_quarantines = reg->gauge("defense.quarantines");
  const obs::MetricId m_probations = reg->gauge("defense.probations");
  const obs::MetricId m_reinstated = reg->gauge("defense.reinstatements");
  const obs::MetricId m_bans = reg->gauge("defense.bans");
  const obs::MetricId m_repaired = reg->gauge("repair.peers_repaired");
  const obs::MetricId m_adaptive_susp =
      reg->gauge("defense.adaptive_suspicious");
  const obs::MetricId m_band_reest = reg->gauge("defense.band_reestimates");
  const obs::MetricId m_flash_part = reg->gauge("workload.flash_participants");
  const obs::MetricId m_edge_slots = reg->gauge("topology.edge_slots");
  const obs::MetricId m_edge_live = reg->gauge("topology.edge_live");
  const obs::MetricId m_success_hist =
      reg->histogram("flow.success_rate_hist", 0.0, 1.0, 20);
  fault::FaultPlane* plane_raw = plane_.get();
  const core::DdPolice* ddp_raw = ddpolice_.get();
  const core::QuarantineLedger* ledger_raw = ledger_;
  p2p::PartitionHealer* healer_obs = healer_.get();
  workload::FlashCrowdDriver* flash_raw = flash_.get();
  flow::FlowNetwork* net = net_.get();
  flow::ChurnDriver* churn = churn_.get();
  net_->add_minute_hook([=](double m) {
    const auto& r = net->last_minute_report();
    reg->set(m_traffic, r.traffic_messages);
    reg->set(m_attack, r.attack_messages);
    reg->set(m_dropped, r.dropped);
    reg->set(m_dropped_good, r.dropped_good);
    reg->set(m_dropped_attack, r.dropped_attack);
    reg->set(m_success, r.success_rate);
    reg->set(m_response, r.response_time);
    reg->set(m_reach, r.reach_per_query);
    reg->set(m_util, r.mean_utilization);
    reg->set(m_overhead, r.overhead_messages);
    reg->set(m_active, static_cast<double>(net->graph().active_count()));
    reg->set(m_joins, static_cast<double>(churn->joins()));
    reg->set(m_leaves, static_cast<double>(churn->leaves()));
    if (ddp_raw != nullptr) {
      reg->set(m_rounds, static_cast<double>(ddp_raw->rounds_run()));
      reg->set(m_suspicions, static_cast<double>(ddp_raw->suspicions()));
      reg->set(m_cuts, static_cast<double>(ddp_raw->decisions().size()));
    }
    if (plane_raw != nullptr) {
      reg->set(m_timeouts, static_cast<double>(plane_raw->control().timeouts));
      reg->set(m_retries, static_cast<double>(plane_raw->control().retries));
    }
    if (ledger_raw != nullptr) {
      const auto& qs = ledger_raw->stats();
      reg->set(m_quarantines, static_cast<double>(qs.quarantines));
      reg->set(m_probations, static_cast<double>(qs.probations));
      reg->set(m_reinstated, static_cast<double>(qs.reinstatements));
      reg->set(m_bans, static_cast<double>(qs.bans));
    }
    if (healer_obs != nullptr) {
      reg->set(m_repaired, static_cast<double>(healer_obs->peers_repaired()));
    }
    if (ddp_raw != nullptr) {
      if (const core::AdaptiveThresholds* ad = ddp_raw->adaptive()) {
        reg->set(m_adaptive_susp,
                 static_cast<double>(ad->currently_suspicious()));
        reg->set(m_band_reest, static_cast<double>(ad->band_reestimates()));
      }
    }
    if (flash_raw != nullptr) {
      reg->set(m_flash_part,
               static_cast<double>(flash_raw->participants().size()));
    }
    // Slot-slab occupancy: capacity tracks the high-water mark of live
    // directed edges (free-list reuse keeps it from growing with churn).
    const auto& ei = net->graph().edge_index();
    reg->set(m_edge_slots, static_cast<double>(ei.capacity()));
    reg->set(m_edge_live, static_cast<double>(ei.live_count()));
    reg->observe(m_success_hist, r.success_rate);
    reg->snapshot_minute(m);
  });
}

void ScenarioRuntime::register_obs_hooks() {
  // Observation-only hooks, registered after metrics so they also see the
  // settled minute; they read engine counters and never mutate, so the
  // default (both off) run is bit-identical.
  if (series_ != nullptr) {
    flow::FlowNetwork* net = net_.get();
    obs::SeriesStore* series = series_.get();
    net_->add_minute_hook([net, series](double m) {
      series->begin_minute(m);
      const auto& g = net->graph();
      for (PeerId p = 0; p < g.node_count(); ++p) {
        for (const auto slot : g.out_slots(p)) {
          series->set_edge(slot, net->sent_last_minute(slot));
        }
        series->set_peer(p, net->out_last_minute(p));
      }
    });
  }
  if (forensics_ != nullptr) {
    // Per-agent minute feed: how much each agent pushed into the overlay
    // this minute and the fraction of attack traffic the engine dropped.
    // The accumulator integrates these into injected/delivered-before-cut.
    flow::FlowNetwork* net = net_.get();
    attack::AttackScenario* atk = atk_.get();
    net_->add_minute_hook([this, net, atk](double /*m*/) {
      if (!atk->started() || !obs_tracer_.on()) return;
      const auto& r = net->last_minute_report();
      const double drop_frac =
          r.attack_messages > 0.0
              ? std::clamp(r.dropped_attack / r.attack_messages, 0.0, 1.0)
              : 0.0;
      std::vector<PeerId> sorted(atk->agents());
      std::sort(sorted.begin(), sorted.end());
      for (const PeerId a : sorted) {
        obs_tracer_.emit(obs::EventType::kAgentMinute, net->now(), a,
                         kInvalidPeer,
                         {{"out", net->out_last_minute(a)},
                          {"drop_frac", drop_frac}});
      }
    });
  }
}

void ScenarioRuntime::run_to_minute(double m) {
  if (profiler_ != nullptr) {
    const std::uint64_t hooks_before = profiler_->total_wall_nanos();
    const std::uint64_t t0 = obs::wall_ns();
    net_->run_until_minute(m);
    const std::uint64_t total = obs::wall_ns() - t0;
    const std::uint64_t hooks = profiler_->total_wall_nanos() - hooks_before;
    profiler_->add(ph_run_, total > hooks ? total - hooks : 0);
  } else {
    net_->run_until_minute(m);
  }
}

void ScenarioRuntime::run_all() { run_to_minute(config_.total_minutes); }

double ScenarioRuntime::current_minute() const noexcept {
  return net_->current_minute();
}

ScenarioView ScenarioRuntime::view() const noexcept {
  ScenarioView v;
  v.net = net_.get();
  v.attack = atk_.get();
  v.churn = churn_.get();
  v.ddpolice = ddpolice_.get();
  v.ledger = ledger_;
  v.healer = healer_.get();
  v.fault = plane_.get();
  return v;
}

ScenarioResult ScenarioRuntime::result() const {
  ScenarioResult result;
  result.history = net_->minute_history();
  result.summary = metrics::summarize(result.history, config_.warmup_minutes);
  if (ddpolice_ != nullptr) result.decisions = ddpolice_->decisions();
  if (naive_ != nullptr) result.decisions = naive_->decisions();
  result.is_bad.assign(graph_.node_count(), 0);
  for (PeerId a : atk_->agents()) result.is_bad[a] = 1;
  result.errors = metrics::tally_errors(result.decisions, result.is_bad,
                                        config_.attack.start_minute);
  result.attack_rejoins = atk_->rejoins();
  result.final_active_peers = static_cast<double>(graph_.active_count());
  if (ddpolice_ != nullptr) {
    result.defense_exchange_messages = ddpolice_->exchange_messages();
    result.defense_traffic_messages = ddpolice_->traffic_messages();
    result.defense_rounds = ddpolice_->rounds_run();
    if (const core::QuarantineLedger* lg = ddpolice_->ledger()) {
      result.reinstatements = lg->reinstatements();
      result.quarantine = lg->stats();
    }
    if (const core::AdaptiveThresholds* ad = ddpolice_->adaptive()) {
      result.band_reestimates = ad->band_reestimates();
      result.suspicion_entries = ad->suspicion_entries();
      result.suspicion_exits = ad->suspicion_exits();
    }
  }
  if (flash_ != nullptr) {
    result.flash_surges = flash_->surges_started();
  }
  if (healer_ != nullptr) {
    result.partition_sweeps = healer_->sweeps();
    result.partitions_seen = healer_->partitions_seen();
    result.peers_repaired = healer_->peers_repaired();
  }
  if (plane_ != nullptr) {
    result.fault_control = plane_->control();
    result.fault_channel = plane_->channel().counters();
    result.fault_crashes =
        static_cast<std::size_t>(plane_->peers().crash_count());
    result.fault_stalls = static_cast<std::size_t>(plane_->peers().stall_count());
    metrics::attach_fault_stats(
        result.summary, result.fault_control.timeouts,
        result.fault_control.retries, result.fault_control.late_replies,
        result.fault_control.corrupt_rejects, result.fault_crashes,
        result.fault_stalls);
  }
  result.metrics_registry = registry_;
  result.profile = profiler_;
  result.forensics = forensics_;
  result.series = series_;
  if (sink_ != nullptr) sink_->flush();
  return result;
}

std::vector<std::uint8_t> ScenarioRuntime::save() const {
  snapshot::Writer w;
  w.begin_section(kSecRun);
  w.u8(static_cast<std::uint8_t>(config_.defense));
  w.boolean(plane_ != nullptr);
  w.boolean(healer_ != nullptr);
  w.boolean(registry_ != nullptr);
  w.boolean(series_ != nullptr);
  w.boolean(forensics_ != nullptr);
  w.boolean(flash_ != nullptr);
  w.f64(net_->current_minute());
  w.end_section();

  w.begin_section(kSecGraph);
  graph_.save(w);
  w.end_section();

  w.begin_section(kSecFlow);
  net_->save(w);
  w.end_section();

  w.begin_section(kSecChurn);
  churn_->save(w);
  w.end_section();

  w.begin_section(kSecAttack);
  atk_->save(w);
  w.end_section();

  if (flash_ != nullptr) {
    w.begin_section(kSecFlash);
    flash_->save(w);
    w.end_section();
  }

  // DEFN is empty for none and fair-share, which keep no state.
  w.begin_section(kSecDefense);
  if (ddpolice_ != nullptr) ddpolice_->save(w);
  if (naive_ != nullptr) naive_->save(w);
  w.end_section();

  // Adaptive bands ride after DEFN: they reference the same edge slots the
  // defense state does, and the section only exists when the flag built
  // the subsystem (presence is digest-derived, like every other section).
  if (ddpolice_ != nullptr && ddpolice_->adaptive() != nullptr) {
    w.begin_section(kSecAdaptive);
    ddpolice_->adaptive()->save(w);
    w.end_section();
  }

  if (plane_ != nullptr) {
    w.begin_section(kSecFault);
    plane_->save(w);
    w.end_section();
  }
  if (healer_ != nullptr) {
    w.begin_section(kSecHeal);
    healer_->save(w);
    w.end_section();
  }

  w.begin_section(kSecMaint);
  snapshot::save_rng(w, maint_rng_);
  w.boolean(has_liar_rng_);
  if (has_liar_rng_) snapshot::save_rng(w, liar_rng_);
  w.end_section();

  if (registry_ != nullptr) {
    w.begin_section(kSecMetrics);
    registry_->save(w);
    w.end_section();
  }
  if (series_ != nullptr) {
    w.begin_section(kSecSeries);
    series_->save(w);
    w.end_section();
  }
  if (forensics_ != nullptr) {
    w.begin_section(kSecForensics);
    forensics_->save(w);
    w.end_section();
  }
  return w.finish(config_digest(config_));
}

void ScenarioRuntime::save_file(const std::string& path) const {
  const std::vector<std::uint8_t> image = save();
  // save() already framed everything; write it out atomically: tmp file,
  // then rename over the target.
  const std::string tmp = path + ".tmp";
  {
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
      throw snapshot::SnapshotError("cannot open " + tmp + " for writing");
    }
    const std::size_t wrote = std::fwrite(image.data(), 1, image.size(), f);
    const bool ok = wrote == image.size() && std::fflush(f) == 0;
    std::fclose(f);
    if (!ok) {
      std::remove(tmp.c_str());
      throw snapshot::SnapshotError("short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw snapshot::SnapshotError("cannot rename " + tmp + " to " + path);
  }
}

void ScenarioRuntime::load(snapshot::Reader& r) {
  if (r.config_digest() != config_digest(config_)) {
    throw snapshot::SnapshotError(
        "config digest mismatch: snapshot was taken under a different "
        "scenario configuration");
  }
  r.begin_section(kSecRun);
  const auto kind = r.u8();
  if (kind != static_cast<std::uint8_t>(config_.defense)) {
    throw snapshot::SnapshotError("snapshot defense kind disagrees with config");
  }
  const bool has_plane = r.boolean();
  const bool has_healer = r.boolean();
  const bool has_metrics = r.boolean();
  const bool has_series = r.boolean();
  const bool has_forensics = r.boolean();
  const bool has_flash = r.boolean();
  r.f64();  // minute, informational (FLOW carries the authoritative clock)
  r.end_section();
  if (has_plane != (plane_ != nullptr) || has_healer != (healer_ != nullptr)) {
    throw snapshot::SnapshotError(
        "snapshot subsystem shape disagrees with config (fault plane or "
        "partition healer presence)");
  }
  if (has_metrics != (registry_ != nullptr)) {
    throw snapshot::SnapshotError(
        "snapshot metrics presence disagrees with this run: resume with the "
        "same metrics setting it was taken under");
  }
  if (has_series != (series_ != nullptr)) {
    throw snapshot::SnapshotError(
        "snapshot series presence disagrees with this run: resume with the "
        "same series_window_minutes setting it was taken under");
  }
  if (has_forensics != (forensics_ != nullptr)) {
    throw snapshot::SnapshotError(
        "snapshot forensics presence disagrees with this run: resume with "
        "the same forensics setting it was taken under");
  }
  if (has_flash != (flash_ != nullptr)) {
    throw snapshot::SnapshotError(
        "snapshot flash-crowd presence disagrees with config");
  }

  r.begin_section(kSecGraph);
  graph_.load(r);
  r.end_section();

  r.begin_section(kSecFlow);
  net_->load(r);
  r.end_section();

  r.begin_section(kSecChurn);
  churn_->load(r);
  r.end_section();

  r.begin_section(kSecAttack);
  atk_->load(r);
  r.end_section();

  if (flash_ != nullptr) {
    r.begin_section(kSecFlash);
    flash_->load(r);
    r.end_section();
  }

  r.begin_section(kSecDefense);
  if (ddpolice_ != nullptr) ddpolice_->load(r);
  if (naive_ != nullptr) naive_->load(r);
  r.end_section();

  if (ddpolice_ != nullptr && ddpolice_->adaptive() != nullptr) {
    r.begin_section(kSecAdaptive);
    ddpolice_->adaptive()->load(r);
    r.end_section();
  }

  if (plane_ != nullptr) {
    r.begin_section(kSecFault);
    plane_->load(r);
    r.end_section();
  }
  if (healer_ != nullptr) {
    r.begin_section(kSecHeal);
    healer_->load(r);
    r.end_section();
  }

  r.begin_section(kSecMaint);
  snapshot::load_rng(r, maint_rng_);
  const bool liar = r.boolean();
  if (liar != has_liar_rng_) {
    throw snapshot::SnapshotError(
        "snapshot liar-stream presence disagrees with config");
  }
  if (liar) snapshot::load_rng(r, liar_rng_);
  r.end_section();

  if (registry_ != nullptr) {
    r.begin_section(kSecMetrics);
    registry_->load(r);
    r.end_section();
  }
  if (series_ != nullptr) {
    r.begin_section(kSecSeries);
    series_->load(r);
    r.end_section();
  }
  if (forensics_ != nullptr) {
    r.begin_section(kSecForensics);
    forensics_->load(r);
    r.end_section();
  }

  if (r.sections_remaining() != 0) {
    throw snapshot::SnapshotError("snapshot carries unexpected extra sections");
  }
}

void ScenarioRuntime::load_bytes(const std::vector<std::uint8_t>& bytes) {
  snapshot::Reader r = snapshot::Reader::from_bytes(bytes);
  load(r);
}

void ScenarioRuntime::load_file(const std::string& path) {
  snapshot::Reader r = snapshot::Reader::from_file(path);
  load(r);
}

}  // namespace ddp::experiments
