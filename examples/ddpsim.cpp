// ddpsim — the everything-configurable scenario runner. Exposes the whole
// ScenarioConfig surface as key=value options and prints the per-minute
// series as CSV, so any experiment variant can be scripted without
// recompiling.
//
// Usage examples:
//   ddpsim peers=2000 agents=100 defense=dd-police ct=5 minutes=40
//   ddpsim topo=two-tier defense=fair-share agents=50 csv=run.csv
//   ddpsim churn=off defense=naive-cut threshold=500
//
// Settings are read strictly (util::Options): an unknown key, a stray
// argument, a malformed value or one validate_config refuses exits 2
// before any file is written. Booleans are 1/0, true/false, yes/no, on/off.
//
// Keys (defaults in brackets):
//   peers[600] agents[50] minutes[26] attack_start[5] seed[20070710]
//   defense[dd-police]   none | naive-cut | fair-share | dd-police
//   topo[ba]             ba | waxman | er | two-tier | hard-cutoff
//   cutoff_exp[2]        hard-cutoff degree ceiling k_c ~ n^(1/exp)
//   ct[5] warning[500] exchange[2] event_driven[0] radius[1]
//   cheat[honest]        honest | inflate | deflate | mute | collude
//   lists[honest]        honest | fabricate | withhold
//   rejoin[0] churn[on] lifetime_min[60] attack_rate[20000]
//   threshold[500]       naive-cut per-link threshold
//   sourcing[constant]   constant | ramp | pulse | probe  (agent schedule)
//   ramp_min[20] ramp_target[1] pulse_on[1] pulse_off[4] pulse_scale[1]
//   probe_step[0.05] probe_backoff[0.5]
//   adaptive[0]          learned per-link cut bands (docs/robustness.md)
//   adaptive_window[10] adaptive_every[2] adaptive_min_samples[4]
//   adaptive_k1[2] adaptive_k2[4] adaptive_floor[50] adaptive_budget[0.5]
//   adaptive_exit[3] malicious_ct[2]
//   flash[0]             correlated legitimate query surges (flash crowds)
//   flash_start[15] flash_min[6] flash_factor[20] flash_frac[0.25]
//   flash_repeat[0]      minutes between surge onsets (0 = one surge)
//   cut_policy[permanent]  permanent | quarantine   (self-healing cuts)
//   quarantine_min[10] quarantine_growth[2] probation_min[5]
//   probation_budget[0.25] probation_links[2] max_strikes[3]
//   admission[blind]     blind | priority (control reserve, shed attack first)
//   control_reserve[0.05]
//   repair[0]            detect partitions and re-bootstrap stranded peers
//   loss[0] dup[0] corrupt[0] delay[0] jitter[0]   control-channel faults
//   crash[0] stall[0] stall_s[90] slow[0]          peer faults (per minute)
//   data_faults[0]       also degrade the query data plane
//   retries[2] timeout[5] retry/collect-timeout knobs of the hardened plane
//   csv[-]               write the series to this file
//   jobs[DDP_JOBS or 1]  >1 runs the baseline and scenario legs on
//                        separate threads (identical output, less wall)
//   flow_jobs[1]         worker threads inside the flow engine's tick
//                        sweeps, one peer span each (0 = one per hardware
//                        thread); output is byte-identical at any value
//
// Observability:
//   trace[-]             write a JSONL event trace of the scenario run
//                        (inspect with trace_tool mode=inspect/summary)
//   profile[0]           print the wall-clock phase profile of the run
//   metrics_csv[-]       write per-minute metric snapshots as CSV
//   metrics_json[-]      write final metric values (incl. histograms) as JSON
//   forensics[-]         fold the attack storyline live and write per-agent
//                        forensics (flag/cut latency, pre-cut damage) as CSV
//   forensics_json[-]    same record as JSON (either key enables the fold)
//   series_window[0]     keep a ring of the last N minutes of per-peer and
//                        per-edge send rates (snapshotted with checkpoint=)
//   progress[0]          heartbeat each completed minute on stderr
//                        (minute N/M, cuts, live quarantine count); stdout
//                        is untouched, so piped CSV/tables stay identical
//
// Checkpoint/restore (crash-resume; see docs/robustness.md):
//   checkpoint[-]        snapshot file; written when the run completes or is
//                        interrupted (SIGINT/SIGTERM checkpoint-then-exit)
//   checkpoint_every[0]  also snapshot every N completed minutes
//   restore[-]           resume the scenario leg from this snapshot; the
//                        behavioural config must match the one it was taken
//                        under (minutes= may be extended, trace=/csv= may
//                        point anywhere). Continued runs replay the exact
//                        event sequence of an uninterrupted run.

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <vector>

#include "experiments/runtime.hpp"
#include "experiments/scenario.hpp"
#include "experiments/sweep.hpp"
#include "metrics/damage.hpp"
#include "obs/trace.hpp"
#include "snapshot/snapshot.hpp"
#include "util/config.hpp"
#include "util/table.hpp"

namespace {

// Written by the signal handler, polled at minute boundaries by the
// scenario leg: the run stops at the next completed minute, writes a final
// checkpoint and exits with the conventional 128+signo code.
volatile std::sig_atomic_t g_signal = 0;

extern "C" void on_signal(int sig) { g_signal = sig; }

}  // namespace

int main(int argc, char** argv) {
  using namespace ddp;
  util::Options opts(argc, argv);
  std::string err;  // the first setting this run cannot honour

  // Each key falls back to the ScenarioConfig field it sets, unless a
  // literal default is given.
  experiments::ScenarioConfig cfg;
  auto& police = cfg.ddpolice;
  auto& campaign = cfg.attack;
  cfg.seed = opts.get("seed", cfg.seed);
  cfg.topo.nodes = opts.get("peers", std::size_t{600});
  cfg.content.objects = std::max<std::size_t>(cfg.topo.nodes * 5, 1000);
  cfg.content.mean_replicas =
      std::max(4.0, static_cast<double>(cfg.topo.nodes) / 100.0);
  campaign.agents = opts.get("agents", std::size_t{50});
  campaign.start_minute = opts.get("attack_start", 5.0);
  campaign.rejoin = opts.get("rejoin", campaign.rejoin);
  cfg.total_minutes = opts.get("minutes", 26.0);
  // Short runs (e.g. the first leg of a checkpointed pair) may end before
  // the usual warmup horizon; clamp so validate_config stays happy.
  cfg.warmup_minutes = std::min(campaign.start_minute + 3.0, cfg.total_minutes);

  cfg.topo.model = opts.get("topo", cfg.topo.model, topology::model_name);
  cfg.topo.hc_cutoff_exponent =
      opts.get("cutoff_exp", cfg.topo.hc_cutoff_exponent);
  cfg.defense =
      opts.get("defense", defense::Kind::kDdPolice, defense::kind_name);

  police.cut_threshold = opts.get("ct", police.cut_threshold);
  police.warning_threshold = opts.get("warning", police.warning_threshold);
  police.exchange_period_minutes =
      opts.get("exchange", police.exchange_period_minutes);
  if (opts.get("event_driven", false)) {
    police.exchange_policy = core::ExchangePolicy::kEventDriven;
  }
  police.buddy_radius = opts.get("radius", police.buddy_radius);
  cfg.naive_cut_threshold = opts.get("threshold", cfg.naive_cut_threshold);
  cfg.flow.attack_target_per_minute =
      opts.get("attack_rate", cfg.flow.attack_target_per_minute);

  // Self-healing stack (all default-off: the paper's permanent cuts,
  // class-blind shedding and unrepaired overlay).
  police.cut_policy =
      opts.get("cut_policy", police.cut_policy, core::cut_policy_name);
  police.quarantine_minutes =
      opts.get("quarantine_min", police.quarantine_minutes);
  police.quarantine_growth =
      opts.get("quarantine_growth", police.quarantine_growth);
  police.probation_minutes =
      opts.get("probation_min", police.probation_minutes);
  police.probation_budget =
      opts.get("probation_budget", police.probation_budget);
  police.probation_links = opts.get("probation_links", police.probation_links);
  police.max_strikes = opts.get("max_strikes", police.max_strikes);
  cfg.flow.admission =
      opts.get("admission", cfg.flow.admission, flow::admission_name);
  cfg.flow.control_reserve_fraction =
      opts.get("control_reserve", cfg.flow.control_reserve_fraction);
  cfg.flow.jobs = opts.get("flow_jobs", cfg.flow.jobs);
  cfg.repair_partitions = opts.get("repair", cfg.repair_partitions);

  campaign.behavior.report = opts.get("cheat", campaign.behavior.report,
                                      attack::report_strategy_name);
  campaign.behavior.list =
      opts.get("lists", campaign.behavior.list, attack::list_strategy_name);

  // Agent sourcing schedule (constant = the paper's immediate full rate).
  campaign.sourcing = opts.get("sourcing", campaign.sourcing,
                               attack::sourcing_strategy_name);
  campaign.ramp_minutes = opts.get("ramp_min", campaign.ramp_minutes);
  campaign.ramp_target_scale =
      opts.get("ramp_target", campaign.ramp_target_scale);
  campaign.pulse_on_minutes = opts.get("pulse_on", campaign.pulse_on_minutes);
  campaign.pulse_off_minutes =
      opts.get("pulse_off", campaign.pulse_off_minutes);
  campaign.pulse_scale = opts.get("pulse_scale", campaign.pulse_scale);
  campaign.probe_step_scale = opts.get("probe_step", campaign.probe_step_scale);
  campaign.probe_backoff = opts.get("probe_backoff", campaign.probe_backoff);

  // Adaptive cut bands (off by default: paper-exact static thresholds).
  auto& adaptive = police.adaptive;
  adaptive.enabled = opts.get("adaptive", adaptive.enabled);
  adaptive.window_minutes =
      opts.get("adaptive_window", adaptive.window_minutes);
  adaptive.estimate_period_minutes =
      opts.get("adaptive_every", adaptive.estimate_period_minutes);
  adaptive.min_samples = opts.get("adaptive_min_samples", adaptive.min_samples);
  adaptive.k1 = opts.get("adaptive_k1", adaptive.k1);
  adaptive.k2 = opts.get("adaptive_k2", adaptive.k2);
  adaptive.band_floor = opts.get("adaptive_floor", adaptive.band_floor);
  adaptive.suspicious_budget =
      opts.get("adaptive_budget", adaptive.suspicious_budget);
  adaptive.suspicion_exit_minutes =
      opts.get("adaptive_exit", adaptive.suspicion_exit_minutes);
  adaptive.malicious_ct = opts.get("malicious_ct", adaptive.malicious_ct);

  // Flash crowds (legitimate surge workload; the false-cut stressor).
  cfg.flash.enabled = opts.get("flash", cfg.flash.enabled);
  cfg.flash.start_minute = opts.get("flash_start", cfg.flash.start_minute);
  cfg.flash.surge_minutes = opts.get("flash_min", cfg.flash.surge_minutes);
  cfg.flash.surge_factor = opts.get("flash_factor", cfg.flash.surge_factor);
  cfg.flash.participation = opts.get("flash_frac", cfg.flash.participation);
  cfg.flash.repeat_every_minutes =
      opts.get("flash_repeat", cfg.flash.repeat_every_minutes);

  cfg.churn.enabled = opts.get("churn", cfg.churn.enabled);
  const double life =
      opts.get("lifetime_min", to_minutes(cfg.churn.mean_lifetime));
  cfg.churn.mean_lifetime = minutes(life);
  cfg.churn.lifetime_variance = life / 2.0 * kMinute * kMinute;

  // Fault injection (all zero by default -> no fault plane is built).
  auto& channel = cfg.fault.channel;
  channel.drop_probability = opts.get("loss", channel.drop_probability);
  channel.duplicate_probability =
      opts.get("dup", channel.duplicate_probability);
  channel.corrupt_probability =
      opts.get("corrupt", channel.corrupt_probability);
  channel.base_delay_seconds = opts.get("delay", channel.base_delay_seconds);
  channel.delay_jitter_seconds =
      opts.get("jitter", channel.delay_jitter_seconds);
  auto& peer = cfg.fault.peer;
  peer.crash_probability_per_minute =
      opts.get("crash", peer.crash_probability_per_minute);
  peer.stall_probability_per_minute =
      opts.get("stall", peer.stall_probability_per_minute);
  peer.stall_duration_seconds =
      opts.get("stall_s", peer.stall_duration_seconds);
  peer.slow_peer_fraction = opts.get("slow", peer.slow_peer_fraction);
  cfg.fault.data_plane = opts.get("data_faults", cfg.fault.data_plane);
  police.max_report_retries = opts.get("retries", police.max_report_retries);
  police.max_exchange_retries = police.max_report_retries;
  police.collect_timeout_seconds =
      opts.get("timeout", police.collect_timeout_seconds);

  // Observability plane and output files ("-" = not written).
  const std::string trace_path = opts.get("trace", std::string("-"));
  const std::string metrics_csv = opts.get("metrics_csv", std::string("-"));
  const std::string metrics_json = opts.get("metrics_json", std::string("-"));
  cfg.obs.metrics = metrics_csv != "-" || metrics_json != "-";
  cfg.obs.profile = opts.get("profile", cfg.obs.profile);
  const std::string forensics_csv = opts.get("forensics", std::string("-"));
  const std::string forensics_json =
      opts.get("forensics_json", std::string("-"));
  cfg.obs.forensics = forensics_csv != "-" || forensics_json != "-";
  cfg.obs.series_window_minutes =
      opts.get("series_window", cfg.obs.series_window_minutes);
  const bool progress = opts.get("progress", false);
  const std::string csv = opts.get("csv", std::string("-"));

  const std::string ckpt_path = opts.get("checkpoint", std::string("-"));
  const double ckpt_every = opts.get("checkpoint_every", 0.0);
  const std::string restore_path = opts.get("restore", std::string("-"));
  const unsigned jobs = opts.get(
      "jobs", util::env("DDP_JOBS", 1u, err, 0, util::kMaxJobs), 0,
      util::kMaxJobs);

  // Validate up front: a clear one-line diagnosis before any file is
  // written, instead of a throw from deep inside the scenario runner.
  if (util::refuse("ddpsim", err.empty() ? opts.error() : err)) return 2;
  std::printf("ddpsim: %zu peers (%s), %zu agents, defense=%s, %s\n",
              cfg.topo.nodes, topology::model_name(cfg.topo.model).data(),
              cfg.attack.agents, defense::kind_name(cfg.defense).data(),
              opts.summary().c_str());
  if (util::refuse("ddpsim", experiments::validate_config(cfg))) return 2;

  std::unique_ptr<obs::JsonlFileSink> trace_sink;
  if (trace_path != "-") {
    trace_sink = std::make_unique<obs::JsonlFileSink>(trace_path);
    if (!trace_sink->ok()) {
      std::fprintf(stderr, "ddpsim: cannot open trace file %s\n",
                   trace_path.c_str());
      return 1;
    }
    cfg.obs.trace_sink = trace_sink.get();
  }

  // The scenario leg runs minute-by-minute on a ScenarioRuntime so it can
  // be checkpointed, resumed and interrupted at quiescent boundaries; this
  // is exactly the machinery run_scenario() is built on, so runs without
  // snapshot options are byte-identical to the classic path.
  std::unique_ptr<experiments::ScenarioRuntime> runtime;
  try {
    runtime = std::make_unique<experiments::ScenarioRuntime>(cfg);
    if (restore_path != "-") {
      runtime->load_file(restore_path);
      std::printf("restored %s at minute %.0f\n", restore_path.c_str(),
                  runtime->current_minute());
    }
  } catch (const snapshot::SnapshotError& e) {
    std::fprintf(stderr, "ddpsim: snapshot rejected: %s\n", e.what());
    return 3;
  } catch (const std::length_error& e) {
    // The flow engine's slot ceiling, on an overlay validate_config could
    // not size up front (models other than BA).
    std::fprintf(stderr, "ddpsim: invalid configuration: %s\n", e.what());
    return 2;
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  std::string ckpt_error;
  auto run_scenario_leg = [&]() {
    double m = runtime->current_minute();
    double next_ckpt = ckpt_every > 0.0 ? m + ckpt_every : 0.0;
    while (m + 1e-9 < cfg.total_minutes && g_signal == 0) {
      m = std::min(m + 1.0, cfg.total_minutes);
      runtime->run_to_minute(m);
      if (progress) {
        const auto view = runtime->view();
        const std::size_t cuts =
            view.ddpolice != nullptr ? view.ddpolice->decisions().size() : 0;
        const std::size_t quarantined =
            view.ledger != nullptr ? view.ledger->blocked_count() : 0;
        std::fprintf(stderr,
                     "ddpsim: minute %.0f/%.0f, %zu cut, %zu quarantined\n", m,
                     cfg.total_minutes, cuts, quarantined);
      }
      if (ckpt_every > 0.0 && ckpt_path != "-" && m + 1e-9 >= next_ckpt) {
        try {
          // Flush first so the on-disk trace is consistent with the
          // snapshot should the process die right after.
          if (trace_sink != nullptr) trace_sink->flush();
          runtime->save_file(ckpt_path);
        } catch (const snapshot::SnapshotError& e) {
          ckpt_error = e.what();
          break;
        }
        next_ckpt += ckpt_every;
      }
    }
    return runtime->result();
  };

  // The two legs are fully independent (run_baseline strips the obs
  // plane), so jobs>1 runs them on separate threads. Either way the
  // results — and every file written from them — are identical.
  experiments::SweepRunner runner(jobs > 1 ? 2u : 1u);
  std::vector<experiments::ScenarioResult> legs;
  try {
    legs = runner.map(2, [&](std::size_t i) {
      return i == 0 ? experiments::run_baseline(cfg) : run_scenario_leg();
    });
  } catch (const std::length_error& e) {
    // An overlay that grew past the flow engine's slot ceiling mid-run.
    std::fprintf(stderr, "ddpsim: %s\n", e.what());
    return 2;
  }
  const auto baseline = std::move(legs[0]);
  const auto r = std::move(legs[1]);

  if (!ckpt_error.empty()) {
    std::fprintf(stderr, "ddpsim: checkpoint failed: %s\n",
                 ckpt_error.c_str());
    return 3;
  }
  if (g_signal != 0 || ckpt_path != "-") {
    // Final (or interrupt) checkpoint at the minute boundary we stopped on.
    if (ckpt_path != "-") {
      try {
        if (trace_sink != nullptr) trace_sink->flush();
        runtime->save_file(ckpt_path);
        std::printf("checkpoint %s at minute %.0f\n", ckpt_path.c_str(),
                    runtime->current_minute());
      } catch (const snapshot::SnapshotError& e) {
        std::fprintf(stderr, "ddpsim: checkpoint failed: %s\n", e.what());
        return 3;
      }
    }
    if (g_signal != 0) {
      if (trace_sink != nullptr) trace_sink->flush();
      std::fprintf(stderr,
                   "ddpsim: interrupted by signal %d at minute %.0f%s\n",
                   static_cast<int>(g_signal), runtime->current_minute(),
                   ckpt_path != "-" ? "; resume with restore=" : "");
      return 128 + static_cast<int>(g_signal);
    }
  }

  util::Table t({"minute", "success_pct", "damage_pct", "response_s",
                 "traffic", "attack_issued", "overhead"});
  const double s0 = baseline.summary.avg_success_rate;
  for (const auto& m : r.history) {
    const double dmg =
        s0 > 0 ? std::max(0.0, (s0 - m.success_rate) / s0 * 100.0) : 0.0;
    t.row()
        .cell(m.minute, 0)
        .cell(m.success_rate * 100.0, 1)
        .cell(dmg, 1)
        .cell(m.response_time, 2)
        .cell(m.traffic_messages, 0)
        .cell(m.attack_issued, 0)
        .cell(m.overhead_messages, 0);
  }
  t.print(std::cout, "per-minute series");

  const auto dmg = metrics::analyze_damage(r.history, s0, cfg.attack.start_minute);
  std::printf("\nsummary: success %.1f%% (healthy %.1f%%), stabilized damage "
              "%.1f%%, good wrongly cut %zu, agents missed %zu\n",
              r.summary.avg_success_rate * 100.0, s0 * 100.0,
              dmg.stabilized_damage, r.errors.false_negative,
              r.errors.false_positive);
  if (cfg.ddpolice.cut_policy == core::CutPolicy::kQuarantine) {
    double mean_reinstate = 0.0;
    for (const auto& rec : r.reinstatements) {
      mean_reinstate += rec.reinstate_minute - rec.cut_minute;
    }
    if (!r.reinstatements.empty()) {
      mean_reinstate /= static_cast<double>(r.reinstatements.size());
    }
    std::printf("quarantine: %llu quarantined, %llu probations, %llu "
                "reinstated (mean %.1f min), %llu banned, %llu re-isolations\n",
                static_cast<unsigned long long>(r.quarantine.quarantines),
                static_cast<unsigned long long>(r.quarantine.probations),
                static_cast<unsigned long long>(r.quarantine.reinstatements),
                mean_reinstate,
                static_cast<unsigned long long>(r.quarantine.bans),
                static_cast<unsigned long long>(r.quarantine.re_isolations));
  }
  if (cfg.ddpolice.adaptive.enabled) {
    std::printf("adaptive: %llu band re-estimates, %llu suspicion entries, "
                "%llu exits\n",
                static_cast<unsigned long long>(r.band_reestimates),
                static_cast<unsigned long long>(r.suspicion_entries),
                static_cast<unsigned long long>(r.suspicion_exits));
  }
  if (cfg.flash.enabled) {
    std::printf("flash crowds: %zu surge(s)\n", r.flash_surges);
  }
  if (cfg.repair_partitions) {
    std::printf("repair: %llu sweeps, %llu found partitions, %llu peers "
                "re-bootstrapped\n",
                static_cast<unsigned long long>(r.partition_sweeps),
                static_cast<unsigned long long>(r.partitions_seen),
                static_cast<unsigned long long>(r.peers_repaired));
  }
  if (cfg.fault.any()) {
    std::printf("faults: %llu timeouts, %llu retries, %llu late, %llu corrupt "
                "rejected; %zu crashed, %zu stalls; channel %llu/%llu dropped\n",
                static_cast<unsigned long long>(r.fault_control.timeouts),
                static_cast<unsigned long long>(r.fault_control.retries),
                static_cast<unsigned long long>(r.fault_control.late_replies),
                static_cast<unsigned long long>(r.fault_control.corrupt_rejects),
                r.fault_crashes, r.fault_stalls,
                static_cast<unsigned long long>(r.fault_channel.dropped),
                static_cast<unsigned long long>(r.fault_channel.transfers));
  }

  if (csv != "-") {
    if (t.write_csv(csv)) std::printf("wrote %s\n", csv.c_str());
  }

  if (r.profile != nullptr) {
    std::printf("\n%s", r.profile->report().c_str());
  }
  if (trace_sink != nullptr) {
    trace_sink->flush();
    std::printf("wrote %llu trace events to %s\n",
                static_cast<unsigned long long>(trace_sink->lines()),
                trace_path.c_str());
  }
  if (r.metrics_registry != nullptr) {
    if (metrics_csv != "-" && r.metrics_registry->write_csv(metrics_csv)) {
      std::printf("wrote %s\n", metrics_csv.c_str());
    }
    if (metrics_json != "-" && r.metrics_registry->write_json(metrics_json)) {
      std::printf("wrote %s\n", metrics_json.c_str());
    }
  }
  if (r.forensics != nullptr) {
    std::printf("\n%s", r.forensics->summary().c_str());
    if (forensics_csv != "-" && r.forensics->write_csv(forensics_csv)) {
      std::printf("wrote %s\n", forensics_csv.c_str());
    }
    if (forensics_json != "-" && r.forensics->write_json(forensics_json)) {
      std::printf("wrote %s\n", forensics_json.c_str());
    }
  }
  return 0;
}
