// Chaos soak: run the full self-healing stack (quarantine cuts, priority
// shedding, partition repair) under a hostile schedule — flooding agents
// that rejoin after every cut, churn, lossy control links, peer
// crash/stall faults — and assert the standing invariants every simulated
// minute (see src/experiments/soak.hpp). Exits non-zero on any violation,
// so CI can gate on it.
//
// Keys (defaults in brackets; an unknown key or a malformed value exits 2):
//   peers[300] agents[30] minutes[480] seed[20070710]
//   connectivity[0.85]   honest-majority largest-component floor
//   check_every[1]       minutes between invariant sweeps
//   csv[-]               write the per-hour series to this file
//   soaks[1]             independent soak instances (seed, seed+1000003, …)
//   jobs[DDP_JOBS or 1]  worker threads across soak instances (0 = nproc,
//                        at most 256)
//
// Crash-resume drill (base-seed instance only; see docs/robustness.md):
//   checkpoint[-]        snapshot file for periodic checkpoints
//   checkpoint_every[0]  minutes between checkpoints (0 = only at kill)
//   kill_at[0]           >0: stop at that minute, checkpoint, then resume
//                        from the snapshot in-process and run to the end —
//                        the kill-and-resume leg of the chaos soak
//   restore[-]           resume the base instance from an existing snapshot
//
// The default schedule is 480 simulated minutes = 8 simulated hours.
// With soaks > 1 the extra instances fan out across the SweepRunner pool;
// the digest below always shows the first (base-seed) instance, and the
// exit code is non-zero if ANY instance violated an invariant.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "experiments/soak.hpp"
#include "experiments/sweep.hpp"
#include "util/config.hpp"

int main(int argc, char** argv) {
  using namespace ddp;
  util::Options opts(argc, argv);
  std::string err;  // the first setting this soak cannot honour

  const auto peers = opts.get("peers", std::size_t{300});
  const auto agents = opts.get("agents", std::size_t{30});
  const double minutes = opts.get("minutes", 480.0);
  const auto seed = opts.get("seed", std::uint64_t{20070710});
  const auto soaks = opts.get("soaks", std::size_t{1}, 1);
  const unsigned jobs = opts.get(
      "jobs", util::env("DDP_JOBS", 1u, err, 0, util::kMaxJobs), 0,
      util::kMaxJobs);

  experiments::SoakConfig cfg =
      experiments::chaos_soak_config(peers, agents, minutes, seed);
  cfg.min_honest_connectivity =
      opts.get("connectivity", cfg.min_honest_connectivity);
  cfg.check_every_minutes = opts.get("check_every", cfg.check_every_minutes);

  const std::string ckpt_path = opts.get("checkpoint", std::string("-"));
  const double ckpt_every = opts.get("checkpoint_every", 0.0);
  const double kill_at = opts.get("kill_at", 0.0);
  const std::string restore_path = opts.get("restore", std::string("-"));
  const std::string csv = opts.get("csv", std::string("-"));
  if (util::refuse("bench_soak_chaos", err.empty() ? opts.error() : err)) {
    return 2;
  }

  std::printf("bench_soak_chaos — %zu peers, %zu agents, %.0f min "
              "(%.1f simulated hours), seed %llu, %zu soak(s), %u job(s)\n",
              peers, agents, minutes, minutes / 60.0,
              static_cast<unsigned long long>(seed), soaks, jobs);
  std::printf("chaos: rejoining agents, churn, loss=%.2f corrupt=%.2f, "
              "crash=%g/min stall=%g/min, quarantine+priority+repair on\n",
              cfg.scenario.fault.channel.drop_probability,
              cfg.scenario.fault.channel.corrupt_probability,
              cfg.scenario.fault.peer.crash_probability_per_minute,
              cfg.scenario.fault.peer.stall_probability_per_minute);

  // Fan independent soak instances (distinct seeds, otherwise identical
  // hostile schedule) across the trial-granularity pool.
  experiments::SweepRunner runner(jobs);
  const std::vector<experiments::SoakReport> reports =
      runner.map(soaks, [&](std::size_t i) {
        experiments::SoakConfig instance = cfg;
        instance.scenario.seed = seed + 1000003ULL * i;
        if (i != 0) return experiments::run_soak(instance);

        // The base-seed instance carries the crash-resume drill: the
        // snapshot file is a single path, so only one instance may use it.
        if (ckpt_path != "-") {
          instance.checkpoint_path = ckpt_path;
          instance.checkpoint_every_minutes = ckpt_every;
        }
        if (restore_path != "-") instance.restore_path = restore_path;
        if (kill_at > 0.0 && ckpt_path != "-") {
          instance.kill_at_minute = kill_at;
          experiments::SoakReport first = experiments::run_soak(instance);
          if (!first.killed) return first;  // kill_at beyond the schedule

          std::printf("killed at minute %.0f, resuming from %s\n",
                      first.minutes, ckpt_path.c_str());
          experiments::SoakConfig resumed = instance;
          resumed.kill_at_minute = 0.0;
          resumed.restore_path = ckpt_path;
          experiments::SoakReport second = experiments::run_soak(resumed);
          // Verdict covers both legs of the drill.
          second.checks += first.checks;
          second.violation_count += first.violation_count;
          second.violations.insert(second.violations.begin(),
                                   first.violations.begin(),
                                   first.violations.end());
          return second;
        }
        return experiments::run_soak(instance);
      });
  const experiments::SoakReport& report = reports.front();

  // Per-hour digest of the run: a soak log humans can scan.
  util::Table t({"hour", "success_pct", "traffic", "dropped", "dropped_good",
                 "dropped_attack", "active_peers"});
  const auto& hist = report.result.history;
  for (std::size_t h = 0; h * 60 < hist.size(); ++h) {
    double success = 0.0, traffic = 0.0, dropped = 0.0;
    double dgood = 0.0, dattack = 0.0;
    std::size_t n = 0;
    for (std::size_t i = h * 60; i < hist.size() && i < (h + 1) * 60; ++i) {
      success += hist[i].success_rate;
      traffic += hist[i].traffic_messages;
      dropped += hist[i].dropped;
      dgood += hist[i].dropped_good;
      dattack += hist[i].dropped_attack;
      ++n;
    }
    if (n == 0) break;
    t.row()
        .cell(static_cast<std::uint64_t>(h))
        .cell(success / static_cast<double>(n) * 100.0, 1)
        .cell(traffic, 0)
        .cell(dropped, 0)
        .cell(dgood, 0)
        .cell(dattack, 0)
        .cell(report.result.final_active_peers, 0);
  }
  t.print(std::cout, "per-hour soak digest");

  bool all_passed = true;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& r = reports[i];
    all_passed = all_passed && r.passed();
    std::printf("\n[soak %zu, seed %llu] %s\n", i,
                static_cast<unsigned long long>(seed + 1000003ULL * i),
                experiments::soak_verdict(r).c_str());
    for (const auto& v : r.violations) {
      std::printf("  violation @%.0f min: %s\n", v.minute, v.what.c_str());
    }
  }

  if (csv != "-" && t.write_csv(csv)) std::printf("wrote %s\n", csv.c_str());

  const std::uint64_t rss = bench::peak_rss_bytes();
  if (rss != 0) {
    std::printf("peak RSS: %.1f MiB\n",
                static_cast<double>(rss) / (1024.0 * 1024.0));
  }

  return all_passed ? 0 : 1;
}
