// Parallel trial runner tests: ThreadPool lifecycle, SweepRunner index
// ordering and exception routing, and the property the whole harness is
// built around — sweep output is jobs-invariant, so `--jobs N` can only
// change wall clock, never a CSV byte or a per-trial trace. Every study's
// table is pinned by hash at jobs 1 and 4.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "experiments/extensions.hpp"
#include "experiments/figures.hpp"
#include "experiments/scenario.hpp"
#include "experiments/sweep.hpp"
#include "util/thread_pool.hpp"

namespace ddp {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  util::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&count] { ++count; });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  util::ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&count] { ++count; });
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&count] { ++count; });
  }  // ~ThreadPool joins after the queue is empty
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ResolveJobs) {
  EXPECT_EQ(util::resolve_jobs(3), 3u);
  EXPECT_GE(util::resolve_jobs(0), 1u);  // 0 = one per hardware thread
}

TEST(SweepRunner, ResultsInIndexOrder) {
  experiments::SweepRunner runner(8);
  const std::vector<std::size_t> out =
      runner.map(257, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(SweepRunner, SerialAndParallelResultsIdentical) {
  const auto fn = [](std::size_t i) {
    // Deterministic per-index work with float accumulation: the kind of
    // computation whose result would drift if the harness reordered it.
    double acc = 0.0;
    for (std::size_t k = 1; k <= 1000; ++k) {
      acc += 1.0 / static_cast<double>(i * 1000 + k);
    }
    return acc;
  };
  experiments::SweepRunner serial(1);
  experiments::SweepRunner parallel(8);
  const auto a = serial.map(64, fn);
  const auto b = parallel.map(64, fn);
  EXPECT_EQ(a, b);  // exact: same indices, same serial math per index
}

TEST(SweepRunner, LowestIndexExceptionWins) {
  experiments::SweepRunner runner(8);
  try {
    runner.map(16, [](std::size_t i) -> int {
      if (i == 3) throw std::runtime_error("boom 3");
      if (i == 11) throw std::runtime_error("boom 11");
      return 0;
    });
    FAIL() << "map should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 3");
  }
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// FNV-1a of every study table's CSV at a tiny scale, two trials each.
std::vector<std::pair<std::string, std::uint64_t>> study_hashes(unsigned jobs) {
  using namespace experiments;
  Scale s;
  s.peers = 100;
  s.total_minutes = 10.0;
  s.attack_start = 2.0;
  s.warmup_minutes = 3.0;
  s.trials = 2;
  s.agent_counts = {0, 5};
  s.jobs = jobs;
  // The quarantine ladder needs 15 minutes from cut to reinstatement.
  Scale long_s = s;
  long_s.total_minutes = 20.0;
  const std::uint64_t seed = 42;
  const std::size_t agents = 10;

  std::vector<std::pair<std::string, std::uint64_t>> out;
  const auto add = [&out](const char* name, const util::Table& t) {
    out.emplace_back(name, fnv1a(t.to_csv()));
  };
  const auto agent = run_study(agent_sweep(s), s, seed);
  add("fig9_traffic", agent.table({"traffic_no_defense(10^3/min)",
                                   "traffic_dd_police(10^3/min)",
                                   "traffic_no_attack(10^3/min)"}));
  add("fig10_response",
      agent.table({"response_no_defense(s)", "response_dd_police(s)",
                   "response_no_attack(s)"}));
  add("fig11_success",
      agent.table({"success_no_defense(%)", "success_dd_police(%)",
                   "success_no_attack(%)"}));
  add("fig12_damage", damage_timelines(s, {3.0, 7.0}, agents, seed).table());
  const auto ct = run_study(ct_sweep({2.0, 7.0}, agents, true), long_s, seed);
  add("fig13_errors",
      ct.table({"false_negative(good cut)", "false_positive(bad missed)",
                "false_judgment", "reinstate_time(min)", "honest_reinstated",
                "reinstated_success(%)", "success_permanent(%)",
                "success_quarantine(%)"}));
  add("fig14_recovery", ct.table({"recovery_time(min)", "detection_time(min)",
                                  "stabilized_damage(%)"}));
  // Too short for any reinstatement: the quarantine columns print -1.
  const auto ct_short = run_study(ct_sweep({2.0, 7.0}, agents, true), s, seed);
  add("fig13_errors_short",
      ct_short.table({"false_negative(good cut)", "false_positive(bad missed)",
                      "false_judgment", "reinstate_time(min)",
                      "honest_reinstated", "reinstated_success(%)",
                      "success_permanent(%)", "success_quarantine(%)"}));
  const auto table = [&](const Study& study) {
    return run_study(study, s, seed).table();
  };
  add("exchange_freq",
      table(exchange_frequency_study({1.0, 4.0}, true, agents)));
  add("cheat_ablation", table(cheat_ablation(agents)));
  add("r_ablation", table(radius_ablation(agents)));
  add("defense_compare", table(defense_comparison(agents)));
  add("fault_ablation", table(fault_ablation(agents, {0.0, 0.3}, {0.0, 4.0})));
  add("topology_ablation", table(topology_ablation(agents)));
  add("cutoff_ablation", table(cutoff_ablation(s, agents, {1.0, 2.0, 4.0})));
  add("churn_ablation", table(churn_ablation(agents)));
  add("rejoin_ablation", table(rejoin_study(agents)));
  add("attack_rate", table(attack_rate_sweep(agents)));
  add("adaptive_ct", table(adaptive_ct_ablation(agents / 2)));
  return out;
}

TEST(SweepRunner, EveryStudyTableIsPinnedAtJobs1And4) {
  // Recorded from the per-study sweeps the study runner replaced. Any
  // change to a study's arithmetic, reduction order, baseline reuse or
  // formatting moves a hash; so does any jobs dependence, since each
  // value must hold at jobs 1 and at jobs 4.
  const std::vector<std::pair<std::string, std::uint64_t>> pinned{
      {"fig9_traffic", 0x90c058baecbe0902ULL},
      {"fig10_response", 0xee7dc0560b32665fULL},
      {"fig11_success", 0xdfff3d703929920fULL},
      {"fig12_damage", 0x8d33aa133e09077aULL},
      {"fig13_errors", 0x1adeeb10bcfccd1dULL},
      {"fig14_recovery", 0x01639153b8a878a1ULL},
      {"fig13_errors_short", 0xfdde0f96cdb55c5cULL},
      {"exchange_freq", 0x511278681d44a72bULL},
      {"cheat_ablation", 0xd5b3e828c4e1c838ULL},
      {"r_ablation", 0x6598ea68ce2059f3ULL},
      {"defense_compare", 0x94bfbcdb0a5a9469ULL},
      {"fault_ablation", 0x6f3494780f216d86ULL},
      {"topology_ablation", 0x1fd8d08048d18573ULL},
      {"cutoff_ablation", 0x85bdb6411f023e5fULL},
      {"churn_ablation", 0x94eb296fe8590e75ULL},
      {"rejoin_ablation", 0x90ccc1d38fec5003ULL},
      {"attack_rate", 0xdc058032bf562965ULL},
      {"adaptive_ct", 0xf5cf5a136b3b9885ULL},
  };
  for (unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    const auto got = study_hashes(jobs);
    ASSERT_EQ(got.size(), pinned.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], pinned[i]) << pinned[i].first;
    }
  }
}

TEST(SweepRunner, PerTrialTracesAreJobsInvariant) {
  // Beyond the reduced rows: the full per-minute history of each trial
  // must be identical under parallel execution (each trial owns a private
  // engine + RNG seeded only by its index).
  const auto make_config = [](std::uint64_t seed) {
    experiments::ScenarioConfig cfg;
    cfg.seed = seed;
    cfg.topo.nodes = 80;
    cfg.total_minutes = 8.0;
    cfg.warmup_minutes = 2.0;
    cfg.attack.agents = 2;
    cfg.attack.start_minute = 2.0;
    cfg.defense = defense::Kind::kDdPolice;
    return cfg;
  };
  const auto fn = [&make_config](std::size_t i) {
    return experiments::run_scenario(make_config(42 + 1000003ULL * i));
  };
  experiments::SweepRunner serial(1);
  experiments::SweepRunner parallel(4);
  const auto a = serial.map(4, fn);
  const auto b = parallel.map(4, fn);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    ASSERT_EQ(a[t].history.size(), b[t].history.size());
    for (std::size_t m = 0; m < a[t].history.size(); ++m) {
      EXPECT_EQ(a[t].history[m].success_rate, b[t].history[m].success_rate);
      EXPECT_EQ(a[t].history[m].traffic_messages,
                b[t].history[m].traffic_messages);
      EXPECT_EQ(a[t].history[m].dropped, b[t].history[m].dropped);
    }
    EXPECT_EQ(a[t].decisions.size(), b[t].decisions.size());
    EXPECT_EQ(a[t].summary.avg_success_rate, b[t].summary.avg_success_rate);
  }
}

}  // namespace
}  // namespace ddp
