// Figure 10: average query response time vs. number of DDoS agents.
// Expected shape: response time grows several-fold under attack (the paper
// reports ~2.4x at 100 agents) and DD-POLICE restores it close to the
// no-attack curve.

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace ddp;
  const auto run = bench::begin(argc, argv,
      "bench_fig10_response — average response time vs #DDoS agents",
      "Figure 10 (query response time)");
  const auto sweep = experiments::run_study(
      experiments::agent_sweep(run.scale), run.scale, run.seed);
  bench::finish(run, sweep.table({"response_no_defense(s)",
                             "response_dd_police(s)",
                             "response_no_attack(s)"}),
                "Figure 10 — average response time (seconds)",
                "fig10_response");
  return 0;
}
