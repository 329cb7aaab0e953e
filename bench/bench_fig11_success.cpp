// Figure 11: average query success rate vs. number of DDoS agents.
// Expected shape: success collapses as agents multiply (the paper reports
// up to 89.7% of queries failing), while DD-POLICE holds success near the
// healthy baseline.

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace ddp;
  const auto run = bench::begin(argc, argv,
      "bench_fig11_success — query success rate vs #DDoS agents",
      "Figure 11 (success rate)");
  const auto sweep = experiments::run_study(
      experiments::agent_sweep(run.scale), run.scale, run.seed);
  bench::finish(run, sweep.table({"success_no_defense(%)",
                             "success_dd_police(%)",
                             "success_no_attack(%)"}),
                "Figure 11 — average success rate (%)", "fig11_success");
  return 0;
}
