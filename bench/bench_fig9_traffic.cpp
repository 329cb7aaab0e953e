// Figure 9: average traffic cost vs. number of DDoS agents, three curves
// (under DDoS without DD-POLICE / with DD-POLICE / no attack).
// Expected shape: the undefended curve grows steeply with the agent count
// (tens of agents multiply total traffic; ~100 agents push it an order of
// magnitude over baseline), while DD-POLICE stays near the no-attack curve
// with slightly higher cost (its protocol overhead).

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace ddp;
  const auto run = bench::begin(argc, argv,
      "bench_fig9_traffic — average traffic cost vs #DDoS agents",
      "Figure 9 (average traffic cost)");
  const auto sweep = experiments::run_study(
      experiments::agent_sweep(run.scale), run.scale, run.seed);
  bench::finish(run, sweep.table({"traffic_no_defense(10^3/min)",
                             "traffic_dd_police(10^3/min)",
                             "traffic_no_attack(10^3/min)"}),
                "Figure 9 — average traffic cost (10^3 msgs/min)",
                "fig9_traffic");
  return 0;
}
