// Figure 14: damage recovery time (from D >= 20% until D <= 15%) vs. the
// cut threshold CT.
// Expected shape: recovery time grows with CT — laxer thresholds take
// longer to identify the agents, so the damage persists longer.

#include <algorithm>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace ddp;
  auto run = bench::begin(argc, argv,
      "bench_fig14_recovery — damage recovery time vs cut threshold",
      "Figure 14 (damage recovery time vs. cut threshold)");
  const std::size_t agents = std::min<std::size_t>(100, run.scale.peers / 10);
  const auto sweep = experiments::run_study(
      experiments::ct_sweep({1.0, 2.0, 3.0, 5.0, 7.0, 9.0, 12.0}, agents,
                            /*with_quarantine=*/false),
      run.scale, run.seed);
  bench::finish(run,
                sweep.table({"recovery_time(min)", "detection_time(min)",
                             "stabilized_damage(%)"}),
                "Figure 14 — damage recovery time (minutes)", "fig14_recovery");
  return 0;
}
