// Sec. 3.5: DD-POLICE-r. Buddy radius r = 1 vs r = 2, with honest and
// colluding (deflating) agents.
// Expected shape: with honest reporting the radii perform alike; with
// deflating agents r = 2's flow-balance cross-check protects the
// forwarders that r = 1 wrongly cuts, at extra protocol cost.

#include <algorithm>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace ddp;
  auto run = bench::begin(argc, argv, "bench_r_ablation — DD-POLICE-r buddy radius",
                          "Sec. 3.5 (DD-POLICE-r, r > 1)");
  const std::size_t agents = std::min<std::size_t>(50, run.scale.peers / 12);
  const auto sweep = experiments::run_study(
      experiments::radius_ablation(agents), run.scale, run.seed);
  bench::finish(run, sweep.table(),
                "Sec. 3.5 — buddy radius ablation", "r_ablation");
  return 0;
}
