// Robustness ablation: DD-POLICE across overlay families. The paper
// evaluates one BRITE topology; this study checks that detection quality
// does not hinge on the power-law shape. Expected shape: similar
// detection latency and error counts across Barabási–Albert, Waxman and
// Erdős–Rényi overlays of equal average degree.

#include <algorithm>

#include "bench_common.hpp"
#include "experiments/extensions.hpp"

int main(int argc, char** argv) {
  using namespace ddp;
  auto run = bench::begin(argc, argv, "bench_topology_ablation — overlay families",
                          "DESIGN.md ablation (topology robustness)");
  const std::size_t agents = std::min<std::size_t>(100, run.scale.peers / 10);
  const auto sweep = experiments::run_study(
      experiments::topology_ablation(agents), run.scale, run.seed);
  bench::finish(run, sweep.table(),
                "DD-POLICE across topology families", "topology_ablation");
  return 0;
}
