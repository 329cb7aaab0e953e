// ROADMAP ablation: DD-POLICE vs the hard-cutoff overlay family. The
// hub-suppressed scale-free graphs (Barabási–Albert growth with degree
// capped at n^(1/cutoff_exp)) are the topologies proposed to blunt
// flooding by removing high-degree relays — but those same hubs are the
// judges with the largest buddy groups. Expected shape: detection stays
// near-total and honest cuts near zero across the sweep, with the
// residual attack traffic before the verdict roughly flat — the buddy
// round needs the suspect's direct neighbours, not a hub's fan-out, so
// capping hubs costs the defense little.

#include <algorithm>

#include "bench_common.hpp"
#include "experiments/extensions.hpp"

int main(int argc, char** argv) {
  using namespace ddp;
  auto run = bench::begin(argc, argv,
                          "bench_cutoff_ablation — degree-capped overlays",
                          "ROADMAP ablation (hard-cutoff exponent sweep)");
  const std::size_t agents = std::min<std::size_t>(100, run.scale.peers / 10);
  // Exponent 1 is plain BA (cap = n, never binds); 2 is the classic
  // sqrt(n) hub cap; beyond 4 the overlay approaches degree-regular.
  const std::vector<double> exponents{1.0, 1.5, 2.0, 3.0, 4.0, 6.0};
  const auto sweep = experiments::run_study(
      experiments::cutoff_ablation(run.scale, agents, exponents), run.scale,
      run.seed);
  bench::finish(run, sweep.table(),
                "detection / false cuts / damage per degree cap",
                "fig_cutoff_ablation");
  return 0;
}
