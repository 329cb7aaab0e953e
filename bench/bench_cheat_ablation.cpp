// Sec. 3.4: the cheating analysis. Agents answer buddy-group
// Neighbor_Traffic requests honestly / inflating / deflating / refusing,
// and may fabricate or withhold neighbour-list entries.
// Expected shape: no strategy saves the agents — they are identified in
// every case (inflation only strengthens their victims' exoneration;
// deflation and muting can smear individual forwarders but do not stop
// the campaign; list lies are caught by the consistency check).

#include <algorithm>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace ddp;
  auto run = bench::begin(argc, argv, "bench_cheat_ablation — cheating strategies",
                          "Sec. 3.4 (cheating case analysis)");
  const std::size_t agents = std::min<std::size_t>(50, run.scale.peers / 12);
  const auto sweep = experiments::run_study(
      experiments::cheat_ablation(agents), run.scale, run.seed);
  bench::finish(run, sweep.table(),
                "Sec. 3.4 — agent cheating strategies vs detection",
                "cheat_ablation");
  return 0;
}
