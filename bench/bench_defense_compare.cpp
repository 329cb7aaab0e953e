// Extension of Sec. 4 (related work): all four defenses under the same
// campaign, quantified. Expected shape: the naive strawman identifies the
// agents but wrongly cuts the forwarders around them (the danger Sec. 2.1
// calls out); fair-share preserves some service but identifies nobody;
// DD-POLICE both restores service and names the agents at modest overhead.

#include <algorithm>

#include "bench_common.hpp"
#include "experiments/extensions.hpp"

int main(int argc, char** argv) {
  using namespace ddp;
  auto run = bench::begin(argc, argv, "bench_defense_compare — defenses head to head",
                          "Sec. 4 quantified (none / naive-cut / fair-share / "
                          "DD-POLICE)");
  const std::size_t agents = std::min<std::size_t>(100, run.scale.peers / 10);
  const auto sweep = experiments::run_study(
      experiments::defense_comparison(agents), run.scale, run.seed);
  bench::finish(run, sweep.table(),
                "defense comparison under identical attack",
                "defense_compare");
  return 0;
}
