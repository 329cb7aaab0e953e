// Figure 12: damage rate D(t) over time under a 100-agent attack, for the
// undefended overlay and DD-POLICE at CT in {3, 7, 10}.
// Expected shape: damage spikes when the attack starts; DD-POLICE pulls it
// down within minutes — CT=3 converges fastest but stabilizes above CT=7
// (good peers wrongly cut), while CT=10 converges slowly and stabilizes
// highest.

#include <algorithm>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace ddp;
  auto run = bench::begin(argc, argv,
      "bench_fig12_damage — damage rate timeline under 100-agent attack",
      "Figure 12 (effectiveness of DD-POLICE in dynamic P2P environments)");
  const std::size_t agents = std::min<std::size_t>(100, run.scale.peers / 10);
  const auto tl = experiments::damage_timelines(run.scale, {3.0, 7.0, 10.0},
                                                agents, run.seed);
  bench::finish(run, tl.table(),
                "Figure 12 — damage rate D(t) (%)", "fig12_damage");
  return 0;
}
