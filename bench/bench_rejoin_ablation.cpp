// Extension of Sec. 3.7.2: attacker persistence. "No mechanism can
// prevent the DDoS agent from joining the system again"; this study
// quantifies the arms race when isolated agents walk back in. Expected
// shape: the faster agents rejoin, the higher the steady-state damage and
// the more disconnect work DD-POLICE performs — but service stays far
// above the undefended level.

#include <algorithm>

#include "bench_common.hpp"
#include "experiments/extensions.hpp"

int main(int argc, char** argv) {
  using namespace ddp;
  auto run = bench::begin(argc, argv, "bench_rejoin_ablation — attacker persistence",
                          "Sec. 3.7.2 extension (agents rejoining)");
  const std::size_t agents = std::min<std::size_t>(100, run.scale.peers / 10);
  const auto sweep = experiments::run_study(
      experiments::rejoin_study(agents), run.scale, run.seed);
  bench::finish(run, sweep.table(),
                "steady state under persistent attackers", "rejoin_ablation");
  return 0;
}
