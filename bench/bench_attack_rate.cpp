// Extension: the detectability cliff. Sweeps the per-link sourcing rate
// Q_d from below the 500/min warning threshold up to the paper's 20,000.
// Expected shape: agents throttled near or under the warning threshold are
// rarely suspected — the protocol's blind spot — and DD-POLICE barely
// improves on no defense there (each agent does proportionally less harm,
// but a large-enough fleet of slow agents still degrades the overlay).
// Above the cliff, identification is near-total and DD-POLICE removes most
// of the damage.

#include <algorithm>

#include "bench_common.hpp"
#include "experiments/extensions.hpp"

int main(int argc, char** argv) {
  using namespace ddp;
  auto run = bench::begin(argc, argv, "bench_attack_rate — Q_d detectability sweep",
                          "Sec. 3.3 extension (warning-threshold blind spot)");
  const std::size_t agents = std::min<std::size_t>(100, run.scale.peers / 10);
  const auto sweep = experiments::run_study(
      experiments::attack_rate_sweep(agents), run.scale, run.seed);
  bench::finish(run, sweep.table(),
                "attack sourcing rate vs detection and damage", "attack_rate");
  return 0;
}
