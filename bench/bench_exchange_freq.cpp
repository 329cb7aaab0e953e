// Sec. 3.7.1: the neighbour-list exchange frequency study. Periodic
// policies at s in {1,2,4,5,10} minutes against the event-driven policy.
// Expected shape: little performance difference for s <= 2 minutes;
// misjudgment grows at s = 4..10 (stale lists); event-driven minimizes
// errors but costs the most exchange messages in a dynamic overlay.

#include <algorithm>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace ddp;
  auto run = bench::begin(argc, argv,
      "bench_exchange_freq — neighbour-list exchange frequency study",
      "Sec. 3.7.1 (frequency of neighbor list exchanging)");
  const std::size_t agents = std::min<std::size_t>(50, run.scale.peers / 12);
  const auto sweep = experiments::run_study(
      experiments::exchange_frequency_study({1.0, 2.0, 4.0, 5.0, 10.0}, true,
                                            agents),
      run.scale, run.seed);
  bench::finish(run, sweep.table(),
                "Sec. 3.7.1 — exchange policy vs errors and overhead",
                "exchange_freq");
  return 0;
}
