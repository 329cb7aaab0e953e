// Robustness extension: static vs adaptive cut bands. The paper's global
// constants (500 q/min warning, CT = 5) have a blind spot — an agent that
// ramps slowly, pulses, or probes its way to just under the warning
// threshold is never even suspected. The adaptive policy learns per-link
// normal bands and derives suspicion/cut rails from them. Expected shape:
// the full-rate rows match between policies (both catch an overt flood);
// the low-slow and pulse rows show detected ~0% under "static" and high
// detection with bounded latency under "adaptive"; the flash-crowd rows
// (agents = 0) show the adaptive policy does not buy detection with honest
// false cuts — forwarding cancels in g, so surging honest peers are
// acquitted by the very buddy rounds the rails trigger.

#include <algorithm>

#include "bench_common.hpp"
#include "experiments/extensions.hpp"

int main(int argc, char** argv) {
  using namespace ddp;
  auto run = bench::begin(
      argc, argv, "bench_adaptive_ct — learned cut bands vs evasive attackers",
      "robustness extension (static vs adaptive CT, sub-threshold attackers, "
      "flash crowds)");
  const std::size_t agents = std::min<std::size_t>(50, run.scale.peers / 20);
  const auto sweep = experiments::run_study(
      experiments::adaptive_ct_ablation(agents), run.scale, run.seed);
  bench::finish(run, sweep.table(),
                "detection latency / damage / false cuts per strategy x policy",
                "fig_adaptive_ct");
  return 0;
}
