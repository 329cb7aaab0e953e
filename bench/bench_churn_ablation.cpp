// Robustness ablation: membership dynamics. Buddy-group staleness is the
// protocol's main error source, so this study sweeps churn regimes from a
// static overlay to lifetimes far shorter than the paper's, plus the
// alternative lifetime distributions. Expected shape: wrong cuts of good
// peers grow as lifetimes shrink; a static overlay has (near) none.

#include <algorithm>

#include "bench_common.hpp"
#include "experiments/extensions.hpp"

int main(int argc, char** argv) {
  using namespace ddp;
  auto run = bench::begin(argc, argv, "bench_churn_ablation — membership dynamics",
                          "DESIGN.md ablation (churn sensitivity, Sec. 3.5)");
  const std::size_t agents = std::min<std::size_t>(100, run.scale.peers / 10);
  const auto sweep = experiments::run_study(
      experiments::churn_ablation(agents), run.scale, run.seed);
  bench::finish(run, sweep.table(),
                "DD-POLICE error counts across churn regimes",
                "churn_ablation");
  return 0;
}
