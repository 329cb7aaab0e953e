// Figure 13: the three error counts vs. the cut threshold CT.
// Expected shape: false negative (good peers wrongly cut — the paper's
// naming) decreases with CT; false positive (bad peers not identified)
// increases with CT; their sum — false judgment — is minimized around
// CT = 5..7, the paper's recommended operating point.
//
// Extension columns (same seeds, CutPolicy::kQuarantine): mean time for a
// falsely cut honest peer to be reinstated, how many honest peers were
// reinstated per trial, the reinstated peers' own end-of-run query
// success probability (0 while cut, and 0 forever under a permanent
// cut), and the network-wide S(t) under each policy. The permanent-cut
// error columns are computed from the exact same runs as before and are
// unchanged.

#include <algorithm>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace ddp;
  auto run = bench::begin(argc, argv, "bench_fig13_errors — errors vs cut threshold",
                          "Figure 13 (errors vs. cut threshold)");
  const std::size_t agents = std::min<std::size_t>(100, run.scale.peers / 10);
  const auto sweep = experiments::run_study(
      experiments::ct_sweep({1.0, 2.0, 3.0, 5.0, 7.0, 9.0, 12.0}, agents,
                            /*with_quarantine=*/true),
      run.scale, run.seed);
  bench::finish(run,
                sweep.table({"false_negative(good cut)",
                             "false_positive(bad missed)", "false_judgment",
                             "reinstate_time(min)", "honest_reinstated",
                             "reinstated_success(%)", "success_permanent(%)",
                             "success_quarantine(%)"}),
                "Figure 13 — errors vs cut threshold", "fig13_errors");
  return 0;
}
