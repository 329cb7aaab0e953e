// Robustness extension (Sec. 5 future work): DD-POLICE judges its
// neighbours through Neighbor_List / Neighbor_Traffic messages, so its
// decision quality is only as good as the channel those messages cross.
// This bench sweeps control-plane message loss x delay jitter (payload
// corruption rides along at loss/4) with the timeout/retry hardening
// active. Expected shape: the loss = jitter = 0 row matches the fault-free
// dd-police row bit for bit; rising loss monotonically raises timeouts,
// retries and misjudgments; jitter beyond the 5 s collect timeout converts
// valid replies into late ones.

#include <algorithm>

#include "bench_common.hpp"
#include "experiments/extensions.hpp"

int main(int argc, char** argv) {
  using namespace ddp;
  auto run = bench::begin(argc, argv, "bench_fault_ablation — DD-POLICE on a lossy wire",
                          "robustness extension (control-plane loss x jitter "
                          "sweep with timeout/retry)");
  const std::size_t agents = std::min<std::size_t>(100, run.scale.peers / 10);
  const std::vector<double> losses{0.0, 0.1, 0.3, 0.5};
  const std::vector<double> jitters{0.0, 4.0};
  const auto sweep = experiments::run_study(
      experiments::fault_ablation(agents, losses, jitters), run.scale,
      run.seed);
  bench::finish(run, sweep.table(),
                "detection quality vs control-plane degradation",
                "fault_ablation");
  return 0;
}
