// Operating-point tuning: sweep the cut threshold CT for *your* overlay's
// parameters and print the error/recovery tradeoff the paper's Figures
// 13-14 study, ending with a recommendation (minimum false judgment,
// ties broken by recovery time).
//
// Usage: tune_ct [peers=500] [agents=25] [minutes=22] [trials=2]
//                [cts=1,3,5,7,9,12] [seed=99]

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "experiments/figures.hpp"
#include "util/config.hpp"

int main(int argc, char** argv) {
  using namespace ddp;
  util::Options opts(argc, argv);
  experiments::Scale scale;
  scale.peers = opts.get("peers", std::size_t{500});
  scale.total_minutes = opts.get("minutes", 22.0);
  scale.attack_start = 4.0;
  scale.warmup_minutes = 6.0;
  scale.trials = opts.get("trials", scale.trials, 1);
  const auto agents = opts.get("agents", std::size_t{25});
  const auto seed = opts.get("seed", std::uint64_t{99});
  const std::vector<double> cts =
      opts.get("cts", std::vector<double>{1, 3, 5, 7, 9, 12});
  std::string err = opts.error();
  for (const double ct : cts) {
    auto cfg = experiments::scaled_scenario(scale, agents,
                                            defense::Kind::kDdPolice, seed);
    cfg.ddpolice.cut_threshold = ct;
    if (err.empty()) err = experiments::validate_config(cfg);
  }
  if (util::refuse("tune_ct", err)) return 2;

  std::printf("tuning CT for %zu peers under a %zu-agent attack (%u trials)\n",
              scale.peers, agents, scale.trials);
  const auto sweep = experiments::run_study(
      experiments::ct_sweep(cts, agents, /*with_quarantine=*/false), scale,
      seed);

  sweep.table({"false_negative(good cut)", "false_positive(bad missed)",
               "false_judgment"})
      .print(std::cout, "errors vs CT");
  sweep.table({"recovery_time(min)", "detection_time(min)",
               "stabilized_damage(%)"})
      .print(std::cout, "recovery vs CT");

  const auto judgment = [&](std::size_t i) {
    return sweep.value(i, "false_judgment");
  };
  const auto recovery = [&](std::size_t i) {
    return sweep.value(i, "recovery_time(min)");
  };
  std::size_t best = 0;
  for (std::size_t i = 1; i < sweep.rows(); ++i) {
    if (judgment(i) < judgment(best) ||
        (judgment(i) == judgment(best) && recovery(i) < recovery(best))) {
      best = i;
    }
  }
  if (sweep.rows() > 0) {
    std::printf("\nrecommended operating point: CT = %.0f "
                "(false judgment %.1f, recovery %.1f min, stabilized damage %.1f%%)\n",
                cts[best], judgment(best), recovery(best),
                sweep.value(best, "stabilized_damage(%)"));
    std::printf("the paper settles on CT = 5 for its 2,000-peer configuration "
                "(Sec. 3.7.2).\n");
  }
  return 0;
}
