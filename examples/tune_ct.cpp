// Operating-point tuning: sweep the cut threshold CT for *your* overlay's
// parameters and print the error/recovery tradeoff the paper's Figures
// 13-14 study, ending with a recommendation (minimum false judgment,
// ties broken by recovery time).
//
// Usage: tune_ct [peers=500] [agents=25] [minutes=22] [trials=2]
//                [cts=1,3,5,7,9,12] [seed=99]

#include <cstdio>
#include <iostream>
#include <sstream>

#include "experiments/figures.hpp"
#include "util/config.hpp"

int main(int argc, char** argv) {
  using namespace ddp;
  const util::Options opts(argc, argv);
  experiments::Scale scale;
  scale.peers = static_cast<std::size_t>(opts.get("peers", std::int64_t{500}));
  scale.total_minutes = opts.get("minutes", 22.0);
  scale.attack_start = 4.0;
  scale.warmup_minutes = 6.0;
  scale.trials = static_cast<std::uint32_t>(opts.get("trials", std::int64_t{2}));
  const auto agents = static_cast<std::size_t>(opts.get("agents", std::int64_t{25}));
  const auto seed = static_cast<std::uint64_t>(opts.get("seed", std::int64_t{99}));

  std::vector<double> cts;
  {
    std::stringstream ss(opts.get("cts", std::string("1,3,5,7,9,12")));
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      if (!tok.empty()) cts.push_back(std::stod(tok));
    }
  }

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
