/// \file ddptestbed.cpp
/// Planner and report aggregator for the multi-process localhost testbed.
///
///   ddptestbed plan peers=100 attackers=3 [model=ba|waxman|er|two-tier|
///       hard-cutoff] [links=3] [port_base=42000] [minute_seconds=0.5]
///       [duration_min=6] [query_rate=2] [hit_prob=0.05] [ttl=5]
///       [attack_rate=2000] [attack_start=1] [warning=500] [ct=5] [q=100]
///       [suppression_s=5] [collect_s=5] [exchange_min=2] [seed=1] [out=...]
///
/// writes a plan file: '#' metadata lines plus one ddpnode argument line
/// per node. scripts/testbed.sh launches one ddpnode per line. A setting
/// a node line could not start with exits 2 before the plan is written.
///
///   ddptestbed report dir=results/testbed [attack_start=1]
///       [csv=results/testbed_report.csv] [strict=0]
///
/// folds the per-node JSONL traces in `dir` (ddpnode trace=) into
/// detection-latency and cut-correctness numbers. strict=1 exits nonzero
/// unless every attacker was cut and no honest peer was (the check.sh
/// --net gate).

#include <fstream>
#include <iostream>
#include <string>

#include "core/config.hpp"
#include "experiments/testbed.hpp"
#include "netengine/node.hpp"
#include "topology/generators.hpp"
#include "util/config.hpp"

namespace {

int usage() {
  std::cerr << "usage: ddptestbed plan|report key=value...\n"
               "  (see the header comment of examples/ddptestbed.cpp)\n";
  return 2;
}

int run_plan(ddp::util::Options& opt) {
  using namespace ddp::experiments;
  // The generator needs more peers than links per joining peer, and every
  // planned port (port_base + index), the TTL and the minute length must be
  // valid for ddpnode.
  TestbedConfig cfg;
  cfg.links_per_node = opt.get("links", cfg.links_per_node, 1);
  cfg.port_base = opt.get("port_base", cfg.port_base, 1, 65535);
  cfg.peers = opt.get("peers", cfg.peers, cfg.links_per_node + 1,
                      std::size_t{65536} - cfg.port_base);
  cfg.attackers = opt.get("attackers", cfg.attackers);
  cfg.model = opt.get("model", cfg.model, ddp::topology::model_name);
  cfg.minute_seconds = opt.get("minute_seconds", cfg.minute_seconds,
                               ddp::netengine::kMinMinuteSeconds, 86400.0);
  cfg.duration_minutes = opt.get("duration_min", cfg.duration_minutes);
  cfg.query_rate_per_minute = opt.get("query_rate", cfg.query_rate_per_minute);
  cfg.hit_probability = opt.get("hit_prob", cfg.hit_probability);
  cfg.ttl = opt.get("ttl", cfg.ttl, 1, 255);
  cfg.attack_rate_per_minute =
      opt.get("attack_rate", cfg.attack_rate_per_minute);
  cfg.attack_start_minute = opt.get("attack_start", cfg.attack_start_minute);
  cfg.ddp.warning_threshold = opt.get("warning", cfg.ddp.warning_threshold);
  cfg.ddp.cut_threshold = opt.get("ct", cfg.ddp.cut_threshold);
  cfg.ddp.good_issue_bound = opt.get("q", cfg.ddp.good_issue_bound);
  cfg.ddp.suppression_window_seconds =
      opt.get("suppression_s", cfg.ddp.suppression_window_seconds);
  cfg.ddp.collect_timeout_seconds =
      opt.get("collect_s", cfg.ddp.collect_timeout_seconds);
  cfg.ddp.exchange_period_minutes =
      opt.get("exchange_min", cfg.ddp.exchange_period_minutes);
  cfg.seed = opt.get("seed", cfg.seed);
  const std::string out_path = opt.get("out", std::string{});

  const std::string err = opt.error();
  if (ddp::util::refuse("ddptestbed",
                        err.empty() ? ddp::core::validate(cfg.ddp) : err)) {
    return 2;
  }

  const TestbedPlan plan = make_plan(cfg);
  if (out_path.empty()) {
    write_plan(plan, std::cout);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "ddptestbed: cannot write " << out_path << "\n";
      return 1;
    }
    write_plan(plan, out);
    std::cerr << "plan: " << plan.nodes.size() << " nodes -> " << out_path
              << "\n";
  }
  return 0;
}

int run_report(ddp::util::Options& opt) {
  using namespace ddp::experiments;
  const std::string dir = opt.get("dir", std::string{});
  const double attack_start = opt.get("attack_start", 1.0);
  const std::string csv_path = opt.get("csv", std::string{});
  const bool strict = opt.get("strict", false);
  if (ddp::util::refuse("ddptestbed", opt.error())) return 2;
  if (dir.empty()) return usage();

  const TestbedReport report = aggregate_traces(dir);
  print_report(report, attack_start, std::cout);

  if (!csv_path.empty()) {
    std::ofstream csv(csv_path);
    if (!csv) {
      std::cerr << "ddptestbed: cannot write " << csv_path << "\n";
      return 1;
    }
    write_report_csv(report, attack_start, csv);
  }

  if (strict) {
    if (report.nodes_reporting == 0) {
      std::cerr << "STRICT FAIL: no node traces\n";
      return 1;
    }
    if (report.attackers_cut < report.attackers) {
      std::cerr << "STRICT FAIL: only " << report.attackers_cut << "/"
                << report.attackers << " attackers cut\n";
      return 1;
    }
    if (report.honest_cut != 0) {
      std::cerr << "STRICT FAIL: " << report.honest_cut
                << " honest peer(s) cut\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  ddp::util::Options opt(argc - 1, argv + 1);
  if (mode == "plan") return run_plan(opt);
  if (mode == "report") return run_report(opt);
  return usage();
}
