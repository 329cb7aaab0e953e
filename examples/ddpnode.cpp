/// \file ddpnode.cpp
/// One real DD-POLICE Gnutella peer process. Listens on a TCP port,
/// dials its bootstrap set, floods queries, answers hits, and polices its
/// neighbours with the per-node judge — the deployment-mode counterpart
/// of one simulated servent. scripts/testbed.sh launches hundreds of
/// these against each other on 127.0.0.1. Every node polices, and its
/// judge reads echo-corrected Out_query credit (netengine/node.hpp);
/// neither is a setting.
///
/// Usage (all key=value, defaults in parentheses):
///   ddpnode index=0 port=42000 bootstrap=42001,42002
///       port_base=42000 ttl=5 query_rate=2 hit_prob=0.05
///       attacker=0 attack_rate=2000 attack_start=1
///       minute_seconds=0.5 duration_min=6
///       warning=500 ct=5 q=100 capacity=10000 confirmations=2
///       suppression_s=5 collect_s=5 exchange_min=2
///       trace=results/node0.jsonl seed=1
///
/// trace= writes the node's obs event trace (JSONL, the schema ddpsim
/// writes; read it with trace_tool); a path that cannot be opened exits 1
/// before the node listens. duration_min=0 runs until SIGTERM/SIGINT;
/// either way shutdown is orderly (peer_left traced, every fd closed).
/// Settings are read through util::Options, and a key given twice takes
/// its last value. An unknown key, a malformed value (ct=abc) or an
/// out-of-range one (port=70000, ttl=0, bootstrap=x, minute_seconds below
/// 0.1, ct=0, confirmations=0, ...) exits 2 before anything starts.

#include <cstdio>
#include <memory>
#include <string>

#include "core/config.hpp"
#include "netengine/node.hpp"
#include "obs/trace.hpp"
#include "util/config.hpp"

int main(int argc, char** argv) {
  using namespace ddp;
  util::Options opt(argc, argv);

  // Keys fall back to the NodeConfig / DdPoliceConfig defaults. The bounds
  // keep an index inside the 10.0.0.0/8 block (outside it would alias
  // another peer's address), ports and the TTL inside their wire types, and
  // a protocol minute between the timer resolution (1 ms) and a day.
  netengine::NodeConfig cfg;
  cfg.index = opt.get("index", cfg.index, 0, 0xffffff);
  cfg.engine.listen_port = opt.get("port", cfg.engine.listen_port);  // 0 = any
  cfg.bootstrap = opt.get("bootstrap", cfg.bootstrap, 1, 65535);
  cfg.peer_port_base = opt.get("port_base", cfg.peer_port_base);
  cfg.ttl = opt.get("ttl", cfg.ttl, 1, 255);
  cfg.query_rate_per_minute = opt.get("query_rate", cfg.query_rate_per_minute);
  cfg.hit_probability = opt.get("hit_prob", cfg.hit_probability);
  cfg.attacker = opt.get("attacker", cfg.attacker);
  cfg.attack_rate_per_minute =
      opt.get("attack_rate", cfg.attack_rate_per_minute);
  cfg.attack_start_minute = opt.get("attack_start", cfg.attack_start_minute);
  cfg.minute_seconds = opt.get("minute_seconds", cfg.minute_seconds,
                               ddp::netengine::kMinMinuteSeconds, 86400.0);
  cfg.ddp.warning_threshold = opt.get("warning", cfg.ddp.warning_threshold);
  cfg.ddp.cut_threshold = opt.get("ct", cfg.ddp.cut_threshold);
  cfg.ddp.good_issue_bound = opt.get("q", cfg.ddp.good_issue_bound);
  cfg.ddp.capacity_bound_per_minute =
      opt.get("capacity", cfg.ddp.capacity_bound_per_minute);
  cfg.ddp.suppression_window_seconds =
      opt.get("suppression_s", cfg.ddp.suppression_window_seconds);
  cfg.ddp.collect_timeout_seconds =
      opt.get("collect_s", cfg.ddp.collect_timeout_seconds);
  cfg.ddp.exchange_period_minutes =
      opt.get("exchange_min", cfg.ddp.exchange_period_minutes);
  // Deployment default: require a second tripping round before cutting.
  // confirmations=1 restores the paper's first-trip verdict.
  cfg.ddp.cut_confirmations = opt.get("confirmations", 2);
  const std::string trace_path = opt.get("trace", std::string{});
  cfg.seed = opt.get("seed", cfg.seed);
  const double duration_min = opt.get("duration_min", 0.0);

  const std::string err = opt.error();
  if (util::refuse("ddpnode", err.empty() ? core::validate(cfg.ddp) : err)) {
    return 2;
  }

  // Declared before the node, which traces peer_left into it on the way out.
  std::unique_ptr<obs::JsonlFileSink> trace_sink;
  if (!trace_path.empty()) {
    trace_sink = std::make_unique<obs::JsonlFileSink>(trace_path);
    if (!trace_sink->ok()) {
      std::fprintf(stderr, "ddpnode: cannot open trace file %s\n",
                   trace_path.c_str());
      return 1;
    }
    cfg.trace_sink = trace_sink.get();
  }

  netengine::Node node(cfg);
  if (!node.start()) {
    std::fprintf(stderr, "ddpnode: cannot listen on port %u\n",
                 unsigned(cfg.engine.listen_port));
    return 1;
  }
  if (!node.engine().install_signal_handlers()) {
    std::fprintf(stderr, "ddpnode: signalfd setup failed\n");
    return 1;
  }

  if (duration_min > 0) {
    const auto run_ms = static_cast<std::uint64_t>(
        duration_min * cfg.minute_seconds * 1000.0);
    node.engine().timers().schedule(run_ms, [&node] { node.stop(); });
  }
  node.run();
  return 0;
}
