/// \file ddpnode.cpp
/// One real DD-POLICE Gnutella peer process. Listens on a TCP port,
/// dials its bootstrap set, floods queries, answers hits, and polices its
/// neighbours with the per-node judge — the deployment-mode counterpart
/// of one simulated servent. scripts/testbed.sh launches hundreds of
/// these against each other on 127.0.0.1.
///
/// Usage (all key=value, defaults in parentheses):
///   ddpnode index=0 port=42000 bootstrap=42001,42002
///       port_base=42000 ttl=5 query_rate=2 hit_prob=0.05
///       attacker=0 attack_rate=2000 attack_start=1
///       minute_seconds=0.5 duration_min=6 police=1 echo_correction=1
///       warning=500 ct=5 q=100 capacity=10000 confirmations=2
///       suppression_s=5 collect_s=5 exchange_min=2
///       stats=results/node0.jsonl seed=1
///
/// duration_min=0 runs until SIGTERM/SIGINT; either way shutdown is
/// orderly (final stats line, every fd closed). Out-of-range settings
/// (port=70000, ttl=0, bootstrap=x, minute_seconds=0, ct=0,
/// confirmations=0, ...) exit 2 before anything starts.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "core/config.hpp"
#include "netengine/node.hpp"
#include "util/config.hpp"

namespace {

/// Comma-separated port list; nullopt unless every entry is a port number
/// in [1, 65535].
std::optional<std::vector<std::uint16_t>> parse_ports(const std::string& csv) {
  std::vector<std::uint16_t> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    const char* first = csv.data() + pos;
    const char* last = csv.data() + comma;
    if (first != last) {
      unsigned port = 0;
      const auto [end, ec] = std::from_chars(first, last, port);
      if (ec != std::errc{} || end != last || port < 1 || port > 65535) {
        return std::nullopt;
      }
      out.push_back(static_cast<std::uint16_t>(port));
    }
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ddp;
  const util::Options opt(argc, argv);

  // Range-check the node's own settings before they narrow: an index
  // outside the 10.0.0.0/8 block would alias another peer's address, and
  // ports and the TTL would wrap to 16 and 8 bits.
  const std::int64_t index = opt.get("index", std::int64_t{0});
  const std::int64_t port = opt.get("port", std::int64_t{0});
  const std::int64_t port_base = opt.get("port_base", std::int64_t{0});
  const std::int64_t ttl = opt.get("ttl", std::int64_t{5});
  const auto bootstrap = parse_ports(opt.get("bootstrap", std::string{}));
  const double minute_seconds = opt.get("minute_seconds", 60.0);
  std::string err;
  if (index < 0 || index > 0xffffff) {
    err = "index must be within [0, 16777215] (the 10.0.0.0/8 block)";
  } else if (port < 0 || port > 65535) {
    err = "port must be within [0, 65535] (0 = any free port)";
  } else if (port_base < 0 || port_base > 65535) {
    err = "port_base must be within [0, 65535]";
  } else if (!bootstrap) {
    err = "bootstrap must list ports within [1, 65535], comma-separated";
  } else if (ttl < 1 || ttl > 255) {
    err = "ttl must be within [1, 255]";
  } else if (!std::isfinite(minute_seconds) || minute_seconds <= 0.0) {
    err = "minute_seconds must be a finite value > 0";
  }

  netengine::NodeConfig cfg;
  cfg.index = static_cast<std::uint32_t>(index);
  cfg.engine.listen_port = static_cast<std::uint16_t>(port);
  if (bootstrap) cfg.bootstrap = *bootstrap;
  cfg.peer_port_base = static_cast<std::uint16_t>(port_base);
  cfg.ttl = static_cast<std::uint8_t>(ttl);
  cfg.query_rate_per_minute = opt.get("query_rate", 2.0);
  cfg.hit_probability = opt.get("hit_prob", 0.05);
  cfg.attacker = opt.get("attacker", false);
  cfg.attack_rate_per_minute = opt.get("attack_rate", 2000.0);
  cfg.attack_start_minute = opt.get("attack_start", 1.0);
  cfg.minute_seconds = minute_seconds;
  cfg.police = opt.get("police", true);
  cfg.echo_correction = opt.get("echo_correction", true);
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
  cfg.ddp.cut_confirmations =
      static_cast<int>(opt.get("confirmations", std::int64_t{2}));
  cfg.stats_path = opt.get("stats", std::string{});
  cfg.seed = static_cast<std::uint64_t>(opt.get("seed", std::int64_t{1}));

  if (err.empty()) err = core::validate(cfg.ddp);
  if (!err.empty()) {
    std::fprintf(stderr, "ddpnode: invalid configuration: %s\n", err.c_str());
    return 2;
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

  const double duration_min = opt.get("duration_min", 0.0);
  if (duration_min > 0) {
    const auto run_ms = static_cast<std::uint64_t>(
        duration_min * cfg.minute_seconds * 1000.0);
    node.engine().timers().schedule(run_ms, [&node] { node.stop(); });
  }
  node.run();
  return 0;
}
