#pragma once

/// \file testbed.hpp
/// Multi-process localhost testbed: planning and trace folding for the
/// real-socket deployment mode (src/netengine).
///
/// The testbed reproduces the paper's LimeWire micro-experiment at
/// adjustable scale: N real ddpnode processes on 127.0.0.1, wired into a
/// generated overlay, with an attacker cohort that starts flooding at a
/// known protocol minute. This module is deliberately engine-free — it
/// only *plans* the run (which process listens where, who dials whom,
/// who is compromised) and *folds* the JSONL event traces the node
/// processes write (the obs schema, docs/observability.md), so it lives
/// in ddp_experiments and is usable from both the ddptestbed CLI and the
/// check.sh --net gate.
///
/// Plan file format: '#'-prefixed metadata lines followed by one
/// "key=value ..." argument line per node, consumable verbatim as a
/// ddpnode command line (scripts/testbed.sh does exactly that).

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "topology/generators.hpp"

namespace ddp::experiments {

struct TestbedConfig {
  std::size_t peers = 100;
  std::size_t attackers = 3;

  /// Overlay shape (BA by default — the paper's evaluation family).
  topology::Model model = topology::Model::kBarabasiAlbert;
  std::size_t links_per_node = 3;

  /// Transport plan: node i listens on port_base + i.
  std::uint16_t port_base = 42000;

  /// Wall seconds per protocol minute (testbed acceleration) and run
  /// length in protocol minutes.
  double minute_seconds = 0.5;
  double duration_minutes = 6.0;

  double query_rate_per_minute = 2.0;
  double hit_probability = 0.05;
  std::uint8_t ttl = 5;

  double attack_rate_per_minute = 2000.0;
  double attack_start_minute = 1.0;

  core::DdPoliceConfig ddp{};
  std::uint64_t seed = 1;
};

struct NodePlan {
  std::uint32_t index = 0;
  std::uint16_t port = 0;
  bool attacker = false;
  /// Ports this node dials at startup. Each overlay edge is dialed by
  /// exactly one endpoint (the higher index), so the realised topology
  /// matches the generated graph without duplicate links.
  std::vector<std::uint16_t> bootstrap;
  std::size_t planned_degree = 0;
};

struct TestbedPlan {
  TestbedConfig config;
  std::vector<NodePlan> nodes;
};

/// Generate the overlay, pick the attacker cohort (uniformly, seeded),
/// and assign ports and dial directions.
TestbedPlan make_plan(const TestbedConfig& config);

/// Render the plan in the plan-file format described above.
void write_plan(const TestbedPlan& plan, std::ostream& out);

/// One judge->suspect disconnect: a suspect_cut event in a node trace.
struct CutEvent {
  std::uint32_t judge_index = 0;
  std::string suspect;  ///< overlay address, dotted quad
  double minute = 0.0;  ///< the judge's protocol minute (t / 60)
  double g = 0.0;
  double s = 0.0;
  bool suspect_is_attacker = false;
};

/// Aggregated outcome of one testbed run (from a directory of per-node
/// JSONL traces).
struct TestbedReport {
  std::size_t nodes_reporting = 0;  ///< peer_joined events
  std::size_t finals_reporting = 0; ///< peer_left events
  std::size_t attackers = 0;        ///< distinct agent_activated peers
  std::size_t attackers_cut = 0;    ///< attackers cut by >= 1 judge
  std::size_t honest_cut = 0;       ///< distinct honest peers cut (FPs)
  /// Minute order; cuts in the same minute keep file (then line) order.
  std::vector<CutEvent> cuts;

  /// Earliest cut of any attacker, protocol minutes (-1 = none).
  double first_detection_minute = -1.0;
  /// Mean over attackers of their first cut minute (cut attackers only).
  double mean_detection_minute = -1.0;

  /// Sums over the peer_left events.
  std::uint64_t total_issued = 0;
  std::uint64_t total_forwarded = 0;
  std::uint64_t total_hits = 0;
};

/// Fold every *.jsonl trace under `trace_dir`, in file-name order. Lines
/// that do not parse and other files are skipped.
TestbedReport aggregate_traces(const std::string& trace_dir);

/// Per-cut-event CSV (plus a trailing summary comment), for results/.
void write_report_csv(const TestbedReport& report, double attack_start_minute,
                      std::ostream& out);

/// Human/grep-friendly one-screen summary.
void print_report(const TestbedReport& report, double attack_start_minute,
                  std::ostream& out);

}  // namespace ddp::experiments
