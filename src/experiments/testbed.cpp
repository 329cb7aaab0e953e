#include "experiments/testbed.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>

#include "net/address.hpp"
#include "net/bytes.hpp"
#include "obs/trace_read.hpp"
#include "util/rng.hpp"

namespace ddp::experiments {

TestbedPlan make_plan(const TestbedConfig& config) {
  TestbedPlan plan;
  plan.config = config;

  util::Rng rng(config.seed, /*stream=*/0x7e57bedull);
  topology::GeneratorConfig gen;
  gen.model = config.model;
  gen.nodes = config.peers;
  gen.ba_links_per_node = config.links_per_node;
  const topology::Graph graph = topology::generate(gen, rng);

  // Attacker cohort: uniform without replacement (Fisher-Yates prefix).
  std::vector<std::uint32_t> order(config.peers);
  for (std::uint32_t i = 0; i < config.peers; ++i) order[i] = i;
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    const auto j =
        i + rng.below(static_cast<std::uint32_t>(order.size() - i));
    std::swap(order[i], order[j]);
  }
  std::set<std::uint32_t> cohort(
      order.begin(),
      order.begin() + static_cast<std::ptrdiff_t>(
                          std::min(config.attackers, config.peers)));

  plan.nodes.resize(config.peers);
  for (std::uint32_t i = 0; i < config.peers; ++i) {
    NodePlan& n = plan.nodes[i];
    n.index = i;
    n.port = static_cast<std::uint16_t>(config.port_base + i);
    n.attacker = cohort.count(i) != 0;
    n.planned_degree = graph.degree(i);
    // Each undirected edge is dialed once, by its higher-index endpoint,
    // so the realised overlay equals the generated graph.
    for (const PeerId nb : graph.neighbors(i)) {
      if (nb < i) {
        n.bootstrap.push_back(
            static_cast<std::uint16_t>(config.port_base + nb));
      }
    }
    std::sort(n.bootstrap.begin(), n.bootstrap.end());
  }
  return plan;
}

void write_plan(const TestbedPlan& plan, std::ostream& out) {
  const TestbedConfig& c = plan.config;
  out << "# ddp testbed plan\n";
  out << "# peers=" << c.peers << " attackers=" << c.attackers
      << " seed=" << c.seed << " port_base=" << c.port_base
      << " minute_seconds=" << c.minute_seconds
      << " duration_min=" << c.duration_minutes
      << " attack_start=" << c.attack_start_minute << "\n";
  for (const NodePlan& n : plan.nodes) {
    out << "index=" << n.index << " port=" << n.port;
    out << " bootstrap=";
    for (std::size_t i = 0; i < n.bootstrap.size(); ++i) {
      if (i != 0) out << ',';
      out << n.bootstrap[i];
    }
    out << " port_base=" << c.port_base << " ttl=" << unsigned(c.ttl)
        << " query_rate=" << c.query_rate_per_minute
        << " hit_prob=" << c.hit_probability
        << " attacker=" << (n.attacker ? 1 : 0)
        << " attack_rate=" << c.attack_rate_per_minute
        << " attack_start=" << c.attack_start_minute
        << " minute_seconds=" << c.minute_seconds
        << " duration_min=" << c.duration_minutes
        << " warning=" << c.ddp.warning_threshold
        << " ct=" << c.ddp.cut_threshold << " q=" << c.ddp.good_issue_bound
        << " capacity=" << c.ddp.capacity_bound_per_minute
        << " suppression_s=" << c.ddp.suppression_window_seconds
        << " collect_s=" << c.ddp.collect_timeout_seconds
        << " exchange_min=" << c.ddp.exchange_period_minutes
        << " seed=" << (c.seed + n.index) << "\n";
  }
}

TestbedReport aggregate_traces(const std::string& trace_dir) {
  TestbedReport report;
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(trace_dir, ec)) {
    if (entry.path().extension() == ".jsonl") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());

  std::set<std::string> attackers;  // agent_activated addresses
  for (const auto& path : files) {
    std::ifstream in(path);
    for (const obs::TraceRecord& r : obs::read_trace_records(in)) {
      if (!r.known) continue;
      const auto total = [&r](const char* key) {
        return static_cast<std::uint64_t>(r.field(key).value_or(0.0));
      };
      switch (*r.known) {
        case obs::EventType::kPeerJoined:
          ++report.nodes_reporting;
          break;
        case obs::EventType::kAgentActivated:
          attackers.insert(net::ipv4_to_string(r.a));
          break;
        case obs::EventType::kPeerLeft:
          ++report.finals_reporting;
          report.total_issued += total("issued");
          report.total_forwarded += total("forwarded");
          report.total_hits += total("hits");
          break;
        case obs::EventType::kSuspectCut: {
          CutEvent e;
          e.judge_index = net::peer_from_address(r.b);
          e.suspect = net::ipv4_to_string(r.a);
          e.minute = to_minutes(r.t);
          e.g = r.field("g").value_or(0.0);
          e.s = r.field("s").value_or(0.0);
          report.cuts.push_back(std::move(e));
          break;
        }
        default:
          break;
      }
    }
  }
  report.attackers = attackers.size();
  std::stable_sort(report.cuts.begin(), report.cuts.end(),
                   [](const CutEvent& a, const CutEvent& b) {
                     return a.minute < b.minute;
                   });

  std::map<std::string, double> first_cut;  // attacker address -> minute
  std::set<std::string> honest_suspects;
  for (CutEvent& e : report.cuts) {
    e.suspect_is_attacker = attackers.count(e.suspect) != 0;
    if (e.suspect_is_attacker) {
      first_cut.try_emplace(e.suspect, e.minute);  // cuts are in minute order
    } else {
      honest_suspects.insert(e.suspect);
    }
  }

  report.attackers_cut = first_cut.size();
  report.honest_cut = honest_suspects.size();
  if (!first_cut.empty()) {
    double sum = 0.0, first = 1e300;
    for (const auto& [addr, minute] : first_cut) {
      sum += minute;
      first = std::min(first, minute);
    }
    report.first_detection_minute = first;
    report.mean_detection_minute = sum / double(first_cut.size());
  }
  return report;
}

void write_report_csv(const TestbedReport& report, double attack_start_minute,
                      std::ostream& out) {
  out << "minute,judge,suspect,suspect_is_attacker,g,s\n";
  for (const CutEvent& e : report.cuts) {
    out << e.minute << ',' << e.judge_index << ',' << e.suspect << ','
        << (e.suspect_is_attacker ? 1 : 0) << ',' << e.g << ',' << e.s
        << "\n";
  }
  out << "# nodes=" << report.nodes_reporting
      << " attackers=" << report.attackers << " attackers_cut="
      << report.attackers_cut << " honest_cut=" << report.honest_cut
      << " first_detection_min=" << report.first_detection_minute
      << " mean_detection_min=" << report.mean_detection_minute
      << " detection_latency_min="
      << (report.first_detection_minute < 0
              ? -1.0
              : report.first_detection_minute - attack_start_minute)
      << "\n";
}

void print_report(const TestbedReport& report, double attack_start_minute,
                  std::ostream& out) {
  out << "nodes_reporting=" << report.nodes_reporting
      << " finals=" << report.finals_reporting << "\n";
  out << "attackers=" << report.attackers << " attackers_cut="
      << report.attackers_cut << " honest_cut=" << report.honest_cut
      << " cut_events=" << report.cuts.size() << "\n";
  if (report.first_detection_minute >= 0) {
    out << "first_detection_minute=" << report.first_detection_minute
        << " mean_detection_minute=" << report.mean_detection_minute
        << " detection_latency_minutes="
        << report.first_detection_minute - attack_start_minute << "\n";
  } else {
    out << "first_detection_minute=-1 (no attacker cut)\n";
  }
  out << "issued=" << report.total_issued
      << " forwarded=" << report.total_forwarded
      << " hits=" << report.total_hits << "\n";
}

}  // namespace ddp::experiments
