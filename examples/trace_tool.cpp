// Trace tooling. Two families of traces flow through here:
//
//  * workload query traces — generate a synthetic Gnutella-style query
//    trace (the stand-in for the paper's 24 h / 13M-query capture) or
//    analyze an existing one;
//  * simulation event traces — the JSONL streams written by the obs layer
//    (ddpsim trace=run.jsonl): filter them, summarize the defense
//    storyline, or schema-validate them.
//
// Usage:
//   trace_tool gen  out=trace.log [count=100000] [rate=151.3] [vocab=50000] [seed=1]
//   trace_tool stats in=trace.log
//   trace_tool flood out=flood.jsonl [peers=200] [queries=20] [ttl=7] [seed=1]
//   trace_tool inspect  in=run.jsonl [peer=N] [type=suspect_cut] [tmin=S] [tmax=S] [limit=50]
//   trace_tool summary  in=run.jsonl
//   trace_tool validate in=run.jsonl
//   trace_tool tree     in=run.jsonl query=ID [limit=200]
//   trace_tool forensics in=run.jsonl [csv=out.csv] [json=out.json]
// A key the mode does not read or a malformed value exits 2 before any file
// is opened.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "obs/forensics.hpp"
#include "obs/trace_read.hpp"
#include "p2p/network.hpp"
#include "topology/generators.hpp"
#include "util/config.hpp"
#include "workload/trace.hpp"

namespace {

// Depth-first ASCII rendering of one flood-tree subtree; `budget` caps the
// number of printed nodes so a 2,000-peer flood stays readable.
void print_subtree(const ddp::obs::FloodTree& tree, std::size_t node,
                   const std::string& prefix, bool last, std::size_t& budget) {
  if (budget == 0) return;
  --budget;
  const auto& n = tree.nodes[node];
  std::printf("%s%s%u", prefix.c_str(),
              node == 0 ? "" : (last ? "`-- " : "|-- "), n.peer);
  if (n.hit) std::printf(" [hit]");
  if (n.expired) std::printf(" [ttl-expired]");
  if (n.first_t >= 0.0) std::printf("  t=%.2f", n.first_t);
  std::printf("\n");
  const std::string child_prefix =
      node == 0 ? prefix : prefix + (last ? "    " : "|   ");
  for (std::size_t i = 0; i < n.children.size(); ++i) {
    print_subtree(tree, n.children[i], child_prefix,
                  i + 1 == n.children.size(), budget);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ddp;
  util::Options opts(argc, argv);
  const std::string mode = opts.positional(0, "gen");

  if (mode == "gen") {
    workload::TraceConfig cfg;
    cfg.queries_per_second = opts.get("rate", cfg.queries_per_second);
    cfg.vocabulary = opts.get("vocab", cfg.vocabulary, 1);
    const auto count = opts.get("count", std::size_t{100000});
    const auto seed = opts.get("seed", std::uint64_t{1});
    const std::string out = opts.get("out", std::string("trace.log"));
    if (util::refuse("trace_tool", opts.error())) return 2;

    workload::TraceGenerator gen(cfg);
    util::Rng rng(seed);
    const auto records = gen.generate(count, rng);
    std::ofstream f(out);
    if (!f) {
      std::fprintf(stderr, "cannot open %s for writing\n", out.c_str());
      return 1;
    }
    workload::write_trace(f, records);
    std::printf("wrote %zu records to %s (%.1f simulated seconds)\n",
                records.size(), out.c_str(),
                records.empty() ? 0.0 : records.back().timestamp);
    return 0;
  }

  if (mode == "flood") {
    // A traced packet-engine run: flood a paper-shaped overlay with a few
    // queries and write the packet-layer JSONL — the input `tree` expects.
    // paper_topology attaches 3 links per joining peer, so it needs 4.
    const PeerId peers = opts.get("peers", PeerId{200}, 4);
    const auto queries = opts.get("queries", std::size_t{20});
    const auto seed = opts.get("seed", std::uint64_t{1});
    const std::string out = opts.get("out", std::string("flood.jsonl"));
    p2p::P2pConfig cfg;
    cfg.ttl = opts.get("ttl", cfg.ttl, 1, 255);
    if (util::refuse("trace_tool", opts.error())) return 2;

    util::Rng rng(seed);
    topology::Graph graph = topology::paper_topology(peers, rng);
    workload::ContentConfig cc;
    const workload::ContentModel content(cc, peers);
    sim::Engine engine;
    p2p::PacketNetwork net(graph, content, engine, cfg, util::Rng(seed));
    obs::JsonlFileSink sink(out);
    if (!sink.ok()) {
      std::fprintf(stderr, "cannot open %s for writing\n", out.c_str());
      return 1;
    }
    net.set_trace_sink(&sink);
    for (std::size_t i = 0; i < queries; ++i) {
      net.issue_random_query(static_cast<PeerId>(i % peers));
    }
    // Long enough for every flood to run to TTL exhaustion and every hit
    // to route back (ttl hops out + ttl hops back, plus queueing slack).
    engine.run_until(2.0 * cfg.ttl * cfg.hop_latency + 60.0);
    sink.flush();
    std::printf("wrote %llu events to %s (%u peers, queries 1..%zu; "
                "try: trace_tool tree in=%s query=1)\n",
                static_cast<unsigned long long>(sink.lines()), out.c_str(),
                peers, queries, out.c_str());
    return 0;
  }

  if (mode == "stats") {
    const std::string in = opts.get("in", std::string("trace.log"));
    if (util::refuse("trace_tool", opts.error())) return 2;
    std::ifstream f(in);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", in.c_str());
      return 1;
    }
    const auto records = workload::read_trace(f);
    const auto stats = workload::analyze_trace(records);
    std::printf("trace %s:\n", in.c_str());
    std::printf("  records           %zu\n", stats.records);
    std::printf("  unique queries    %zu\n", stats.unique_queries);
    std::printf("  duration          %.1f s\n", stats.duration_seconds);
    std::printf("  mean query size   %.1f bytes\n", stats.mean_query_bytes);
    std::printf("  top-10 share      %.2f%%\n", stats.top10_share * 100.0);
    std::printf("(the paper's capture: 13,075,339 queries / 112 MB / 24 h)\n");
    return 0;
  }

  if (mode == "inspect" || mode == "summary" || mode == "validate" ||
      mode == "tree" || mode == "forensics") {
    const std::string in = opts.get("in", std::string("run.jsonl"));

    // Every key of the mode is read before the trace is opened.
    std::string query;
    std::size_t limit = 0;
    obs::TraceFilter filter;
    std::string type, csv, json;
    if (mode == "tree") {
      // Query id: query= or a second positional (trace_tool tree 7 in=...).
      query = opts.get("query", opts.positional(1));
      limit = opts.get("limit", std::size_t{200});
    } else if (mode == "inspect") {
      const PeerId peer = opts.get("peer", kInvalidPeer);
      if (peer != kInvalidPeer) filter.peer = peer;
      type = opts.get("type", std::string());
      filter.t_min = opts.get("tmin", filter.t_min);
      filter.t_max = opts.get("tmax", filter.t_max);
      limit = opts.get("limit", std::size_t{50});
    } else if (mode == "forensics") {
      csv = opts.get("csv", std::string("-"));
      json = opts.get("json", std::string("-"));
    }
    if (util::refuse("trace_tool", opts.error())) return 2;
    if (!type.empty()) {
      const auto known = obs::event_from_name(type);
      if (!known) {
        std::fprintf(stderr, "unknown event type '%s'\n", type.c_str());
        return 2;
      }
      filter.type = known;
    }
    const std::optional<QueryId> id = util::parse<QueryId>(query);
    if (mode == "tree" && !id) {  // also when neither form gave an id
      util::refuse("trace_tool",
                   util::rejection("query",
                                   "an integer id from query_issued events",
                                   query));
      return 2;
    }

    std::ifstream f(in);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", in.c_str());
      return 1;
    }

    if (mode == "validate") {
      std::vector<obs::SchemaError> errors;
      const auto records = obs::validate_trace(f, errors);
      for (const auto& e : errors) {
        std::fprintf(stderr, "%s:%zu: %s\n", in.c_str(), e.line,
                     e.message.c_str());
      }
      if (!errors.empty()) {
        std::printf("%s: INVALID (%zu schema error%s, %zu lines parsed)\n",
                    in.c_str(), errors.size(), errors.size() == 1 ? "" : "s",
                    records.size());
        return 1;
      }
      if (records.empty()) {
        // An empty trace is never what a run produces; treat it as a
        // failed capture rather than a vacuous pass.
        std::printf("%s: INVALID (no events)\n", in.c_str());
        return 1;
      }
      std::printf("%s: OK (%zu events, schema-valid)\n", in.c_str(),
                  records.size());
      return 0;
    }

    const auto records = obs::read_trace_records(f);

    if (mode == "tree") {
      const obs::FloodTree tree = obs::build_flood_tree(records, *id);
      if (!tree.found) {
        std::printf("query %llu: no events in %s\n",
                    static_cast<unsigned long long>(*id), in.c_str());
        return 1;
      }
      std::printf("query %llu: origin %u, issued t=%.2f, %s\n",
                  static_cast<unsigned long long>(*id), tree.origin,
                  tree.issued_t,
                  tree.attack ? "attack" : "good");
      std::printf("  %zu peers reached, depth %u, %llu forwards, %llu "
                  "duplicates, %llu queue drops\n",
                  tree.nodes.size(), tree.depth,
                  static_cast<unsigned long long>(tree.forwards),
                  static_cast<unsigned long long>(tree.duplicates),
                  static_cast<unsigned long long>(tree.drops));
      std::printf("  %llu hits, %llu delivered",
                  static_cast<unsigned long long>(tree.hits),
                  static_cast<unsigned long long>(tree.delivered));
      if (tree.first_delivery_latency >= 0.0) {
        std::printf(", first delivery after %.2f s", tree.first_delivery_latency);
      }
      std::printf("\n");
      if (!tree.nodes.empty()) {
        std::size_t budget = limit;
        const std::size_t total = tree.nodes.size();
        print_subtree(tree, 0, "  ", true, budget);
        if (budget == 0 && total > 0) {
          std::printf("  ... (tree truncated; raise limit=)\n");
        }
      }
      return 0;
    }

    if (mode == "forensics") {
      obs::ForensicsAccumulator acc;
      for (const auto& r : records) acc.add(r);
      std::printf("%s", acc.summary().c_str());
      if (csv != "-") {
        if (!acc.write_csv(csv)) {
          std::fprintf(stderr, "cannot write %s\n", csv.c_str());
          return 1;
        }
        std::printf("wrote %s\n", csv.c_str());
      }
      if (json != "-") {
        if (!acc.write_json(json)) {
          std::fprintf(stderr, "cannot write %s\n", json.c_str());
          return 1;
        }
        std::printf("wrote %s\n", json.c_str());
      }
      return 0;
    }

    if (mode == "summary") {
      const obs::TraceSummary s = obs::summarize_trace(records);
      std::printf("trace %s: %llu events, t %.1f..%.1f s\n", in.c_str(),
                  static_cast<unsigned long long>(s.records), s.first_t,
                  s.last_t);
      if (s.wall_logs > 0) {
        std::printf("  (+%llu wall-layer log lines, excluded from the time "
                    "range)\n",
                    static_cast<unsigned long long>(s.wall_logs));
      }
      std::printf("  by type:\n");
      for (std::size_t i = 0; i < obs::kEventTypeCount; ++i) {
        if (s.by_type[i] == 0) continue;
        std::printf("    %-18s %llu\n",
                    obs::event_name(static_cast<obs::EventType>(i)),
                    static_cast<unsigned long long>(s.by_type[i]));
      }
      if (s.unknown_types > 0) {
        std::printf("    (unknown types)    %llu\n",
                    static_cast<unsigned long long>(s.unknown_types));
      }
      std::printf("  defense: %llu suspects flagged, %llu cut, %llu list "
                  "violations",
                  static_cast<unsigned long long>(s.suspects_flagged),
                  static_cast<unsigned long long>(s.suspects_cut),
                  static_cast<unsigned long long>(s.list_violations));
      if (s.mean_flag_to_cut_minutes >= 0.0) {
        std::printf(", mean flag-to-cut %.2f min", s.mean_flag_to_cut_minutes);
      }
      std::printf("\n");
      if (s.fault_events > 0 || s.control_timeouts > 0 ||
          s.control_retries > 0) {
        std::printf("  faults: %llu fault events, %llu control timeouts, "
                    "%llu retries\n",
                    static_cast<unsigned long long>(s.fault_events),
                    static_cast<unsigned long long>(s.control_timeouts),
                    static_cast<unsigned long long>(s.control_retries));
      }
      return 0;
    }

    // inspect: filter and print matching events.
    std::size_t matched = 0, printed = 0;
    for (const auto& r : records) {
      if (!filter.matches(r)) continue;
      ++matched;
      if (printed >= limit) continue;
      ++printed;
      std::printf("t=%-9.2f %-18s", r.t, r.type.c_str());
      if (r.a != kInvalidPeer) std::printf(" a=%u", r.a);
      if (r.b != kInvalidPeer) std::printf(" b=%u", r.b);
      for (const auto& [k, v] : r.kv) std::printf(" %s=%g", k.c_str(), v);
      if (!r.note.empty()) std::printf(" note=\"%s\"", r.note.c_str());
      std::printf("\n");
    }
    std::printf("%zu of %zu events matched", matched, records.size());
    if (matched > printed) std::printf(" (%zu shown; raise limit=)", printed);
    std::printf("\n");
    return 0;
  }

  std::fprintf(stderr,
               "usage: trace_tool gen|stats|flood|inspect|summary|validate|"
               "tree|forensics [key=value ...]\n");
  return 2;
}
