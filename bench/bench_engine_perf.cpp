// Engine micro-benchmarks (google-benchmark): event-queue throughput,
// wire codec speed, flood propagation rate in both engines, coverage
// profiling and the DD-POLICE indicator computation. These quantify the
// simulator itself, not the paper's results.
//
// Besides the google-benchmark console table, the binary runs a fixed
// headline pass and writes machine-readable BENCH_engine.json (and .csv)
// into --out-dir [results/]: events/sec, ns/event, queries/sec, wall
// time, jobs — one file per run, so the perf trajectory is diffable
// across PRs. `--headline-only` skips the google-benchmark suite.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/ddpolice.hpp"
#include "flow/flow_port.hpp"
#include "core/indicators.hpp"
#include "flow/network.hpp"
#include "net/message.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "p2p/network.hpp"
#include "sim/engine.hpp"
#include "topology/coverage.hpp"
#include "topology/generators.hpp"

namespace {

using namespace ddp;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine e;
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < n; ++i) {
      e.schedule_at(static_cast<double>((i * 7919) % 1000),
                    [&sink] { ++sink; });
    }
    e.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_MessageEncodeDecode(benchmark::State& state) {
  util::Rng rng(1);
  net::Message m;
  m.header.guid = net::Guid::random(rng);
  m.payload = net::NeighborTraffic{1, 2, 3, 20000, 312};
  for (auto _ : state) {
    const auto bytes = net::encode(m);
    auto out = net::decode(bytes);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MessageEncodeDecode);

void BM_FloodCoverage(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  const topology::Graph g = topology::paper_topology(n, rng);
  for (auto _ : state) {
    auto p = topology::flood_coverage(g, 0, 7);
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FloodCoverage)->Arg(500)->Arg(2000);

void BM_PacketEngineFlood(benchmark::State& state) {
  // One full TTL-7 flood through a 200-peer overlay, message granularity.
  util::Rng rng(3);
  topology::Graph g = topology::paper_topology(200, rng);
  workload::ContentConfig cc;
  const workload::ContentModel content(cc, 200);
  std::uint64_t messages = 0;
  for (auto _ : state) {
    sim::Engine engine;
    p2p::P2pConfig cfg;
    p2p::PacketNetwork net(g, content, engine, cfg, util::Rng(4));
    net.issue_query(0, 1);
    engine.run_until(60.0);
    messages += net.totals().messages_sent;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(messages));
  state.counters["msgs/flood"] =
      static_cast<double>(messages) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_PacketEngineFlood);

void BM_PacketEngineFloodProfiled(benchmark::State& state) {
  // Same flood with an EngineProfiler attached: the delta vs
  // BM_PacketEngineFlood is the cost of per-dispatch wall-clock sampling.
  util::Rng rng(3);
  topology::Graph g = topology::paper_topology(200, rng);
  workload::ContentConfig cc;
  const workload::ContentModel content(cc, 200);
  obs::EngineProfiler profiler;
  for (auto _ : state) {
    sim::Engine engine;
    engine.set_profiler(&profiler);
    p2p::P2pConfig cfg;
    p2p::PacketNetwork net(g, content, engine, cfg, util::Rng(4));
    net.issue_query(0, 1);
    engine.run_until(60.0);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(profiler.total_events()));
  state.counters["transmit_mean_us"] =
      profiler.stats(obs::EventCategory::kTransmit).mean_us();
  state.counters["service_mean_us"] =
      profiler.stats(obs::EventCategory::kService).mean_us();
  state.counters["max_pending"] = static_cast<double>(profiler.max_pending());
}
BENCHMARK(BM_PacketEngineFloodProfiled);

void BM_PacketEngineFloodTraced(benchmark::State& state) {
  // Same flood with a ring-buffer trace sink bound: the delta vs
  // BM_PacketEngineFlood is the full tracing cost (event build + store).
  util::Rng rng(3);
  topology::Graph g = topology::paper_topology(200, rng);
  workload::ContentConfig cc;
  const workload::ContentModel content(cc, 200);
  obs::RingBufferSink sink(4096);
  for (auto _ : state) {
    sim::Engine engine;
    p2p::P2pConfig cfg;
    p2p::PacketNetwork net(g, content, engine, cfg, util::Rng(4));
    net.set_trace_sink(&sink);
    net.issue_query(0, 1);
    engine.run_until(60.0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sink.total()));
  state.counters["events/flood"] = static_cast<double>(sink.total()) /
                                   static_cast<double>(state.iterations());
}
BENCHMARK(BM_PacketEngineFloodTraced);

void BM_TraceEventSerialize(benchmark::State& state) {
  // JSONL serialization throughput of one fully-populated event.
  obs::TraceEvent e;
  e.t = 123.456;
  e.type = obs::EventType::kIndicatorComputed;
  e.a = 17;
  e.b = 42;
  e.add_field("g", 165.87);
  e.add_field("s", 132.537);
  e.add_field("k", 8.0);
  e.add_field("responders", 7.0);
  for (auto _ : state) {
    auto line = obs::to_jsonl(e);
    benchmark::DoNotOptimize(line);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEventSerialize);

void BM_FlowEngineMinute(benchmark::State& state) {
  // One simulated minute of the flow engine at the given overlay size.
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(5);
  topology::Graph g = topology::paper_topology(n, rng);
  util::Rng bw_rng = rng.fork("bw");
  const topology::BandwidthMap bw(n, bw_rng);
  workload::ContentConfig cc;
  const workload::ContentModel content(cc, n);
  flow::FlowConfig cfg;
  flow::FlowNetwork net(g, bw, content, cfg, rng.fork("flow"));
  for (PeerId a = 0; a < n / 20; ++a) net.set_kind(a, PeerKind::kBad);
  for (auto _ : state) {
    net.run_minutes(1.0);
    benchmark::DoNotOptimize(net.last_minute_report());
  }
  state.SetItemsProcessed(state.iterations() * 60);  // ticks
}
BENCHMARK(BM_FlowEngineMinute)->Arg(500)->Arg(2000);

void BM_Indicators(benchmark::State& state) {
  std::vector<core::MemberReport> reports;
  for (PeerId m = 0; m < 8; ++m) {
    reports.push_back({m, 1200.0 + m, 8000.0 - m, true});
  }
  for (auto _ : state) {
    const double g = core::general_indicator(reports, 100.0, 10000.0);
    const double s = core::single_indicator(reports, 3, 100.0, 10000.0);
    benchmark::DoNotOptimize(g);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Indicators);

// ------------------------------------------------------- headline pass

/// Event-core throughput: schedule-and-drain cycles of `n` one-shot
/// events through fresh engines for at least `min_seconds` of wall time.
/// Returns events per second.
double headline_events_per_sec(std::size_t n, double min_seconds) {
  using clock = std::chrono::steady_clock;
  std::uint64_t events = 0;
  const auto start = clock::now();
  double elapsed = 0.0;
  do {
    sim::Engine e;
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < n; ++i) {
      e.schedule_at(static_cast<double>((i * 7919) % 1000),
                    [&sink] { ++sink; });
    }
    e.run();
    benchmark::DoNotOptimize(sink);
    events += e.events_executed();
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < min_seconds);
  return static_cast<double>(events) / elapsed;
}

/// Packet-engine query throughput: repeated TTL-7 floods through a
/// 200-peer overlay. Returns serviced queries per second of wall time.
double headline_queries_per_sec(double min_seconds) {
  using clock = std::chrono::steady_clock;
  util::Rng rng(3);
  topology::Graph g = topology::paper_topology(200, rng);
  workload::ContentConfig cc;
  const workload::ContentModel content(cc, 200);
  std::uint64_t queries = 0;
  const auto start = clock::now();
  double elapsed = 0.0;
  do {
    sim::Engine engine;
    p2p::P2pConfig cfg;
    p2p::PacketNetwork net(g, content, engine, cfg, util::Rng(4));
    net.issue_query(0, 1);
    engine.run_until(60.0);
    queries += net.totals().queries_processed;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < min_seconds);
  return static_cast<double>(queries) / elapsed;
}

/// Flow-engine throughput: simulated minutes per second of wall time on an
/// overlay of `peers` under a 5% compromised-peer load — the figure
/// benches' dominant inner loop. `worker_jobs` > 1 runs the sharded
/// parallel tick sweeps (output is byte-identical; only wall time moves).
double headline_flow_minutes_per_sec(std::size_t peers, double min_seconds,
                                     unsigned worker_jobs = 1) {
  using clock = std::chrono::steady_clock;
  util::Rng rng(5);
  topology::Graph g = topology::paper_topology(peers, rng);
  util::Rng bw_rng = rng.fork("bw");
  const topology::BandwidthMap bw(peers, bw_rng);
  workload::ContentConfig cc;
  const workload::ContentModel content(cc, peers);
  flow::FlowConfig cfg;
  cfg.jobs = worker_jobs;
  flow::FlowNetwork net(g, bw, content, cfg, rng.fork("flow"));
  for (PeerId a = 0; a < peers / 20; ++a) net.set_kind(a, PeerKind::kBad);
  std::uint64_t minutes = 0;
  const auto start = clock::now();
  double elapsed = 0.0;
  do {
    net.run_minutes(1.0);
    benchmark::DoNotOptimize(net.last_minute_report());
    ++minutes;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < min_seconds);
  return static_cast<double>(minutes) / elapsed;
}

/// One point of the shard-count scaling curve.
struct ShardPoint {
  unsigned jobs = 1;
  double flow_minutes_per_sec = 0.0;
};

/// The shard scaling curve: flow-minutes/sec at `peers` for 1/2/4/8
/// workers. On a single-core builder the curve is flat (the merge is
/// deterministic, not magic); on a real multi-core host it is the
/// headline speedup figure of the sharded engine.
std::vector<ShardPoint> shard_scaling_curve(std::size_t peers,
                                            double min_seconds) {
  std::vector<ShardPoint> curve;
  for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
    curve.push_back(
        {jobs, headline_flow_minutes_per_sec(peers, min_seconds, jobs)});
    std::printf("  shard curve: %u jobs -> %.2f flow min/s @%zu peers\n",
                jobs, curve.back().flow_minutes_per_sec, peers);
  }
  return curve;
}

/// Million-peer soak: build a `peers`-node overlay, attach DD-POLICE over
/// the flow port, and run `sim_minutes` simulated minutes. Reports wall
/// time per simulated minute and peak RSS — the scale acceptance run for
/// the sharded engine (`--mega`, optionally `--mega=PEERS`). Numbers go to
/// stdout only; docs/perf.md records the canonical measurement.
int run_mega(std::size_t peers, unsigned worker_jobs, double sim_minutes) {
  using clock = std::chrono::steady_clock;
  std::printf("mega: building %zu-peer overlay (jobs=%u)...\n", peers,
              worker_jobs);
  const auto t0 = clock::now();
  util::Rng rng(5);
  topology::Graph g = topology::paper_topology(peers, rng);
  util::Rng bw_rng = rng.fork("bw");
  const topology::BandwidthMap bw(peers, bw_rng);
  workload::ContentConfig cc;
  const workload::ContentModel content(cc, peers);
  flow::FlowConfig cfg;
  cfg.jobs = worker_jobs;
  flow::FlowNetwork net(g, bw, content, cfg, rng.fork("flow"));
  for (PeerId a = 0; a < peers / 20; ++a) net.set_kind(a, PeerKind::kBad);
  ddp::flow::FlowPort port(net);
  ddp::core::DdPoliceConfig dcfg;
  ddp::core::DdPolice ddp(port, dcfg, rng.fork("ddp"));
  const double build_s =
      std::chrono::duration<double>(clock::now() - t0).count();
  std::printf("mega: build %.1fs, %.0f MiB RSS after construction\n",
              build_s,
              static_cast<double>(ddp::bench::peak_rss_bytes()) / (1 << 20));
  const auto t1 = clock::now();
  double minute = 0.0;
  while (minute < sim_minutes) {
    net.run_minutes(1.0);
    minute += 1.0;
    ddp.on_minute(minute);
    const double so_far =
        std::chrono::duration<double>(clock::now() - t1).count();
    std::printf("mega: minute %.0f done, %.1fs wall (%.1fs/min), "
                "%llu suspicions, %zu cuts\n",
                minute, so_far, so_far / minute,
                static_cast<unsigned long long>(ddp.suspicions()),
                ddp.decisions().size());
  }
  const double sweep_s =
      std::chrono::duration<double>(clock::now() - t1).count();
  std::printf("mega: %zu peers, jobs=%u: %.1fs build, %.2fs/sim-minute, "
              "peak RSS %.0f MiB\n",
              peers, worker_jobs, build_s, sweep_s / sim_minutes,
              static_cast<double>(ddp::bench::peak_rss_bytes()) / (1 << 20));
  return 0;
}

void write_headline(const std::string& out_dir, double events_per_sec,
                    double queries_per_sec, double flow_minutes_per_sec,
                    std::size_t flow_peers, double wall_seconds,
                    unsigned jobs, std::size_t shard_peers,
                    const std::vector<ShardPoint>& curve) {
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return;
  }
  const double ns_per_event =
      events_per_sec > 0.0 ? 1e9 / events_per_sec : 0.0;
  const std::string json_path =
      (std::filesystem::path(out_dir) / "BENCH_engine.json").string();
  const std::uint64_t rss = ddp::bench::peak_rss_bytes();
  // The sharded headline is the curve's best point: on one core that is
  // jobs=1 (the curve is flat), on a multi-core host the widest fan-out.
  double sharded_best = 0.0;
  for (const auto& p : curve) {
    sharded_best = std::max(sharded_best, p.flow_minutes_per_sec);
  }
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"engine_perf\",\n"
                 "  \"events_per_sec\": %.1f,\n"
                 "  \"ns_per_event\": %.2f,\n"
                 "  \"queries_per_sec\": %.1f,\n"
                 "  \"flow_minutes_per_sec\": %.2f,\n"
                 "  \"flow_peers\": %zu,\n"
                 "  \"sharded_flow_minutes_per_sec\": %.2f,\n"
                 "  \"sharded_flow_peers\": %zu,\n",
                 events_per_sec, ns_per_event, queries_per_sec,
                 flow_minutes_per_sec, flow_peers, sharded_best, shard_peers);
    std::fprintf(f, "  \"shard_curve\": [");
    for (std::size_t i = 0; i < curve.size(); ++i) {
      std::fprintf(f, "%s{\"jobs\": %u, \"flow_minutes_per_sec\": %.2f}",
                   i == 0 ? "" : ", ", curve[i].jobs,
                   curve[i].flow_minutes_per_sec);
    }
    std::fprintf(f,
                 "],\n"
                 "  \"peak_rss_bytes\": %llu,\n"
                 "  \"wall_seconds\": %.3f,\n"
                 "  \"jobs\": %u\n"
                 "}\n",
                 static_cast<unsigned long long>(rss), wall_seconds, jobs);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  const std::string csv_path =
      (std::filesystem::path(out_dir) / "BENCH_engine.csv").string();
  if (std::FILE* f = std::fopen(csv_path.c_str(), "w")) {
    std::fprintf(f,
                 "events_per_sec,ns_per_event,queries_per_sec,"
                 "flow_minutes_per_sec,flow_peers,"
                 "sharded_flow_minutes_per_sec,sharded_flow_peers,"
                 "peak_rss_bytes,wall_seconds,jobs\n"
                 "%.1f,%.2f,%.1f,%.2f,%zu,%.2f,%zu,%llu,%.3f,%u\n",
                 events_per_sec, ns_per_event, queries_per_sec,
                 flow_minutes_per_sec, flow_peers, sharded_best, shard_peers,
                 static_cast<unsigned long long>(rss), wall_seconds, jobs);
    std::fclose(f);
    std::printf("wrote %s\n", csv_path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();

  // Pull the shared bench flags out before google-benchmark parses the
  // rest (it rejects flags it does not know). `--out-dir` and `--jobs`
  // take `=value` or the next argument; `--mega` alone means 1,000,000
  // peers, `--mega=N` N peers. A malformed value, or an argument neither
  // these flags nor google-benchmark know, exits 2 before any run.
  std::string out_dir = "results";
  unsigned jobs = 1;
  bool headline_only = false;
  std::size_t mega_peers = 0;  // 0 = mega mode off
  std::vector<char*> pass{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string name = bench::flag_name(arg);
    if (arg == "--headline-only") {
      headline_only = true;
      continue;
    }
    if (arg == "--mega") {
      mega_peers = 1000000;
      continue;
    }
    if (name != "--out-dir" && name != "--jobs" && name != "--mega") {
      pass.push_back(argv[i]);
      continue;
    }
    const std::string value = bench::flag_value(argc, argv, i);
    if (name == "--out-dir") {
      out_dir = value;
    } else if (name == "--jobs") {
      jobs = bench::jobs_flag(value);
    } else {
      constexpr std::size_t kMaxPeers = std::numeric_limits<std::size_t>::max();
      const auto n = util::parse<std::size_t>(value, 1, kMaxPeers);
      if (!n) {
        bench::usage_error(util::rejection(
            "--mega", util::accepted<std::size_t>(1, kMaxPeers), value));
      }
      mega_peers = *n;
    }
  }
  if (mega_peers > 0) {
    // Mega mode skips google-benchmark, so nothing else would read these.
    if (pass.size() > 1) {
      bench::usage_error(std::string("unknown argument: ") + pass[1] +
                         " (mega mode takes --mega[=N] and --jobs N)");
    }
    return run_mega(mega_peers, jobs == 0 ? 1 : jobs, 3.0);
  }
  int pass_argc = static_cast<int>(pass.size());
  benchmark::Initialize(&pass_argc, pass.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, pass.data())) {
    return 2;
  }
  if (!headline_only) benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Headline pass: fixed workloads, wall-clock timed, machine-readable.
  const double events_per_sec = headline_events_per_sec(100000, 1.0);
  const double queries_per_sec = headline_queries_per_sec(1.0);
  const std::size_t flow_peers = 2000;
  const double flow_minutes_per_sec =
      headline_flow_minutes_per_sec(flow_peers, 2.0);
  const std::size_t shard_peers = 20000;
  const auto curve = shard_scaling_curve(shard_peers, 1.0);
  const double wall =
      std::chrono::duration<double>(clock::now() - t0).count();
  std::printf("headline: %.2fM events/s (%.1f ns/event), %.0f queries/s, "
              "%.2f flow min/s @%zu peers, %.1fs wall\n",
              events_per_sec / 1e6, 1e9 / events_per_sec, queries_per_sec,
              flow_minutes_per_sec, flow_peers, wall);
  write_headline(out_dir, events_per_sec, queries_per_sec,
                 flow_minutes_per_sec, flow_peers, wall, jobs, shard_peers,
                 curve);
  return 0;
}
