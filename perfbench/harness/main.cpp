/// \file main.cpp
/// Benchmark harness: runs one workload against the library's public entry
/// points and prints its raw samples as one JSON object on stdout.
///
///   ddp_perfbench --workload paper_2k --seed 20070710 --seconds 15
///                 --trace 0 [--spans spans.jsonl]
///
/// The simulator is driven only through experiments::ScenarioRuntime
/// (construct, run_to_minute one minute at a time, save / load_bytes, view,
/// result); the socket path only through netengine::Node (start, poll_once
/// and its public counters). perfbench/run.py turns the samples into the
/// metrics BENCHMARK.json names and checks the output digests.
///
/// --trace 1 is the per-layer run: it alternates untraced and profiled
/// (obs.profile) episodes, records spans around every public call, and adds
/// the layer measurements only the traced run pays for.

#include <time.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments/runtime.hpp"
#include "experiments/scenario.hpp"
#include "flow/network.hpp"
#include "net/message.hpp"
#include "net/stream.hpp"
#include "netengine/node.hpp"
#include "p2p/guid_table.hpp"
#include "spans.hpp"
#include "topology/generators.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ddp;
using perfbench::SpanLog;

// ------------------------------------------------------------- clocks

double now_s() { return static_cast<double>(obs::wall_ns()) * 1e-9; }

double clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

/// VmHWM of this process, KiB (0 when /proc is unavailable).
double peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10));
    }
  }
  return 0.0;
}

/// Wall and CPU cost of one call.
struct Cost {
  double wall = 0.0;
  double cpu = 0.0;
};
template <typename Fn>
Cost measure(Fn&& fn) {
  const double w0 = now_s();
  const double c0 = process_cpu_s();
  fn();
  return {now_s() - w0, process_cpu_s() - c0};
}

// ------------------------------------------------------------- host gauge

/// A fixed kernel timed beside every measured call, to tell program cost
/// from host speed. On a shared host the cores this process runs on are
/// slowed by other tenants for seconds at a time, by up to half, and the
/// program's minute steps and constructions slow with them; an ALU loop of
/// independent chains plus a stream over an L2-sized buffer slows by about
/// the same factor at the same moments. run.py divides each measured time
/// by the gauge's time next to it and multiplies by kGaugeRefS, so a time
/// reads as seconds on the host at its quiet speed.
class Gauge {
 public:
  /// The kernel's wall time on a quiet host of the reference machine
  /// (4 vCPU Xeon KVM guest, GCC 12 -O3).
  static constexpr double kGaugeRefS = 1.0e-3;

  Gauge() : buffer_(std::size_t{1} << 18) {
    for (std::size_t i = 0; i < buffer_.size(); ++i) {
      buffer_[i] = static_cast<std::uint32_t>(i * 7);
    }
  }

  /// Runs the kernel once; returns its wall time.
  double time() {
    const double t0 = now_s();
    std::uint64_t x0 = 1, x1 = 2, x2 = 3, x3 = 4;
    for (int i = 0; i < 300000; ++i) {
      x0 = x0 * 6364136223846793005ULL + 1;
      x1 = x1 * 6364136223846793005ULL + 3;
      x2 = x2 * 6364136223846793005ULL + 5;
      x3 = x3 * 6364136223846793005ULL + 7;
      x0 ^= x1 >> 7;
      x2 ^= x3 >> 9;
    }
    std::uint64_t acc = x0 + x1 + x2 + x3;
    for (std::uint32_t pass = 0; pass < 8; ++pass) {
      for (const std::uint32_t v : buffer_) acc += v ^ pass;
    }
    sink_ = sink_ + acc;
    return now_s() - t0;
  }

 private:
  std::vector<std::uint32_t> buffer_;
  volatile std::uint64_t sink_ = 0;
};

// ------------------------------------------------------------- output

/// Minimal JSON object writer. Numbers keep all their digits; keys are
/// emitted in insertion order.
class Json {
 public:
  Json& num(const std::string& k, double v) {
    key(k);
    body_ += number(v);
    return *this;
  }
  Json& str(const std::string& k, const std::string& v) {
    key(k);
    body_ += quote(v);
    return *this;
  }
  Json& arr(const std::string& k, const std::vector<double>& vs) {
    key(k);
    body_ += '[';
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) body_ += ',';
      body_ += number(vs[i]);
    }
    body_ += ']';
    return *this;
  }
  Json& obj(const std::string& k, const Json& inner) {
    key(k);
    body_ += inner.text();
    return *this;
  }
  Json& objs(const std::string& k, const std::vector<Json>& inner) {
    key(k);
    body_ += '[';
    for (std::size_t i = 0; i < inner.size(); ++i) {
      if (i > 0) body_ += ',';
      body_ += inner[i].text();
    }
    body_ += ']';
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k) {
    if (!body_.empty()) body_ += ',';
    body_ += quote(k) + ':';
  }
  static std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + '"';
  }
  std::string body_;
};

/// FNV-1a over the bit patterns of the values fed in.
class Digest {
 public:
  void u(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void f(double v) noexcept { u(std::bit_cast<std::uint64_t>(v)); }
  std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Digest of what a run decided: every per-minute report and every
/// DD-POLICE decision, bit for bit.
std::string output_digest(const experiments::ScenarioResult& r) {
  Digest d;
  for (const flow::MinuteReport& m : r.history) {
    for (const double v :
         {m.minute, m.traffic_messages, m.attack_messages, m.good_issued,
          m.attack_issued, m.dropped, m.reach_per_query, m.success_rate,
          m.response_time, m.mean_utilization, m.overhead_messages,
          m.transport_lost, m.dropped_good, m.dropped_attack}) {
      d.f(v);
    }
  }
  for (const core::Decision& c : r.decisions) {
    d.f(c.minute);
    d.u(c.judge);
    d.u(c.suspect);
    d.f(c.g);
    d.f(c.s);
    d.u(c.via_single ? 1 : 0);
    d.u(c.list_violation ? 1 : 0);
    d.u(c.believed_k);
    d.u(c.responders);
    d.u(c.true_degree);
  }
  return d.hex();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 20070710;
  double seconds = 15.0;
  bool trace = false;
  std::string spans_path;
  /// sock_mesh only: the protocol-minute length in wall seconds. The
  /// per-minute rates stay as they are, so a longer minute sends the same
  /// messages more slowly.
  double minute_seconds = 0.5;
};

void write_spans(const Args& a, const SpanLog& spans) {
  if (!a.trace || a.spans_path.empty()) return;
  std::ofstream out(a.spans_path);
  spans.write_jsonl(out);
  if (!out) throw std::runtime_error("cannot write " + a.spans_path);
}

// ------------------------------------------------------------- simulator

/// One simulator workload: the scenario, its horizon and whether it
/// checkpoints (chaos_2k only).
struct SimSpec {
  experiments::ScenarioConfig config;
  int minutes = 60;
  bool snapshots = false;
  /// An extra runtime is built (and timed for setup_s) after every this
  /// many minutes, so the setup samples spread over the whole run.
  int setup_every = 4;
};

SimSpec sim_spec(const std::string& workload, std::uint64_t seed) {
  // The paper's own evaluation point, on the serial flow step.
  SimSpec spec;
  spec.config = experiments::paper_scenario(2000, 100,
                                            defense::Kind::kDdPolice, seed);
  spec.config.flow.jobs = 1;
  if (workload == "chaos_2k") {
    // The control plane does half the work here: the fault, adaptive,
    // quarantine and repair paths run on no other workload.
    core::DdPoliceConfig& d = spec.config.ddpolice;
    d.buddy_radius = 2;
    d.exchange_policy = core::ExchangePolicy::kEventDriven;
    d.adaptive.enabled = true;
    d.cut_policy = core::CutPolicy::kQuarantine;
    spec.config.repair_partitions = true;
    spec.config.fault.channel.drop_probability = 0.1;
    spec.config.fault.channel.delay_jitter_seconds = 2.0;
    spec.config.fault.peer.crash_probability_per_minute = 0.002;
    spec.minutes = 40;
    spec.snapshots = true;
    spec.setup_every = 2;
  }
  spec.config.total_minutes = spec.minutes;
  return spec;
}

/// Standing invariants, asserted through the read-only view after every
/// minute. Throws on a violation: the episode then counts as failed.
void check_view(const experiments::ScenarioView& v) {
  std::string why;
  const topology::Graph& g = v.net->graph();
  if (!g.edge_index().consistent(&why)) {
    throw std::runtime_error("EdgeIndex inconsistent: " + why);
  }
  if (g.edge_index().live_count() != 2 * g.edge_count()) {
    throw std::runtime_error("EdgeIndex live slots != 2 * edges");
  }
  if (v.ledger != nullptr && !v.ledger->consistent(&why)) {
    throw std::runtime_error("QuarantineLedger inconsistent: " + why);
  }
}

/// Samples accumulated over one process's episodes.
struct SimTotals {
  Gauge gauge;
  std::vector<double> setup_s;
  std::vector<double> setup_gauge_s;  ///< the gauge beside each setup_s
  std::vector<Json> episodes;
  // Traced episodes: the per-layer samples.
  double traced_minutes = 0.0;
  std::map<std::string, double> phase_ns;
  double slot_ticks = 0.0;
  double edge_slots = 0.0;
  double suspicions = 0.0, rounds = 0.0, cuts = 0.0;
  double timeouts = 0.0, retries = 0.0, transfers = 0.0;
  double detect_min = -1.0;
  std::vector<double> save_ms, load_ms;
  double snapshot_bytes = 0.0;
  // Traced episodes on the sharded flow step (flow.jobs > 1).
  double sharded_minutes = 0.0;
  double sharded_flow_ns = 0.0;
};

void fold_profile(const experiments::ScenarioRuntime& rt,
                  std::map<std::string, double>& into) {
  const experiments::ScenarioResult r = rt.result();
  if (r.profile == nullptr) return;
  for (const obs::PhaseProfiler::PhaseStat& p : r.profile->phases()) {
    into[p.name] += static_cast<double>(p.wall_nanos);
  }
}

/// One timed construction of the workload's runtime, discarded at once.
void sample_setup(const SimSpec& spec, SpanLog& spans, SimTotals& t) {
  std::unique_ptr<experiments::ScenarioRuntime> rt;
  t.setup_s.push_back(measure([&] {
                        SpanLog::Scope s(spans, "ScenarioRuntime()");
                        rt = std::make_unique<experiments::ScenarioRuntime>(
                            spec.config);
                      }).wall);
  t.setup_gauge_s.push_back(t.gauge.time());
}

/// One complete run of the workload's horizon in a fresh runtime. Only the
/// construction, the minute steps and the snapshot calls are timed; the
/// invariant checks and result assembly between them are not.
void run_episode(const SimSpec& spec, int scenario, bool traced,
                 SpanLog& spans, SimTotals& t) {
  experiments::ScenarioConfig cfg = spec.config;
  cfg.obs.profile = traced;
  SpanLog::Scope episode(spans, "episode");

  std::unique_ptr<experiments::ScenarioRuntime> rt;
  const Cost setup = measure([&] {
    SpanLog::Scope s(spans, "ScenarioRuntime()");
    rt = std::make_unique<experiments::ScenarioRuntime>(cfg);
  });
  t.setup_s.push_back(setup.wall);
  t.setup_gauge_s.push_back(t.gauge.time());

  // A link-tick (one live directed slot carried through one flow tick) is
  // the flow engine's unit of overlay work, the sim's "message".
  const double ticks_per_minute = 60.0 / cfg.flow.tick_seconds;
  double link_ticks = 0.0;
  // Per simulated minute: the minute step plus that minute's snapshot
  // calls. The same seed repeats the same work minute for minute, so
  // run.py can compare minute m across episodes.
  std::vector<double> step_wall, step_cpu, step_ticks, step_gauge;
  std::map<std::string, double> phases;
  std::vector<std::uint8_t> snap;
  for (int m = 1; m <= spec.minutes; ++m) {
    const Cost step = measure([&] {
      SpanLog::Scope s(spans, "run_to_minute");
      rt->run_to_minute(m);
    });
    step_wall.push_back(step.wall);
    step_cpu.push_back(step.cpu);
    step_gauge.push_back(t.gauge.time());
    const experiments::ScenarioView view = rt->view();
    check_view(view);
    step_ticks.push_back(
        static_cast<double>(view.net->graph().edge_index().live_count()) *
        ticks_per_minute);
    link_ticks += step_ticks.back();
    if (m % spec.setup_every == 0) sample_setup(spec, spans, t);

    if (!spec.snapshots || m % 5 != 0) continue;
    const Cost save = measure([&] {
      SpanLog::Scope s(spans, "save");
      snap = rt->save();
    });
    step_wall.back() += save.wall;
    step_cpu.back() += save.cpu;
    if (traced) {
      t.save_ms.push_back(save.wall * 1e3);
      t.snapshot_bytes = static_cast<double>(snap.size());
    }
    if (m != 20) continue;
    // Resume from the snapshot in a fresh runtime, as a restarted process
    // would; the rest of the episode runs on the restored state.
    if (traced) fold_profile(*rt, phases);
    std::unique_ptr<experiments::ScenarioRuntime> fresh;
    const Cost build = measure([&] {
      SpanLog::Scope s(spans, "ScenarioRuntime()");
      fresh = std::make_unique<experiments::ScenarioRuntime>(cfg);
    });
    const Cost load = measure([&] {
      SpanLog::Scope s(spans, "load_bytes");
      fresh->load_bytes(snap);
    });
    step_wall.back() += build.wall + load.wall;
    step_cpu.back() += build.cpu + load.cpu;
    if (traced) t.load_ms.push_back(load.wall * 1e3);
    rt = std::move(fresh);
  }

  const experiments::ScenarioResult result = rt->result();
  if (traced && cfg.flow.jobs > 1) {
    fold_profile(*rt, phases);
    t.sharded_flow_ns += phases["flow_ticks"];
    t.sharded_minutes += spec.minutes;
  } else if (traced) {
    fold_profile(*rt, phases);
    for (const auto& [name, ns] : phases) t.phase_ns[name] += ns;
    t.traced_minutes += spec.minutes;
    t.slot_ticks += link_ticks;
    const experiments::ScenarioView view = rt->view();
    t.edge_slots =
        static_cast<double>(view.net->graph().edge_index().live_count());
    t.suspicions = view.ddpolice != nullptr
                       ? static_cast<double>(view.ddpolice->suspicions())
                       : 0.0;
    t.rounds = static_cast<double>(result.defense_rounds);
    t.cuts = static_cast<double>(result.decisions.size());
    t.timeouts = static_cast<double>(result.fault_control.timeouts);
    t.retries = static_cast<double>(result.fault_control.retries);
    t.transfers = static_cast<double>(result.fault_channel.transfers);
    t.detect_min = -1.0;
    for (const core::Decision& d : result.decisions) {
      if (view.attack->is_agent(d.suspect)) {
        t.detect_min = d.minute - cfg.attack.start_minute;
        break;
      }
    }
  }
  double wall = 0.0, cpu = 0.0;
  for (std::size_t i = 0; i < step_wall.size(); ++i) {
    wall += step_wall[i];
    cpu += step_cpu[i];
  }
  t.episodes.push_back(Json()
                           .num("scenario", scenario)
                           .num("minutes", spec.minutes)
                           .num("traced", traced ? 1 : 0)
                           .num("flow_jobs", cfg.flow.jobs)
                           .num("ok", 1)
                           .str("digest", output_digest(result))
                           .str("error", "")
                           .num("wall_s", wall)
                           .num("cpu_s", cpu)
                           .num("link_ticks", link_ticks)
                           .arr("step_wall_s", step_wall)
                           .arr("step_cpu_s", step_cpu)
                           .arr("step_ticks", step_ticks)
                           .arr("step_gauge_s", step_gauge));
}

/// The traced run's build-layer timings: topology generation and the flow
/// engine constructor (coverage calibration included), on the workload's
/// own configuration and rng streams.
void build_layers(const SimSpec& spec, SpanLog& spans,
                  std::vector<double>& generate_s,
                  std::vector<double>& flow_build_s) {
  for (int i = 0; i < 3; ++i) {
    const util::Rng master(spec.config.seed);
    util::Rng topo_rng = master.fork("topology");
    std::unique_ptr<topology::Graph> graph;
    const Cost gen = measure([&] {
      SpanLog::Scope s(spans, "topology::generate");
      graph = std::make_unique<topology::Graph>(
          topology::generate(spec.config.topo, topo_rng));
    });
    generate_s.push_back(gen.wall);
    util::Rng bw_rng = master.fork("bandwidth");
    const topology::BandwidthMap bandwidth(graph->node_count(), bw_rng);
    const workload::ContentModel content(spec.config.content,
                                         graph->node_count());
    std::unique_ptr<flow::FlowNetwork> net;
    const Cost build = measure([&] {
      SpanLog::Scope s(spans, "FlowNetwork()");
      net = std::make_unique<flow::FlowNetwork>(*graph, bandwidth, content,
                                                spec.config.flow,
                                                master.fork("flow"));
    });
    flow_build_s.push_back(build.wall);
  }
}

/// An untraced run's scenarios: --seed itself and seeds derived from it.
/// How much work a simulated minute takes depends on the overlay and the
/// attack a seed draws, so a run spreads over several of them.
constexpr int kScenarios = 5;
constexpr std::uint64_t kScenarioStride = 0x9e3779b97f4a7c15ULL;

/// Workers of the traced run's sharded episode: the sharded sweep and flag
/// scan, whose output must be byte-identical to the serial step's.
constexpr int kShardedJobs = 2;

std::string run_sim(const Args& a) {
  const int scenarios = a.trace ? 1 : kScenarios;
  std::vector<SimSpec> specs;
  for (int i = 0; i < scenarios; ++i) {
    specs.push_back(sim_spec(
        a.workload, a.seed + static_cast<std::uint64_t>(i) * kScenarioStride));
  }
  const SimSpec& spec = specs.front();
  SimSpec sharded = spec;
  sharded.config.flow.jobs = kShardedJobs;
  SpanLog spans(a.trace);
  SpanLog untraced(false);
  SimTotals t;

  std::vector<double> generate_s, flow_build_s;
  if (a.trace) build_layers(spec, spans, generate_s, flow_build_s);

  // Episodes in rounds, each round one episode of every scenario: the
  // first round whole, then each further episode while it still fits in
  // the measuring time. The traced run's round is an untraced and a
  // profiled episode of one scenario, so the two see the same host and
  // their ratio is the profiling overhead, plus a profiled episode of it
  // on the sharded flow step.
  struct Episode {
    const SimSpec* spec;
    int scenario;
    bool traced;
  };
  std::vector<Episode> round;
  if (a.trace) {
    round = {{&spec, 0, false}, {&spec, 0, true}, {&sharded, 0, true}};
  } else {
    for (int i = 0; i < scenarios; ++i) {
      round.push_back({&specs[static_cast<std::size_t>(i)], i, false});
    }
  }
  const double start = now_s();
  double episode_s = 0.0;
  for (std::size_t done = 0;; ++done) {
    if (done >= round.size() && now_s() - start + episode_s > a.seconds) {
      break;
    }
    const double episode_start = now_s();
    const auto& [sp, scenario, traced] = round[done % round.size()];
    try {
      run_episode(*sp, scenario, traced, traced ? spans : untraced, t);
    } catch (const std::exception& e) {
      t.episodes.push_back(Json()
                               .num("scenario", scenario)
                               .num("minutes", sp->minutes)
                               .num("traced", traced ? 1 : 0)
                               .num("ok", 0)
                               .str("digest", "")
                               .str("error", e.what()));
    }
    episode_s = now_s() - episode_start;
  }

  Json layers;
  if (a.trace) {
    Json phases;
    for (const auto& [name, ns] : t.phase_ns) phases.num(name, ns);
    layers.arr("generate_s", generate_s)
        .arr("flow_build_s", flow_build_s)
        .obj("phase_ns", phases)
        .num("traced_minutes", t.traced_minutes)
        .num("slot_ticks", t.slot_ticks)
        .num("edge_slots", t.edge_slots)
        .num("suspicions", t.suspicions)
        .num("rounds", t.rounds)
        .num("cuts", t.cuts)
        .num("timeouts", t.timeouts)
        .num("retries", t.retries)
        .num("transfers", t.transfers)
        .num("detect_min", t.detect_min)
        .arr("save_ms", t.save_ms)
        .arr("load_ms", t.load_ms)
        .num("snapshot_bytes", t.snapshot_bytes)
        .num("sharded_jobs", kShardedJobs)
        .num("sharded_minutes", t.sharded_minutes)
        .num("sharded_flow_ns", t.sharded_flow_ns);
  }
  write_spans(a, spans);
  return Json()
      .str("kind", "sim")
      .str("workload", a.workload)
      .num("seed", static_cast<double>(a.seed))
      .num("flow_jobs", spec.config.flow.jobs)
      .num("gauge_ref_s", Gauge::kGaugeRefS)
      .arr("setup_s", t.setup_s)
      .arr("setup_gauge_s", t.setup_gauge_s)
      .num("peak_rss_kib", peak_rss_kib())
      .objs("episodes", t.episodes)
      .obj("layers", layers)
      .text();
}

// ------------------------------------------------------------- sockets

// sock_mesh: four nodes in a full mesh on 127.0.0.1, one of them flooding
// from protocol minute 1. Rates are per protocol minute (0.5 s of wall
// clock unless --minute-seconds says otherwise): honest nodes issue 60
// queries per protocol minute, a raised rate so the relay, dedup and codec
// paths carry real volume after the cut. The judge's parameters scale with
// that rate: q equals the honest issue rate (relayed traffic is explained
// by its input, so honest indicators stay near 1), the flood is ten honest
// rates (indicators near 8 > CT), the warning threshold sits above an
// honest link's relayed load, and the input-credit cap is lifted because
// honest peers relay the whole flood.
constexpr std::uint32_t kMeshNodes = 4;
constexpr double kHonestRate = 60.0;
constexpr double kAttackRate = 10.0 * kHonestRate;
constexpr double kAttackStart = 1.0;
/// Throwaway meshes built and timed for setup_s at every protocol-minute
/// boundary; their CPU is left out of the cost metrics.
constexpr int kSetupsPerMinute = 3;
/// The cost metrics count from this protocol minute on, after the flooder
/// has been cut (two minutes after it starts): the cut's timing then does
/// not change the message mix they are measured over.
constexpr std::size_t kSteadyFrom = 6;

netengine::NodeConfig mesh_node(std::uint32_t i, bool attacker,
                                std::uint64_t seed, double minute_seconds,
                                const std::vector<std::uint16_t>& bootstrap) {
  netengine::NodeConfig cfg;
  cfg.index = i + 1;
  cfg.bootstrap = bootstrap;
  cfg.minute_seconds = minute_seconds;
  cfg.query_rate_per_minute = kHonestRate;
  cfg.hit_probability = 0.05;
  cfg.attacker = attacker;
  cfg.attack_rate_per_minute = kAttackRate;
  cfg.attack_start_minute = kAttackStart;
  cfg.ddp.good_issue_bound = kHonestRate;
  cfg.ddp.warning_threshold = 4.0 * kHonestRate;
  cfg.ddp.capacity_bound_per_minute = 100.0 * kAttackRate;
  cfg.ddp.collect_timeout_seconds = 12.0;
  cfg.ddp.suppression_window_seconds = 3.0;
  cfg.ddp.cut_confirmations = 2;
  cfg.seed = seed * kMeshNodes + i;
  return cfg;
}

struct Mesh {
  std::vector<std::unique_ptr<netengine::Node>> nodes;
  std::uint32_t attacker = 0;  ///< index into nodes
};

/// Bytes moved and connections accepted by every node so far. It grows
/// whenever a node does work, so an unchanged value means a quiet mesh.
double activity(const Mesh& mesh) {
  double total = 0.0;
  for (const auto& n : mesh.nodes) {
    const netengine::Engine& e = n->engine();
    total += static_cast<double>(e.bytes_in() + e.bytes_out() + e.accepted());
  }
  return total;
}

/// Step every node once without blocking; true when any of them did work.
template <typename Poll>
bool poll_round(const Mesh& mesh, Poll&& poll) {
  const double before = activity(mesh);
  for (const auto& n : mesh.nodes) poll(*n, 0);
  return activity(mesh) != before;
}

/// Block until the earliest node timer is due, or until `until`. The
/// nodes talk only to each other and one thread steps them all, so once a
/// round did no work, nothing can happen before some node's timer fires:
/// the loop never wakes just to find nothing to do.
template <typename Poll>
void wait_for_timer(const Mesh& mesh, double until, Poll&& poll) {
  int delay = static_cast<int>(std::ceil((until - now_s()) * 1e3));
  if (delay <= 0) return;
  netengine::Node* next = mesh.nodes.front().get();
  for (const auto& n : mesh.nodes) {
    const int d = n->engine().timers().next_delay_ms();
    if (d >= 0 && d < delay) {
      delay = d;
      next = n.get();
    }
  }
  poll(*next, delay);
}

/// Start the nodes (each dials every node started before it) and step
/// them until every overlay link has completed its handshake.
std::unique_ptr<Mesh> build_mesh(std::uint64_t seed, double minute_seconds,
                                 SpanLog& spans) {
  // The flooder is always the last node started (it dials all the others),
  // so every seed carries the same message mix.
  auto mesh = std::make_unique<Mesh>();
  mesh->attacker = kMeshNodes - 1;
  std::vector<std::uint16_t> ports;
  for (std::uint32_t i = 0; i < kMeshNodes; ++i) {
    SpanLog::Scope s(spans, "Node::start");
    auto node = std::make_unique<netengine::Node>(
        mesh_node(i, i == mesh->attacker, seed, minute_seconds, ports));
    if (!node->start()) throw std::runtime_error("node cannot listen");
    ports.push_back(node->listen_port());
    mesh->nodes.push_back(std::move(node));
  }
  SpanLog::Scope s(spans, "links_up");
  const double give_up = now_s() + 10.0;
  for (;;) {
    bool up = true;
    for (const auto& n : mesh->nodes) {
      up = up && n->overlay_degree() == kMeshNodes - 1;
    }
    if (up) return mesh;
    if (now_s() > give_up) throw std::runtime_error("mesh links never came up");
    for (const auto& n : mesh->nodes) n->poll_once(0);
  }
}

/// The mesh's message mix for the codec timings, in proportion to what the
/// run carried: queries (issued to every neighbour, relayed to the rest),
/// hits, and the DD-POLICE control messages.
std::vector<net::Message> message_mix(const Mesh& mesh, double proto_minutes,
                                      util::Rng& rng) {
  double queries = 0.0, hits = 0.0, rounds = 0.0;
  for (const auto& n : mesh.nodes) {
    queries += static_cast<double>(n->queries_issued()) * (kMeshNodes - 1) +
               static_cast<double>(n->queries_forwarded());
    hits += static_cast<double>(n->hits_received());
    rounds += static_cast<double>(n->police().rounds_run());
  }
  const double traffic = rounds * (kMeshNodes - 1);
  const double lists = proto_minutes * kMeshNodes * (kMeshNodes - 1);
  const double total = queries + hits + traffic + lists;
  constexpr double kMix = 1024.0;
  auto share = [&](double x) {
    return std::max(1L, std::lround(kMix * x / total));
  };

  std::vector<net::Message> mix;
  auto header = [&](net::PayloadType type) {
    net::Header h;
    h.guid = net::Guid::random(rng);
    h.type = type;
    h.ttl = 5;
    return h;
  };
  auto name = [&] { return "obj" + std::to_string(rng.below(100000)); };
  for (long i = 0; i < share(queries); ++i) {
    mix.push_back({header(net::PayloadType::kQuery), net::Query{0, name()}});
  }
  for (long i = 0; i < share(hits); ++i) {
    net::QueryHit hit;
    hit.ip = rng.next_u32();
    hit.speed = 1000;
    hit.records.push_back({rng.below(1000), 1024, name()});
    hit.servent_id = net::Guid::random(rng);
    mix.push_back({header(net::PayloadType::kQueryHit), hit});
  }
  for (long i = 0; i < share(traffic); ++i) {
    mix.push_back({header(net::PayloadType::kNeighborTraffic),
                   net::NeighborTraffic{rng.next_u32(), rng.next_u32(),
                                        rng.below(1000), rng.below(100000),
                                        rng.below(100000)}});
  }
  for (long i = 0; i < share(lists); ++i) {
    net::NeighborList list;
    for (std::uint32_t k = 0; k + 1 < kMeshNodes; ++k) {
      list.entries.push_back({rng.next_u32(), 6346});
    }
    mix.push_back({header(net::PayloadType::kNeighborList), list});
  }
  return mix;
}

/// Repeat `pass` until at least `budget_s` of wall time is spent; returns
/// ns per unit of work, one pass doing `units` units.
template <typename Fn>
double ns_per_unit(double units, double budget_s, Fn&& pass) {
  std::size_t passes = 0;
  const double t0 = now_s();
  double elapsed = 0.0;
  do {
    pass();
    ++passes;
    elapsed = now_s() - t0;
  } while (elapsed < budget_s);
  return elapsed * 1e9 / (units * static_cast<double>(passes));
}

/// Codec, stream-decoder and GUID-table timings over the mesh's own mix
/// and dedup-table population. Throws if a decode disagrees with its input.
Json wire_layers(const Mesh& mesh, double proto_minutes, std::uint64_t seed,
                 SpanLog& spans) {
  util::Rng rng(seed);
  const std::vector<net::Message> mix = message_mix(mesh, proto_minutes, rng);

  const double codec_ns =
      ns_per_unit(static_cast<double>(mix.size()), 0.3, [&] {
        SpanLog::Scope s(spans, "net::encode+decode");
        for (const net::Message& m : mix) {
          const std::vector<std::uint8_t> bytes = net::encode(m);
          const std::optional<net::Message> back = net::decode(bytes);
          if (!back || back->type() != m.type()) {
            throw std::runtime_error("codec round trip failed");
          }
        }
      });

  // The same frames as one byte stream, fed in torn reads of 1..1500 bytes.
  std::vector<std::uint8_t> stream;
  for (const net::Message& m : mix) {
    const std::vector<std::uint8_t> bytes = net::encode(m);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  std::vector<std::size_t> tears;
  for (std::size_t at = 0; at < stream.size();) {
    at = std::min(stream.size(), at + 1 + rng.below(1500));
    tears.push_back(at);
  }
  const double stream_ns =
      ns_per_unit(static_cast<double>(stream.size()), 0.3, [&] {
        SpanLog::Scope s(spans, "net::StreamDecoder");
        net::StreamDecoder decoder;
        std::size_t from = 0, decoded = 0;
        for (const std::size_t to : tears) {
          decoder.feed(
              std::span<const std::uint8_t>(stream).subspan(from, to - from));
          from = to;
          for (;;) {
            const net::StreamResult r = decoder.next();
            if (r.status == net::StreamStatus::kError) {
              throw std::runtime_error("stream decoder failed: " + r.detail);
            }
            if (r.status == net::StreamStatus::kNeedMore) break;
            ++decoded;
          }
        }
        if (decoded != mix.size()) {
          throw std::runtime_error("stream decoder lost frames");
        }
      });

  // A node's dedup table holds every query seen within the three
  // protocol-minute horizon it prunes to.
  double issued = 0.0;
  for (const auto& node : mesh.nodes) {
    issued += static_cast<double>(node->queries_issued());
  }
  const std::size_t population = std::max<std::size_t>(
      16, static_cast<std::size_t>(issued / proto_minutes * 3.0));
  std::vector<net::Guid> guids;
  for (std::size_t i = 0; i < 2 * population; ++i) {
    guids.push_back(net::Guid::random(rng));
  }
  const double guid_ns =
      ns_per_unit(3.0 * static_cast<double>(population), 0.3, [&] {
        SpanLog::Scope s(spans, "p2p::GuidTable");
        p2p::GuidTable table;
        for (std::size_t i = 0; i < population; ++i) {
          table.upsert(guids[i], static_cast<PeerId>(i), 0.0);
        }
        for (std::size_t i = 0; i < 2 * population; ++i) {
          if ((table.find(guids[i]) != nullptr) != (i < population)) {
            throw std::runtime_error("GuidTable lookup disagrees");
          }
        }
      });
  return Json()
      .num("codec_ns_per_msg", codec_ns)
      .num("stream_ns_per_byte", stream_ns)
      .num("guid_ns_per_op", guid_ns)
      .num("guid_population", static_cast<double>(population))
      .num("mix_messages", static_cast<double>(mix.size()));
}

std::string run_sock(const Args& a) {
  SpanLog spans(a.trace);
  const double minute_len = a.minute_seconds;
  Gauge gauge;
  std::vector<double> setup_s, setup_gauge_s;
  std::unique_ptr<Mesh> mesh;
  {
    SpanLog::Scope s(spans, "mesh_setup");
    const double t0 = now_s();
    mesh = build_mesh(a.seed, minute_len, spans);
    setup_s.push_back(now_s() - t0);
  }
  setup_gauge_s.push_back(gauge.time());

  auto sum = [&](auto counter) {
    double total = 0.0;
    for (const auto& n : mesh->nodes) {
      total += static_cast<double>(counter(*n));
    }
    return total;
  };
  auto messages = [](netengine::Node& n) {
    return n.engine().messages_in() + n.engine().messages_out();
  };
  auto bytes = [](netengine::Node& n) {
    return n.engine().bytes_in() + n.engine().bytes_out();
  };
  const double msgs0 = sum(messages);
  const double bytes0 = sum(bytes);

  // The traced run also times the CPU spent inside poll_once.
  double poll_cpu = 0.0;
  auto poll = [&](netengine::Node& n, int timeout_ms) {
    if (!a.trace) {
      n.poll_once(timeout_ms);
      return;
    }
    const double c0 = thread_cpu_s();
    n.poll_once(timeout_ms);
    poll_cpu += thread_cpu_s() - c0;
  };
  // Process CPU spent on the mesh: the throwaway setup meshes' and the
  // gauge's CPU is taken out.
  double aside_cpu = 0.0;
  auto mesh_cpu = [&] { return process_cpu_s() - aside_cpu; };

  // Step the nodes for a whole number of protocol minutes: round after
  // round while any node has work, then sleep until the next timer.
  const double proto_minutes =
      std::max(1.0, std::round(a.seconds / minute_len));
  double next_minute = now_s() + minute_len;
  const double cpu0 = mesh_cpu();
  double minute_cpu0 = cpu0;
  double steady_cpu0 = cpu0, steady_msgs0 = msgs0;
  std::vector<double> minute_cpu_s, minute_gauge_s;
  int minute_span = spans.open("proto_minute");
  for (;;) {
    if (now_s() >= next_minute) {
      const double c = mesh_cpu();
      minute_cpu_s.push_back(c - minute_cpu0);
      if (minute_cpu_s.size() == kSteadyFrom) {
        steady_cpu0 = c;
        steady_msgs0 = sum(messages);
      }
      spans.close(minute_span);
      if (static_cast<double>(minute_cpu_s.size()) >= proto_minutes) break;
      next_minute += minute_len;
      const double c0 = process_cpu_s();
      minute_gauge_s.push_back(gauge.time());
      // setup_s samples, spread over the run.
      for (int i = 0; i < kSetupsPerMinute; ++i) {
        SpanLog::Scope s(spans, "mesh_setup");
        const double t0 = now_s();
        std::unique_ptr<Mesh> extra = build_mesh(a.seed, minute_len, spans);
        setup_s.push_back(now_s() - t0);
        extra.reset();
        setup_gauge_s.push_back(gauge.time());
      }
      aside_cpu += process_cpu_s() - c0;
      minute_cpu0 = mesh_cpu();
      minute_span = spans.open("proto_minute");
    }
    if (!poll_round(*mesh, poll)) wait_for_timer(*mesh, next_minute, poll);
  }
  const double cpu_end = mesh_cpu();
  const double cpu_s = cpu_end - cpu0;
  const double msgs = sum(messages) - msgs0;
  const double steady_cpu_s = cpu_end - steady_cpu0;
  const double steady_msgs = sum(messages) - steady_msgs0;

  const std::uint32_t attacker = mesh->nodes[mesh->attacker]->self_address();
  double detect_min = -1.0;
  std::set<std::uint32_t> honest_cut;
  for (const auto& n : mesh->nodes) {
    for (const core::Decision& d : n->cuts()) {
      if (d.suspect == attacker) {
        const double latency = d.minute - kAttackStart;
        if (detect_min < 0.0 || latency < detect_min) detect_min = latency;
      } else {
        honest_cut.insert(d.suspect);
      }
    }
  }

  Json layers;
  if (a.trace) {
    layers.num("poll_cpu_s", poll_cpu)
        .num("msgs", msgs)
        .num("bytes", sum(bytes) - bytes0)
        .num("forwarded",
             sum([](netengine::Node& n) { return n.queries_forwarded(); }))
        .num("duplicates",
             sum([](netengine::Node& n) { return n.duplicates_dropped(); }))
        .num("echo_revocations",
             sum([](netengine::Node& n) { return n.echo_revocations(); }))
        .num("local_cuts",
             sum([](netengine::Node& n) { return n.cuts().size(); }))
        .num("suspicions",
             sum([](netengine::Node& n) { return n.police().suspicions(); }))
        .num("rounds",
             sum([](netengine::Node& n) { return n.police().rounds_run(); }))
        .obj("wire", wire_layers(*mesh, proto_minutes, a.seed, spans));
  }
  const Json result =
      Json()
          .str("kind", "sock")
          .str("workload", a.workload)
          .num("seed", static_cast<double>(a.seed))
          .num("flow_jobs", 0)
          .num("gauge_ref_s", Gauge::kGaugeRefS)
          .arr("setup_s", setup_s)
          .arr("setup_gauge_s", setup_gauge_s)
          .num("proto_minutes", proto_minutes)
          .num("minute_seconds", minute_len)
          .arr("minute_cpu_s", minute_cpu_s)
          .arr("minute_gauge_s", minute_gauge_s)
          .num("cpu_s", cpu_s)
          .num("msgs", msgs)
          .num("steady_minutes",
               minute_cpu_s.size() > kSteadyFrom
                   ? static_cast<double>(minute_cpu_s.size() - kSteadyFrom)
                   : 0.0)
          .num("steady_cpu_s", steady_cpu_s)
          .num("steady_msgs", steady_msgs)
          .num("peers", kMeshNodes)
          .num("attackers_uncut", detect_min < 0.0 ? 1 : 0)
          .num("honest_cut", static_cast<double>(honest_cut.size()))
          .num("detect_min", detect_min)
          .num("peak_rss_kib", peak_rss_kib())
          .obj("layers", layers);
  mesh.reset();
  write_spans(a, spans);
  return result.text();
}

Args parse(int argc, char** argv) {
  if (argc % 2 == 0) throw std::invalid_argument("arguments come in pairs");
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--spans") {
      a.spans_path = value;
    } else if (key == "--minute-seconds") {
      a.minute_seconds = std::stod(value);
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    std::string out;
    if (a.workload == "paper_2k" || a.workload == "chaos_2k") {
      out = run_sim(a);
    } else if (a.workload == "sock_mesh") {
      out = run_sock(a);
    } else {
      std::cerr << "ddp_perfbench: unknown workload '" << a.workload << "'\n";
      return 2;
    }
    std::cout << Json()
                     .str("compiler", __VERSION__)
                     .str("build_type", PERFBENCH_BUILD_TYPE)
                     .text()
              << "\n"
              << out << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "ddp_perfbench: " << e.what() << "\n";
    return 1;
  }
}
