#pragma once

/// \file runtime.hpp
/// ScenarioRuntime: the scenario of scenario.hpp as a long-lived object
/// with a checkpoint boundary.
///
/// run_scenario() builds the whole system on the stack, runs it to
/// completion, and tears it down — which is perfect for figure benches
/// and fatal for crash-resume: nothing survives the call. The runtime
/// splits construction from execution. Construction wires exactly what
/// run_scenario wired (same subsystems, same rng fork tags, same minute
/// hook order — run_scenario is now implemented on top of this class and
/// the default runs are bit-identical to the pre-runtime seed); execution
/// advances to an absolute minute boundary and can stop, checkpoint,
/// resume, or be abandoned and reconstructed in a fresh process from a
/// snapshot file.
///
/// Snapshot layout: one versioned container (snapshot.hpp framing) whose
/// config digest binds it to the behavioural configuration it was taken
/// under, followed by one section per subsystem in dependency order:
///
///   RUN  — shape cross-checks (defense kind, subsystem presence, minute)
///   GRPH — overlay graph + edge-slot index
///   FLOW — flow engine (per-link flow, accumulators, report history, rng)
///   CHRN — churn schedule + counters + rng
///   ATTK — attack campaign (agent set, rejoin schedule, rng)
///   DEFN — defense state (DD-POLICE snapshots/decisions/ledger, ...)
///   FALT — fault plane (channel, injector timeline + engine, control)
///   HEAL — partition healer (rng + counters)
///   MANT — maintenance + liar rng streams
///   METR — metrics registry values + minute rows
///   SERS — per-peer/per-edge rate series ring (obs.series_window_minutes)
///   FRNS — forensics accumulator (obs.forensics)
///
/// Sections for subsystems a configuration does not build are omitted;
/// presence is derived from the (digest-checked) config, so reader and
/// writer always agree. Checkpoints are only taken at completed-minute
/// boundaries — every engine in the scenario path is quiescent there.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "experiments/scenario.hpp"
#include "flow/churn_driver.hpp"

namespace ddp::snapshot {
class Writer;
class Reader;
}  // namespace ddp::snapshot

namespace ddp::flow {
class FlowPort;
}  // namespace ddp::flow

namespace ddp::experiments {

class ScenarioRuntime {
 public:
  /// Build (but do not run) the configured system. Throws
  /// std::invalid_argument on an out-of-range configuration, exactly like
  /// run_scenario.
  explicit ScenarioRuntime(const ScenarioConfig& config);

  ScenarioRuntime(const ScenarioRuntime&) = delete;
  ScenarioRuntime& operator=(const ScenarioRuntime&) = delete;

  /// Out-of-line: flow::FlowPort is incomplete here.
  ~ScenarioRuntime();

  /// Advance to the absolute minute `m` (no-op when already there).
  void run_to_minute(double m);

  /// Advance to config.total_minutes.
  void run_all();

  double current_minute() const noexcept;

  /// Assemble the ScenarioResult for the state reached so far — the same
  /// record run_scenario returns after run_all(). Flushes the trace sink.
  ScenarioResult result() const;

  const ScenarioConfig& config() const noexcept { return config_; }

  /// Digest of every behaviour-affecting configuration field. Run-shape
  /// knobs (total/warmup minutes) and the observability plane are
  /// excluded so a snapshot can be resumed with a longer horizon or
  /// different instrumentation attached.
  static std::uint64_t config_digest(const ScenarioConfig& config);

  /// Serialize the complete runtime into a snapshot container.
  std::vector<std::uint8_t> save() const;

  /// Atomically write save() to `path`. Throws SnapshotError on I/O
  /// failure.
  void save_file(const std::string& path) const;

  /// Restore a freshly constructed runtime (same behavioural config) from
  /// a snapshot. Throws SnapshotError when the snapshot is corrupt, from
  /// a different configuration (digest mismatch), or shaped differently
  /// than this runtime. On throw the runtime must be discarded — partial
  /// subsystem state may have been overwritten.
  void load(snapshot::Reader& r);
  void load_bytes(const std::vector<std::uint8_t>& bytes);
  void load_file(const std::string& path);

  /// Read-only view of the live system (same pointers the inspect hook
  /// receives); for harnesses that assert invariants between run calls.
  ScenarioView view() const noexcept;

 private:
  template <typename Fn>
  void timed(std::size_t phase, Fn&& fn) {
    if (profiler_ != nullptr) {
      obs::PhaseProfiler::Scope scope(*profiler_, phase);
      fn();
    } else {
      fn();
    }
  }

  void register_hooks();
  void register_metrics_hook();
  void register_obs_hooks();

  ScenarioConfig config_;
  topology::Graph graph_;
  std::unique_ptr<topology::BandwidthMap> bandwidth_;
  std::unique_ptr<workload::ContentModel> content_;
  std::unique_ptr<flow::FlowNetwork> net_;
  std::unique_ptr<fault::FaultPlane> plane_;
  std::unique_ptr<flow::ChurnDriver> churn_;
  std::unique_ptr<attack::AttackScenario> atk_;
  std::unique_ptr<workload::FlashCrowdDriver> flash_;  ///< when flash.enabled
  std::unique_ptr<flow::FlowPort> port_;  ///< engine seam the defense reads
  /// The configured defense's state: DD-POLICE or the naive cut, at most
  /// one of them; none and fair-share keep none.
  std::unique_ptr<core::DdPolice> ddpolice_;
  std::unique_ptr<defense::NaiveCutDefense> naive_;
  core::QuarantineLedger* ledger_ = nullptr;  ///< borrowed from ddpolice_
  std::unique_ptr<p2p::PartitionHealer> healer_;
  std::shared_ptr<obs::PhaseProfiler> profiler_;
  std::size_t ph_churn_ = 0, ph_attack_ = 0, ph_flash_ = 0, ph_fault_ = 0,
              ph_defense_ = 0, ph_maintenance_ = 0, ph_repair_ = 0,
              ph_run_ = 0;
  util::Rng maint_rng_;
  bool has_liar_rng_ = false;
  util::Rng liar_rng_;
  std::shared_ptr<obs::MetricsRegistry> registry_;

  // Forensics plane: when obs.forensics is on, every subsystem traces into
  // sink_, which is either the accumulator directly or a fanout of
  // {caller's trace_sink, accumulator}. obs_tracer_ is the runtime's own
  // handle for the per-agent minute feed.
  obs::FanoutSink obs_fanout_;
  obs::TraceSink* sink_ = nullptr;
  std::shared_ptr<obs::ForensicsAccumulator> forensics_;
  std::shared_ptr<obs::SeriesStore> series_;
  obs::Tracer obs_tracer_;
};

}  // namespace ddp::experiments
