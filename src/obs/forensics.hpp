#pragma once

/// \file forensics.hpp
/// Per-attacker forensics: fold the defense storyline events — attack
/// campaign start, per-agent activation and minute volumes, DD-POLICE
/// flag / indicator / cut, quarantine — into one record per attack agent:
/// when it started, how fast each detection stage reached it, and how much
/// traffic it injected (and got delivered) before the cut. Honest peers
/// the defense touched are tallied separately (false flags / false cuts).
///
/// The accumulator is itself a TraceSink, so it can ride a live run
/// (ScenarioConfig::obs.forensics) or fold a JSONL trace after the fact
/// (trace_tool forensics); both paths produce byte-identical exports.

#include <cstdint>
#include <map>
#include <string>

#include "obs/event.hpp"
#include "obs/trace.hpp"
#include "obs/trace_read.hpp"

namespace ddp::snapshot {
class Writer;
class Reader;
}  // namespace ddp::snapshot

namespace ddp::obs {

/// One attack agent's storyline. Times are sim seconds; -1 = never
/// happened (within the folded window).
struct AgentForensics {
  PeerId agent = kInvalidPeer;
  double rate = 0.0;              ///< configured sourcing rate (msg/min)
  double activated_t = -1.0;      ///< kAgentActivated
  double first_flag_t = -1.0;     ///< first kSuspectFlagged
  double first_indicator_t = -1.0;///< first kIndicatorComputed
  double first_cut_t = -1.0;      ///< first kSuspectCut
  double quarantined_t = -1.0;    ///< first kPeerQuarantined
  std::uint64_t flags = 0;
  std::uint64_t indicators = 0;
  std::uint64_t cuts = 0;
  /// Damage before (and including the minute of) the first cut.
  double injected_before_cut = 0.0;
  double delivered_before_cut = 0.0;
};

/// An honest peer the defense touched (false positives).
struct HonestForensics {
  PeerId peer = kInvalidPeer;
  double first_flag_t = -1.0;
  double first_cut_t = -1.0;
  std::uint64_t flags = 0;
  std::uint64_t cuts = 0;
};

class ForensicsAccumulator final : public TraceSink {
 public:
  /// Live path: attach as (part of) the run's trace sink.
  void on_event(const TraceEvent& event) override;

  /// Offline path: fold one parsed JSONL record.
  void add(const TraceRecord& record);

  double attack_start_t() const noexcept { return attack_start_t_; }
  const std::map<PeerId, AgentForensics>& agents() const noexcept {
    return agents_;
  }
  const std::map<PeerId, HonestForensics>& honest() const noexcept {
    return honest_;
  }

  /// Deterministic exports: one row per agent, ascending agent id, fixed
  /// column set and number formatting (same fold => same bytes).
  std::string to_csv() const;
  std::string to_json() const;
  bool write_csv(const std::string& path) const;
  bool write_json(const std::string& path) const;

  /// Short human-readable digest (trace_tool forensics, ddpsim stdout).
  std::string summary() const;

  /// Serialize the fold state into the writer's open section, so a
  /// checkpointed run resumes its forensics mid-story.
  void save(snapshot::Writer& w) const;
  void load(snapshot::Reader& r);

 private:
  void fold(EventType type, double t, PeerId a, double v0, double v1);

  double attack_start_t_ = -1.0;
  std::uint64_t events_folded_ = 0;  ///< kept in the checkpoint bytes
  std::map<PeerId, AgentForensics> agents_;
  std::map<PeerId, HonestForensics> honest_;
};

}  // namespace ddp::obs
