#pragma once

/// \file strategy.hpp
/// Behaviour knobs of a compromised peer, mirroring the paper's analysis:
///
///  * sourcing — a DDoS agent "generates as many queries as it is capable
///    of" (Sec. 3.5), sending *distinct* queries to different neighbours
///    (Sec. 2.1) so the flood multiplies through the overlay;
///  * reporting — when asked for Neighbor_Traffic inside someone else's
///    buddy group, the agent may answer honestly, inflate, deflate, or
///    refuse (Sec. 3.4's case analysis);
///  * neighbour lists — the agent may lie about who its neighbours are
///    (Sec. 3.1's consistency discussion).

#include <cstdint>
#include <string_view>

namespace ddp::attack {

/// How a compromised peer answers Neighbor_Traffic requests (Sec. 3.4).
enum class ReportStrategy : std::uint8_t {
  kHonest,   ///< report true counters
  kInflate,  ///< Case 1: report more than it really sent
  kDeflate,  ///< Case 2: report (much) less than it really sent
  kMute,     ///< third choice: never answer; peers then assume zero
  kCollude,  ///< coordinated: inflate input credit for fellow agents
             ///< (cover the flood), deflate it for honest suspects (frame)
};

std::string_view report_strategy_name(ReportStrategy s) noexcept;

/// Whether the agent advertises fabricated neighbour lists.
enum class ListStrategy : std::uint8_t {
  kHonest,      ///< advertise the true neighbour set
  kFabricate,   ///< include peers that are not neighbours
  kWithhold,    ///< omit some true neighbours
};

std::string_view list_strategy_name(ListStrategy s) noexcept;

/// How an agent shapes its query flood over time. The paper's agent is
/// kConstant ("as many queries as it is capable of", Sec. 3.5); the other
/// schedules are the adaptive attackers the learned-band defense exists
/// for — each keeps the per-link rate under the static 500 q/min warning
/// threshold so the paper's DD-POLICE never even flags it.
enum class SourcingStrategy : std::uint8_t {
  kConstant,  ///< full configured rate from activation (the paper)
  kRamp,      ///< low-and-slow: rate grows linearly to a sub-warning target
  kPulse,     ///< on-off bursts below the warning threshold
  kProbe,     ///< climbs until it loses links, then backs off (CT probing)
};

std::string_view sourcing_strategy_name(SourcingStrategy s) noexcept;

struct AgentBehavior {
  ReportStrategy report = ReportStrategy::kHonest;
  ListStrategy list = ListStrategy::kHonest;
  /// Multiplier applied to true counters when inflating / deflating.
  double inflate_factor = 10.0;
  double deflate_factor = 0.02;
};

}  // namespace ddp::attack
