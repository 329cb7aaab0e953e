#pragma once

/// \file indicators.hpp
/// The paper's detection indicators (Definitions 2.1-2.3), as pure
/// functions over a buddy group's collected Neighbor_Traffic reports.
///
/// For suspect j with believed neighbour set {m_1..m_k} and per-minute
/// counters Q_xy (queries sent from x to y):
///
///   g(j,t)   = [ sum_m Q_{j,m} - (k-1) * sum_m Q_{m,j} ] / (k * q)
///   s(j,t,i) = [ Q_{j,i} - sum_{m != i} Q_{m,j} ] / q
///
/// Under the no-duplication forwarding assumption both equal
/// (queries issued by j per minute) / q; Definition 2.3 calls j bad when
/// either exceeds 1 (generalized to the cut threshold CT in Sec. 3.7.2) —
/// that decision is core::verdict (ddpolice.hpp), shared by both judges.
///
/// Missing members (offline, never exchanged, or refusing to answer) are
/// included in k with zero counters — the paper's timeout rule (Sec. 3.4).

#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "util/types.hpp"

namespace ddp::core {

/// One member's contribution to a buddy-group round.
struct MemberReport {
  PeerId member = kInvalidPeer;
  /// Queries the member sent to the suspect in the past minute
  /// (Out_query(suspect) at the member; Q_{m,j}).
  double out_to_suspect = 0.0;
  /// Queries the suspect sent to the member in the past minute
  /// (In_query(suspect) at the member; Q_{j,m}).
  double in_from_suspect = 0.0;
  /// False when the member timed out / refused — counters are zeros then.
  bool responded = true;
};

/// General Indicator g(j,t) over the collected reports.
/// `q` is the good-issue bound (Definition 2.1's denominator).
///
/// `input_credit_cap` bounds how much of the suspect's reported input can
/// be credited as forwardable: a good peer services at most its processing
/// capacity per minute (the Sec. 2.3 calibration, ~10,000), so input beyond
/// that cannot explain output. Pass +infinity for the paper's literal
/// Definition 2.1 (which assumes unbounded forwarding). The cap is what
/// keeps the indicator discriminative when the overlay is saturated and
/// every link runs hot.
/// Returns 0 for an empty group.
double general_indicator(const std::vector<MemberReport>& reports, double q,
                         double input_credit_cap =
                             std::numeric_limits<double>::infinity());

/// Single Indicator s(j,t,i) computed by judge `i` (which must appear in
/// `reports`; its in_from_suspect is Q_{j,i}). `input_credit_cap` as above:
/// the suspect cannot have forwarded more input onto the judge's link than
/// it was able to service.
double single_indicator(const std::vector<MemberReport>& reports, PeerId judge,
                        double q,
                        double input_credit_cap =
                            std::numeric_limits<double>::infinity());

}  // namespace ddp::core
