#include "core/indicators.hpp"

#include <algorithm>

namespace ddp::core {

double general_indicator(const std::vector<MemberReport>& reports, double q,
                         double input_credit_cap) {
  const std::size_t k = reports.size();
  if (k == 0 || q <= 0.0) return 0.0;
  double out_of_suspect = 0.0;  // sum_m Q_{j,m}
  double into_suspect = 0.0;    // sum_m Q_{m,j}
  for (const auto& r : reports) {
    out_of_suspect += r.in_from_suspect;
    into_suspect += r.out_to_suspect;
  }
  into_suspect = std::min(into_suspect, input_credit_cap);
  const double kk = static_cast<double>(k);
  return (out_of_suspect - (kk - 1.0) * into_suspect) / (kk * q);
}

double single_indicator(const std::vector<MemberReport>& reports, PeerId judge,
                        double q, double input_credit_cap) {
  if (q <= 0.0) return 0.0;
  double q_ji = 0.0;
  bool found = false;
  double others_into_suspect = 0.0;
  for (const auto& r : reports) {
    if (r.member == judge) {
      q_ji = r.in_from_suspect;
      found = true;
    } else {
      others_into_suspect += r.out_to_suspect;
    }
  }
  if (!found) return 0.0;
  others_into_suspect = std::min(others_into_suspect, input_credit_cap);
  return (q_ji - others_into_suspect) / q;
}

}  // namespace ddp::core
