// Order statistics for host timings.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// The q-quantile (0 <= q <= 1) of `xs` by linear interpolation between
/// closest ranks (Hyndman & Fan type 7, numpy's default): rank (n-1)q.
/// Returns 0 for an empty input.
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double h = static_cast<double>(xs.size() - 1) * std::clamp(q, 0.0, 1.0);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (h - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

/// Host-timing summary of one run's reps. Every rep does bit-identical
/// simulated work, so spread between reps is host interference, which only
/// adds time: low order statistics estimate the program's own cost.
struct Summary {
  double lower_quartile = 0.0;
  double median = 0.0;
  double p90 = 0.0;
  std::size_t n = 0;
};

inline Summary summarize(const std::vector<double>& xs) {
  return Summary{quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.9),
                 xs.size()};
}

/// Host time of one run assembled stretch by stretch. `marks[r]` are rep
/// r's timestamps (ns) at the same points of identical simulated work in
/// every rep, so stretch k (between marks k and k+1) does the same work in
/// each rep and interference can only lengthen it: its time is the minimum
/// over reps, and the run's time is the sum over stretches. All reps must
/// carry the same number of marks; returns 0 for no reps.
inline double stretchwise_min(const std::vector<std::vector<std::uint64_t>>& marks) {
  if (marks.empty()) return 0.0;
  double total = 0.0;
  for (std::size_t k = 0; k + 1 < marks.front().size(); ++k) {
    std::uint64_t best = marks.front()[k + 1] - marks.front()[k];
    for (const std::vector<std::uint64_t>& m : marks) best = std::min(best, m[k + 1] - m[k]);
    total += static_cast<double>(best);
  }
  return total;
}

}  // namespace perfbench
