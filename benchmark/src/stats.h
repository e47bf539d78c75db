/// \file stats.h
/// \brief Order statistics for the benchmark's reports.

#ifndef FEDBENCH_STATS_H_
#define FEDBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace fedbench {

/// The p-th percentile (0..100) with linear interpolation between closest
/// ranks; 0 for an empty sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50.0);
}

}  // namespace fedbench

#endif  // FEDBENCH_STATS_H_
