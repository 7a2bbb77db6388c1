// Small statistics helpers used by analyzers, benches and reports.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace qoed::core {

struct Summary {
  std::size_t n = 0;
  double mean = 0;
  double stddev = 0;
  double min = 0;
  double max = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
};

Summary summarize(std::vector<double> values);

// Empirical percentile (0 <= p <= 1) of `sorted` (must be ascending).
double percentile_sorted(const std::vector<double>& sorted, double p);

// (value, cumulative fraction) pairs for CDF plots; `points` samples evenly
// spaced in rank.
std::vector<std::pair<double, double>> empirical_cdf(
    std::vector<double> values, std::size_t points = 20);

}  // namespace qoed::core
