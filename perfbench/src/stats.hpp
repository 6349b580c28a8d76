#pragma once
// Sample statistics and name rules for the benchmark's reported
// metrics.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `xs` (mean of the middle pair for even counts). Throws on
/// an empty sample.
double median(std::vector<double> xs);

/// Nearest-rank percentile: the smallest sample with at least a `q`
/// share of the samples at or below it, for q in (0, 1].
double percentile(std::vector<double> xs, double q);

/// Samples strictly after the nearest-rank `q` percentile's rank.
std::size_t samples_beyond(std::size_t n, double q);

/// The `q` percentile, but only when at least `min_beyond` samples lie
/// beyond its rank; a tail read off fewer samples is noise, so it is
/// not reported at all.
std::optional<double> tail_percentile(const std::vector<double>& xs,
                                      double q,
                                      std::size_t min_beyond = 10);

/// Metric names: a letter or digit first, then at most 64 letters,
/// digits, '_', '.' and '-' in all.
bool valid_metric_name(const std::string& name);

/// Units: 1 to 16 letters, digits, '_', '/', '%', '.' and '-'.
bool valid_unit(const std::string& unit);

}  // namespace perfbench
