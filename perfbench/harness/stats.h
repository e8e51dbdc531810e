// Order statistics for the benchmark's latency and wall-time samples.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// The q-quantile (q in [0, 1]) of `samples` by linear interpolation
/// between closest ranks: position q * (n - 1) of the sorted samples, as
/// numpy's default and Python's statistics.quantiles(method="inclusive").
/// Returns 0 for an empty set.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

/// A tail latency and how well it is supported.
struct Tail {
  std::string label;        ///< "p99" or "p90"
  double value = 0.0;
  std::size_t beyond = 0;   ///< samples strictly above the value
  bool supported = false;   ///< beyond >= kMinTailSamples
};

/// A tail percentile is reported only with this many samples above it.
inline constexpr std::size_t kMinTailSamples = 10;

/// The highest of p99 / p90 with at least kMinTailSamples samples beyond
/// it. When neither qualifies the p90 is returned with supported = false,
/// so a short run still reports a figure and says how thin it is.
[[nodiscard]] Tail pick_tail(const std::vector<double>& samples);

}  // namespace perfbench
