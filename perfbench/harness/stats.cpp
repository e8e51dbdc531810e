#include "stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

namespace {

std::size_t count_above(const std::vector<double>& samples, double value) {
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(), [value](double s) { return s > value; }));
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

Tail pick_tail(const std::vector<double>& samples) {
  Tail tail;
  for (const auto& [label, q] : {std::pair{"p99", 0.99}, std::pair{"p90", 0.90}}) {
    tail.label = label;
    tail.value = percentile(samples, q);
    tail.beyond = count_above(samples, tail.value);
    tail.supported = tail.beyond >= kMinTailSamples;
    if (tail.supported) return tail;
  }
  return tail;  // the p90, flagged unsupported
}

}  // namespace perfbench
