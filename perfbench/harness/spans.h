// Aggregation over the span tree the library records (obs/trace.h).
//
// Spans form a forest through their parent ids; a parent may sit on
// another thread (core/parallel links pool tasks to the dispatching span).
// Totals here are summed over threads, so they are thread-time, not wall
// time: four threads inside `linear_packed` for 1 s each add 4 s.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using NamePred = std::function<bool(std::string_view)>;

/// Matches names equal to `name`, or starting with it when it ends in
/// '*' ("qgraph/input:*").
[[nodiscard]] NamePred named(std::string_view pattern);

/// A time total and how many spans it came from.
struct SpanSum {
  double ms = 0.0;
  std::uint64_t count = 0;
};

class SpanTree {
 public:
  explicit SpanTree(std::vector<fp8q::SpanRecord> spans);

  [[nodiscard]] const std::vector<fp8q::SpanRecord>& spans() const { return spans_; }

  /// Summed duration of every span matching `match`. With outermost_only,
  /// spans that have a matching ancestor are skipped, so nested matches
  /// are not counted twice.
  [[nodiscard]] SpanSum total(const NamePred& match, bool outermost_only = false) const;

  /// Summed self time of the spans matching `match`: each span's duration
  /// minus the time covered by its outermost descendants matching `cover`
  /// (the search looks through non-matching descendants, such as
  /// parallel/task). Covered time is the union of the descendants'
  /// intervals clipped to the span, so overlapping children on other
  /// threads are not subtracted twice. outermost_only as for total().
  [[nodiscard]] SpanSum self_time(const NamePred& match, const NamePred& cover,
                                  bool outermost_only = false) const;

 private:
  [[nodiscard]] bool has_matching_ancestor(std::size_t index, const NamePred& match) const;
  void collect_cover(std::size_t index, const NamePred& cover,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) const;

  std::vector<fp8q::SpanRecord> spans_;
  std::vector<std::vector<std::size_t>> children_;
  std::vector<std::int64_t> parent_index_;  ///< -1: root or parent not recorded
};

/// Length of the union of half-open [begin, end) intervals, each first
/// clipped to [lo, hi).
[[nodiscard]] std::uint64_t covered_ns(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv,
                                       std::uint64_t lo, std::uint64_t hi);

}  // namespace perfbench
