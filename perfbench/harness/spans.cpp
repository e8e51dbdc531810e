#include "spans.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

namespace perfbench {

NamePred named(std::string_view pattern) {
  if (!pattern.empty() && pattern.back() == '*') {
    std::string prefix(pattern.substr(0, pattern.size() - 1));
    return [prefix](std::string_view name) { return name.starts_with(prefix); };
  }
  std::string exact(pattern);
  return [exact](std::string_view name) { return name == exact; };
}

SpanTree::SpanTree(std::vector<fp8q::SpanRecord> spans) : spans_(std::move(spans)) {
  std::unordered_map<std::int64_t, std::size_t> by_id;
  by_id.reserve(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) by_id.emplace(spans_[i].id, i);
  children_.resize(spans_.size());
  parent_index_.assign(spans_.size(), -1);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto it = by_id.find(spans_[i].parent);
    if (spans_[i].parent < 0 || it == by_id.end()) continue;
    parent_index_[i] = static_cast<std::int64_t>(it->second);
    children_[it->second].push_back(i);
  }
}

bool SpanTree::has_matching_ancestor(std::size_t index, const NamePred& match) const {
  for (std::int64_t p = parent_index_[index]; p >= 0;) {
    const auto at = static_cast<std::size_t>(p);
    if (match(spans_[at].name)) return true;
    p = parent_index_[at];
  }
  return false;
}

SpanSum SpanTree::total(const NamePred& match, bool outermost_only) const {
  SpanSum sum;
  std::uint64_t ns = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (!match(spans_[i].name)) continue;
    if (outermost_only && has_matching_ancestor(i, match)) continue;
    ns += spans_[i].duration_ns;
    ++sum.count;
  }
  sum.ms = static_cast<double>(ns) / 1e6;
  return sum;
}

void SpanTree::collect_cover(std::size_t index, const NamePred& cover,
                             std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) const {
  for (std::size_t c : children_[index]) {
    const fp8q::SpanRecord& s = spans_[c];
    if (cover(s.name)) {
      out.emplace_back(s.start_ns, s.start_ns + s.duration_ns);
    } else {
      collect_cover(c, cover, out);
    }
  }
}

SpanSum SpanTree::self_time(const NamePred& match, const NamePred& cover,
                            bool outermost_only) const {
  SpanSum sum;
  std::uint64_t ns = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (!match(spans_[i].name)) continue;
    if (outermost_only && has_matching_ancestor(i, match)) continue;
    intervals.clear();
    collect_cover(i, cover, intervals);
    const std::uint64_t lo = spans_[i].start_ns;
    const std::uint64_t hi = lo + spans_[i].duration_ns;
    ns += spans_[i].duration_ns - covered_ns(intervals, lo, hi);
    ++sum.count;
  }
  sum.ms = static_cast<double>(ns) / 1e6;
  return sum;
}

std::uint64_t covered_ns(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv,
                         std::uint64_t lo, std::uint64_t hi) {
  for (auto& [b, e] : iv) {
    b = std::clamp(b, lo, hi);
    e = std::clamp(e, lo, hi);
  }
  std::sort(iv.begin(), iv.end());
  std::uint64_t covered = 0;
  std::uint64_t reach = lo;
  for (const auto& [b, e] : iv) {
    const std::uint64_t from = std::max(b, reach);
    if (e > from) {
      covered += e - from;
      reach = e;
    }
  }
  return covered;
}

}  // namespace perfbench
