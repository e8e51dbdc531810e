// Memory accounting: RSS sampling and tensor-allocation counters
// (docs/OBSERVABILITY.md).
//
// Two complementary views of a run's memory behavior:
//
//   peak_rss_bytes()     the OS's high-water mark for the process
//                        (getrusage ru_maxrss, or the current RSS where
//                        that reads higher), sampled at call time --
//                        monotonically nondecreasing over a process
//                        lifetime, 0 where unsupported.
//   current_rss_bytes()  the resident set right now (/proc/self/statm),
//                        0 where unsupported.
//   alloc counters       bytes/allocations routed through Tensor's
//                        allocating constructors (tensor/tensor.cpp) --
//                        allocation *traffic*, counting copies too, which
//                        is what per-stage deltas in the run report need.
//
// The counters are always on (one relaxed atomic add per tensor
// construction, not per element -- the same always-on rationale as the
// cache counters in obs/counters.h). This header is the bottom of the obs
// layer: it must stay dependency-free because fp8q_tensor links it (as
// fp8q_obs_base) while the rest of obs sits above tensor via metrics.
//
// Routing: every alloc primitive acts on the calling thread's bound
// AllocSink (set_thread_alloc_sink), else the process's root sink. This
// is the obs-base slice of the observation domains in obs/domain.h -- a
// CounterDomain owns one AllocSink and binds it together with the
// counter/histogram routing, so per-job allocation deltas in the fp8qd
// service are computed against the job's own domain, and the root sink is
// the allocation slice of the root domain (docs/OBSERVABILITY.md,
// "Observation domains").
#pragma once

#include <atomic>
#include <cstdint>

namespace fp8q {

/// Adds one allocation of `bytes` to the calling thread's bound sink, else
/// the root sink. No-op for 0 bytes.
void alloc_counter_add(std::uint64_t bytes);

/// Point-in-time allocation totals since process start (or the last reset).
struct AllocCounterSnapshot {
  std::uint64_t bytes = 0;   ///< total bytes routed through counted allocations
  std::uint64_t allocs = 0;  ///< number of counted allocations

  /// Component-wise delta (for per-stage accounting); saturates at 0 if a
  /// reset happened in between.
  [[nodiscard]] AllocCounterSnapshot since(const AllocCounterSnapshot& earlier) const {
    AllocCounterSnapshot d;
    d.bytes = bytes >= earlier.bytes ? bytes - earlier.bytes : 0;
    d.allocs = allocs >= earlier.allocs ? allocs - earlier.allocs : 0;
    return d;
  }

  friend bool operator==(const AllocCounterSnapshot&, const AllocCounterSnapshot&) = default;
};

/// Totals of the calling thread's bound sink, else the root sink.
[[nodiscard]] AllocCounterSnapshot alloc_counters_snapshot();

/// Zeroes the calling thread's bound sink, else the root sink. Call only
/// between runs.
void alloc_counters_reset();

/// One allocation tally: the root sink, or a private one a thread binds in
/// its place -- the obs-base slice of an observation domain
/// (obs/domain.h). Writers are relaxed atomics, so any number of threads
/// routed to the same sink may add concurrently.
struct AllocSink {
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> allocs{0};

  [[nodiscard]] AllocCounterSnapshot snapshot() const {
    AllocCounterSnapshot snap;
    snap.bytes = bytes.load(std::memory_order_relaxed);
    snap.allocs = allocs.load(std::memory_order_relaxed);
    return snap;
  }

  void add(const AllocCounterSnapshot& delta) {
    bytes.fetch_add(delta.bytes, std::memory_order_relaxed);
    allocs.fetch_add(delta.allocs, std::memory_order_relaxed);
  }

  void reset() {
    bytes.store(0, std::memory_order_relaxed);
    allocs.store(0, std::memory_order_relaxed);
  }

  /// Moves both totals out (exchange with 0) and returns what they held.
  [[nodiscard]] AllocCounterSnapshot take() {
    AllocCounterSnapshot snap;
    snap.bytes = bytes.exchange(0, std::memory_order_relaxed);
    snap.allocs = allocs.exchange(0, std::memory_order_relaxed);
    return snap;
  }
};

/// Binds `sink` to the calling thread (nullptr restores root routing)
/// and returns the previously bound sink so callers can nest. The usual
/// owner of the save/restore pairing is ScopedCounterDomain (obs/domain.h),
/// which binds its domain's sink together with the counter routing.
AllocSink* set_thread_alloc_sink(AllocSink* sink);

/// Adds a pre-aggregated (bytes, allocs) delta to the calling thread's
/// bound sink, else the root sink -- the domain fold primitive. Unlike
/// alloc_counter_add this does not count one allocation per call.
void alloc_counter_merge(const AllocCounterSnapshot& delta);

/// Peak resident set size of the process in bytes, sampled now: the OS
/// high-water mark, raised to current_rss_bytes() where that reads higher;
/// 0 when the platform offers no getrusage. Never decreases within a
/// process, and never reads below current_rss_bytes().
[[nodiscard]] std::uint64_t peak_rss_bytes();

/// Current resident set size in bytes (/proc/self/statm); 0 when
/// unavailable.
[[nodiscard]] std::uint64_t current_rss_bytes();

}  // namespace fp8q
