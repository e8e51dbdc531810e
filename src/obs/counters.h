// Quantization-event counters (docs/OBSERVABILITY.md).
//
// Counts the numerical events that decide whether an FP8 recipe works --
// the saturation / underflow / NaN effects that make E4M3 vs E3M4 diverge
// (Kuzmin et al., Micikevicius et al.) -- per format, process-wide:
//
//   kQuantized      elements pushed through a counted bulk cast
//   kSaturated      finite magnitude beyond max_value clamped to +/-max
//                   (includes +/-Inf inputs under the saturating policy)
//   kFlushedToZero  nonzero input rounded to +/-0 (below half the
//                   smallest subnormal after scaling)
//   kNanProduced    NaN output from a non-NaN input (kInfinityNan
//                   overflow on formats without Inf); NaN pass-through is
//                   not counted
//   kInfProduced    Inf output from a finite input (kInfinityNan, E5M2)
//
// Design: counters live in an observation domain (obs/domain.h). Every
// primitive here acts on the calling thread's bound domain, else the
// process's root domain: counter_add is one relaxed atomic add on a cell
// the domain's threads share, and counters_snapshot() reads the cells.
// Totals include threads that have since exited, and are compatible with
// the docs/THREADING.md determinism contract: counting never changes a
// computed value, and the totals are identical at every thread count
// (which thread added what differs, the sum does not). Callers add once
// per chunk, not per element, so threads rarely meet on a cell.
//
// Cost when disabled: instrumented sites check counters_enabled() once per
// *bulk call* (one relaxed atomic load), never per element, and run their
// original uninstrumented loops. Enable with FP8Q_TRACE=1, by setting
// FP8Q_REPORT, or programmatically via set_counters_enabled(true).
//
// Scoped routing: a thread bound to a CounterDomain (ScopedCounterDomain)
// adds to and reads that domain instead of the root -- how fp8qd isolates
// one job's events under concurrent execution. Unbound threads (every
// non-daemon caller) share the root.
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

namespace fp8q {

/// Format dimension of the counter matrix. Kept obs-local (not DType) so
/// the obs layer stays below fp8/ and quant/ in the link order. kOther
/// buckets custom EeMm formats built with make_format.
enum class ObsFormat : std::uint8_t { kE5M2, kE4M3, kE3M4, kInt8, kOther };
inline constexpr int kObsFormatCount = 5;

/// Event dimension of the counter matrix (see file comment).
enum class ObsEvent : std::uint8_t {
  kQuantized,
  kSaturated,
  kFlushedToZero,
  kNanProduced,
  kInfProduced,
};
inline constexpr int kObsEventCount = 5;

/// Stable lowercase names used in report.json ("e4m3", "saturated", ...).
[[nodiscard]] const char* to_string(ObsFormat fmt);
[[nodiscard]] const char* to_string(ObsEvent event);

/// True when instrumented sites should count. Defaults to the environment:
/// enabled when FP8Q_TRACE is truthy or FP8Q_REPORT is set.
[[nodiscard]] bool counters_enabled();

/// Programmatic override of the environment default (tests, embedders).
void set_counters_enabled(bool enabled);

/// Adds `n` to one cell of the calling thread's domain. Thread-safe and
/// wait-free against other writers; callers batch per-chunk local tallies
/// into one add rather than incrementing per element.
void counter_add(ObsFormat fmt, ObsEvent event, std::uint64_t n);

/// Point-in-time copy of the counter matrix.
struct CounterSnapshot {
  std::uint64_t counts[kObsFormatCount][kObsEventCount] = {};

  [[nodiscard]] std::uint64_t get(ObsFormat fmt, ObsEvent event) const {
    return counts[static_cast<int>(fmt)][static_cast<int>(event)];
  }
  /// Sum of one event over every format.
  [[nodiscard]] std::uint64_t total(ObsEvent event) const;
  /// True if any cell is nonzero.
  [[nodiscard]] bool any() const;
  /// Cell-wise difference (for "delta over a stage"); saturates at 0 if a
  /// reset happened in between.
  [[nodiscard]] CounterSnapshot since(const CounterSnapshot& earlier) const;

  friend bool operator==(const CounterSnapshot&, const CounterSnapshot&);
};

/// Reads the calling thread's domain. Safe to call concurrently with
/// counter_add; concurrent adds may or may not be included (each cell is
/// internally consistent, the snapshot is not a cross-cell atomic cut).
[[nodiscard]] CounterSnapshot counters_snapshot();

/// Zeroes the calling thread's domain's matrix. Call only while no
/// instrumented work is running.
void counters_reset();

// ---------------------------------------------------------------------------
// One-dimensional counter families: the cache events and kernel paths
// below. Each is an enum with a fixed cell count; EventCounts is its
// snapshot and AtomicEventCounts its live cells (CounterDomain members,
// obs/domain.h).

/// Point-in-time copy of one 1-D counter family, indexed by enum E.
template <typename E, int N>
struct EventCounts {
  using Event = E;
  static constexpr int kCount = N;

  std::uint64_t counts[N] = {};

  [[nodiscard]] std::uint64_t get(E event) const { return counts[static_cast<int>(event)]; }
  /// True if any cell is nonzero.
  [[nodiscard]] bool any() const {
    for (const std::uint64_t c : counts) {
      if (c != 0) return true;
    }
    return false;
  }
  /// Cell-wise difference (per-job deltas in the fp8qd service); a cell
  /// saturates at 0 if a reset happened in between.
  [[nodiscard]] EventCounts since(const EventCounts& earlier) const {
    EventCounts delta;
    for (int e = 0; e < N; ++e) {
      delta.counts[e] = counts[e] >= earlier.counts[e] ? counts[e] - earlier.counts[e] : 0;
    }
    return delta;
  }

  friend bool operator==(const EventCounts&, const EventCounts&) = default;
};

/// Calls fn(name, cell) for every cell of an EventCounts in enum order;
/// name is the cell's stable report.json key (to_string of its enum
/// value). Takes a const snapshot to read it or a mutable one to fill it.
template <typename Snapshot, typename Fn>
void for_each_event(Snapshot& snap, Fn&& fn) {
  using Counts = std::remove_const_t<Snapshot>;
  for (int e = 0; e < Counts::kCount; ++e) {
    fn(to_string(static_cast<typename Counts::Event>(e)), snap.counts[e]);
  }
}

/// The live cells of one 1-D counter family. Relaxed atomics: any number
/// of threads may add concurrently, and a load is per-cell consistent.
template <typename Snapshot>
class AtomicEventCounts {
 public:
  void add(typename Snapshot::Event event, std::uint64_t n) {
    cells_[static_cast<int>(event)].fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] Snapshot load() const {
    Snapshot snap;
    for (int e = 0; e < Snapshot::kCount; ++e) {
      snap.counts[e] = cells_[e].load(std::memory_order_relaxed);
    }
    return snap;
  }
  void reset() {
    for (auto& cell : cells_) cell.store(0, std::memory_order_relaxed);
  }
  /// Moves every cell out (exchange with 0) and returns what it held.
  [[nodiscard]] Snapshot take() {
    Snapshot snap;
    for (int e = 0; e < Snapshot::kCount; ++e) {
      snap.counts[e] = cells_[e].exchange(0, std::memory_order_relaxed);
    }
    return snap;
  }

 private:
  std::atomic<std::uint64_t> cells_[Snapshot::kCount] = {};
};

// ---------------------------------------------------------------------------
// Cache-event counters (the quantized-weight cache, quant/weight_cache.h).
//
// Orders of magnitude rarer than quantization events (one per weight-quant
// call, not per element), and always on -- the cache mirrors its internal
// stats here unconditionally so a report written after the fact still
// sees them. Routed like the format counters: the bound domain, else the
// root. Kept obs-local so the cache's owner (quant/) stays above
// obs/ in the link order, same as the format counters.

/// What happened to one cache lookup.
enum class ObsCacheEvent : std::uint8_t {
  kHit,     ///< entry found; quantized data copied out, tally replayed
  kMiss,    ///< computed and inserted
  kEvict,   ///< entry dropped to satisfy the capacity cap
  kBypass,  ///< uncacheable request (dtype/granularity), computed directly
};
inline constexpr int kObsCacheEventCount = 4;

/// Stable lowercase names used in report.json ("hit", "miss", ...).
[[nodiscard]] const char* to_string(ObsCacheEvent event);

/// Point-in-time aggregate of the cache-event counters.
using CacheCounterSnapshot = EventCounts<ObsCacheEvent, kObsCacheEventCount>;

/// Adds `n` to one cache-event cell. Thread-safe, relaxed.
void cache_counter_add(ObsCacheEvent event, std::uint64_t n);

[[nodiscard]] CacheCounterSnapshot cache_counters_snapshot();

/// Zeroes the cache-event counters. Call only between runs.
void cache_counters_reset();

// ---------------------------------------------------------------------------
// Kernel-path counters (the packed-FP8 compute paths, docs/KERNELS.md).
//
// Records, per forward call (not per element), whether a compute op ran on
// packed 8-bit weight codes or fell back to the dequantized FP32 path, so
// a run report shows at a glance how much of the graph the packed kernels
// actually covered. One event per op forward -- rare like cache events --
// so these are always on and routed the same way.

/// Which compute path one op forward (or cache decode) took.
enum class ObsKernelPath : std::uint8_t {
  kLinearPacked,  ///< LinearOp forward on packed codes
  kLinearFp32,    ///< LinearOp forward on the FP32 weight
  kConvPacked,    ///< Conv2dOp forward on packed codes
  kConvFp32,      ///< Conv2dOp forward on the FP32 weight
  kMatmulPacked,  ///< nothing increments it any more; kept for the report schema
  kMatmulFp32,    ///< MatMulOp forward (both operands FP32)
  kCacheDecode,   ///< weight-cache hit served by decoding packed codes
};
inline constexpr int kObsKernelPathCount = 7;

/// Stable lowercase names used in report.json ("linear_packed", ...).
[[nodiscard]] const char* to_string(ObsKernelPath path);

/// Point-in-time aggregate of the kernel-path counters.
using KernelCounterSnapshot = EventCounts<ObsKernelPath, kObsKernelPathCount>;

/// Adds `n` to one kernel-path cell. Thread-safe, relaxed.
void kernel_counter_add(ObsKernelPath path, std::uint64_t n);

[[nodiscard]] KernelCounterSnapshot kernel_counters_snapshot();

/// Zeroes the kernel-path counters. Call only between runs.
void kernel_counters_reset();

}  // namespace fp8q
