// Observation domains (docs/OBSERVABILITY.md, docs/THREADING.md).
//
// A CounterDomain holds the observation state one unit of work
// accumulates: the quantization-event counter matrix, the cache- and
// kernel-path counters, an allocation sink, and the fixed histogram
// channels. It is the only such table in the process. The process-wide
// state is itself a domain -- a never-destroyed root that every unbound
// thread writes to -- so each obs primitive (counter_add, cache_counter_add,
// kernel_counter_add, hist_record, hist_merge, alloc_counter_add and
// their snapshot/reset functions) has one body: act on the calling
// thread's bound domain, else the root. Allocations follow the same rule
// through the root AllocSink in obs/memory.cpp, the slice of the root
// that sits below this layer in the link order.
//
// A thread binds a domain with ScopedCounterDomain. fp8qd does so per job
// (docs/SERVICE.md): with N executor workers running jobs at once,
// "process totals before minus after" no longer isolates one job's
// events. Instead each job runs under a fresh domain -- bound on the
// executor worker and propagated to the core/parallel threads the job
// fans out to (core/parallel.h) -- so its report-v4 counter blocks are
// exact deltas by construction, at any worker count and any
// interleaving. When the job finishes, fold_into_global() merges the
// domain's totals into the enclosing domain (the caller's bound domain,
// else the root), so cumulative process-wide totals -- the daemon's exit
// report, the stats endpoint -- add up as if no domain had been bound.
//
// Writes are relaxed atomic adds on cells shared by every thread routed
// to the domain (histograms: one domain mutex). Totals therefore do not
// depend on which thread recorded what, and survive the exit of the
// threads that recorded them.
//
// Determinism: a domain is pure routing. It never changes a computed
// value, and a fold preserves every count exactly (integer adds, exact
// min/max histogram merges), so "sum over domains + root" is invariant.
//
// Named histograms (hist_record_named) and trace spans stay process-
// global: both are open-ended observational telemetry keyed by name/time,
// not part of a job's deterministic result surface.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

#include "core/thread_annotations.h"
#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/memory.h"

namespace fp8q {

/// One unit of work's observation state (or, for the root, the
/// process's). Writes are relaxed atomics (histograms: a domain-local
/// mutex), so any number of threads routed to the same domain may record
/// concurrently -- the fan-out of one job over the core/parallel pool, or
/// every unbound thread writing the root.
class CounterDomain {
 public:
  CounterDomain() = default;
  CounterDomain(const CounterDomain&) = delete;
  CounterDomain& operator=(const CounterDomain&) = delete;

  // -- write primitives (called by the obs routing layer, not directly) --
  void add(ObsFormat fmt, ObsEvent event, std::uint64_t n);
  void merge_histogram(HistChannel channel, const HistogramSnapshot& snap);
  /// What ScopedCounterDomain binds (obs/memory.h). Unused on the root:
  /// unbound threads' allocations go to obs/memory's root sink.
  [[nodiscard]] AllocSink& alloc_sink() { return alloc_sink_; }
  /// The 1-D counter families' cells; cache_counter_add / _reset (and
  /// the kernel-path pair) act on these.
  [[nodiscard]] AtomicEventCounts<CacheCounterSnapshot>& cache_cells() { return cache_counts_; }
  [[nodiscard]] AtomicEventCounts<KernelCounterSnapshot>& kernel_cells() {
    return kernel_counts_;
  }

  // -- the domain's view (what the snapshot functions return) --
  [[nodiscard]] CounterSnapshot counters() const;
  [[nodiscard]] CacheCounterSnapshot cache_counters() const { return cache_counts_.load(); }
  [[nodiscard]] KernelCounterSnapshot kernel_counters() const { return kernel_counts_.load(); }
  [[nodiscard]] AllocCounterSnapshot alloc_counters() const { return alloc_sink_.snapshot(); }
  [[nodiscard]] HistogramSnapshot histogram(HistChannel channel) const;

  /// Zeroes the counter matrix or the histogram channels (what
  /// counters_reset / histograms_reset call).
  void reset_counters();
  void reset_histograms();

  /// Moves (not copies: the domain is left empty) every tally into the
  /// calling thread's enclosing domain -- the currently bound domain when
  /// domains nest, else the root. Call after the last ScopedCounterDomain
  /// binding this domain has been destroyed; folding while still bound
  /// merges the counts straight back (a no-op, nothing is lost). Not safe
  /// to call while other threads still write to this domain.
  void fold_into_global();

 private:
  std::atomic<std::uint64_t> counts_[kObsFormatCount][kObsEventCount] = {};
  AtomicEventCounts<CacheCounterSnapshot> cache_counts_;
  AtomicEventCounts<KernelCounterSnapshot> kernel_counts_;
  AllocSink alloc_sink_;
  mutable std::mutex hist_mutex_;
  HistogramSnapshot hist_channels_[kHistChannelCount] FP8Q_GUARDED_BY(hist_mutex_);
};

/// The calling thread's bound domain, or nullptr (routing to the root).
[[nodiscard]] CounterDomain* current_counter_domain();

/// The domain the calling thread's obs primitives act on: its bound
/// domain, else the process root.
[[nodiscard]] CounterDomain& active_counter_domain();

/// RAII binding: routes this thread's obs writes (and the allocation
/// sink, obs/memory.h) to `domain` for the scope's lifetime, restoring
/// the previous binding -- bindings nest -- on destruction. Passing
/// nullptr pins root routing for the scope (a job explicitly opting out
/// of an enclosing domain).
class ScopedCounterDomain {
 public:
  explicit ScopedCounterDomain(CounterDomain* domain);
  ~ScopedCounterDomain();

  ScopedCounterDomain(const ScopedCounterDomain&) = delete;
  ScopedCounterDomain& operator=(const ScopedCounterDomain&) = delete;

 private:
  CounterDomain* prev_domain_;
  AllocSink* prev_sink_;
};

}  // namespace fp8q
