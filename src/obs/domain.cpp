#include "obs/domain.h"

#include <utility>

namespace fp8q {

namespace {

thread_local CounterDomain* tls_domain = nullptr;

/// Holds the root domain in static storage and never destroys it (a union
/// member's destructor does not run), so threads that still count during
/// static destruction -- pool workers being joined -- find it alive.
/// Static rather than heap storage: a lazily heap-allocated root (~80 KiB
/// of histogram channels) measurably slowed the allocation-heavy model
/// builds that follow it.
union RootDomain {
  constexpr RootDomain() : domain() {}
  ~RootDomain() {}
  CounterDomain domain;
};

constinit RootDomain g_root;

/// Binds `domain` to the calling thread (nullptr restores root routing)
/// and returns the previous binding.
CounterDomain* set_thread_counter_domain(CounterDomain* domain) {
  CounterDomain* previous = tls_domain;
  tls_domain = domain;
  return previous;
}

/// Moves one 1-D family's cells out and adds each nonzero cell to `into`
/// (see fold_into_global).
template <typename Snapshot>
void fold_cells(AtomicEventCounts<Snapshot>& cells, AtomicEventCounts<Snapshot>& into) {
  const Snapshot taken = cells.take();
  for (int e = 0; e < Snapshot::kCount; ++e) {
    if (taken.counts[e] != 0) into.add(static_cast<typename Snapshot::Event>(e), taken.counts[e]);
  }
}

}  // namespace

void CounterDomain::add(ObsFormat fmt, ObsEvent event, std::uint64_t n) {
  counts_[static_cast<int>(fmt)][static_cast<int>(event)].fetch_add(
      n, std::memory_order_relaxed);
}

void CounterDomain::merge_histogram(HistChannel channel, const HistogramSnapshot& snap) {
  if (snap.total == 0) return;
  std::lock_guard<std::mutex> lock(hist_mutex_);
  hist_channels_[static_cast<int>(channel)].merge_from(snap);
}

CounterSnapshot CounterDomain::counters() const {
  CounterSnapshot snap;
  for (int f = 0; f < kObsFormatCount; ++f) {
    for (int e = 0; e < kObsEventCount; ++e) {
      snap.counts[f][e] = counts_[f][e].load(std::memory_order_relaxed);
    }
  }
  return snap;
}

HistogramSnapshot CounterDomain::histogram(HistChannel channel) const {
  std::lock_guard<std::mutex> lock(hist_mutex_);
  return hist_channels_[static_cast<int>(channel)];
}

void CounterDomain::reset_counters() {
  for (auto& row : counts_) {
    for (auto& cell : row) cell.store(0, std::memory_order_relaxed);
  }
}

void CounterDomain::reset_histograms() {
  std::lock_guard<std::mutex> lock(hist_mutex_);
  for (auto& channel : hist_channels_) channel = HistogramSnapshot{};
}

void CounterDomain::fold_into_global() {
  // Each tally is *moved* (exchange/swap with zero) before it is added to
  // the enclosing domain, so folding a domain into itself is a no-op.
  CounterDomain& into = active_counter_domain();
  for (int f = 0; f < kObsFormatCount; ++f) {
    for (int e = 0; e < kObsEventCount; ++e) {
      const std::uint64_t n = counts_[f][e].exchange(0, std::memory_order_relaxed);
      if (n != 0) into.add(static_cast<ObsFormat>(f), static_cast<ObsEvent>(e), n);
    }
  }
  fold_cells(cache_counts_, into.cache_counts_);
  fold_cells(kernel_counts_, into.kernel_counts_);
  for (int c = 0; c < kHistChannelCount; ++c) {
    HistogramSnapshot taken;
    {
      std::lock_guard<std::mutex> lock(hist_mutex_);
      std::swap(taken, hist_channels_[c]);
    }
    into.merge_histogram(static_cast<HistChannel>(c), taken);
  }
  // The enclosing allocation sink: the bound one, else obs/memory's root.
  alloc_counter_merge(alloc_sink_.take());
}

CounterDomain* current_counter_domain() { return tls_domain; }

CounterDomain& active_counter_domain() {
  if (CounterDomain* bound = tls_domain) return *bound;
  return g_root.domain;
}

ScopedCounterDomain::ScopedCounterDomain(CounterDomain* domain)
    : prev_domain_(set_thread_counter_domain(domain)),
      prev_sink_(set_thread_alloc_sink(domain != nullptr ? &domain->alloc_sink() : nullptr)) {}

ScopedCounterDomain::~ScopedCounterDomain() {
  set_thread_alloc_sink(prev_sink_);
  set_thread_counter_domain(prev_domain_);
}

}  // namespace fp8q
