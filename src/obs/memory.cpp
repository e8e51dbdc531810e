#include "obs/memory.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#define FP8Q_HAVE_GETRUSAGE 1
#endif

namespace fp8q {

namespace {

/// The process-wide tally every unbound thread adds to: the allocation
/// slice of the root observation domain (obs/domain.h). Constant-
/// initialized and trivially destructible, so it outlives every thread.
constinit AllocSink g_root_alloc_sink;
thread_local AllocSink* tls_alloc_sink = nullptr;

AllocSink& active_alloc_sink() {
  AllocSink* bound = tls_alloc_sink;
  return bound != nullptr ? *bound : g_root_alloc_sink;
}

}  // namespace

void alloc_counter_add(std::uint64_t bytes) {
  if (bytes != 0) active_alloc_sink().add({bytes, 1});
}

AllocCounterSnapshot alloc_counters_snapshot() { return active_alloc_sink().snapshot(); }

void alloc_counters_reset() { active_alloc_sink().reset(); }

AllocSink* set_thread_alloc_sink(AllocSink* sink) {
  AllocSink* previous = tls_alloc_sink;
  tls_alloc_sink = sink;
  return previous;
}

void alloc_counter_merge(const AllocCounterSnapshot& delta) {
  if (delta.bytes != 0 || delta.allocs != 0) active_alloc_sink().add(delta);
}

namespace {

/// getrusage's high-water mark in bytes; 0 where unsupported.
std::uint64_t os_peak_rss_bytes() {
#ifdef FP8Q_HAVE_GETRUSAGE
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#ifdef __APPLE__
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

std::atomic<std::uint64_t> g_peak_rss_seen{0};

}  // namespace

std::uint64_t peak_rss_bytes() {
  const std::uint64_t os_peak = os_peak_rss_bytes();
  if (os_peak == 0) return 0;
  // The kernel's high-water mark can trail the resident count that
  // current_rss_bytes() reads by a few pages, so the peak takes that in
  // too, and never falls below a figure it returned before.
  const std::uint64_t now = std::max(os_peak, current_rss_bytes());
  std::uint64_t seen = g_peak_rss_seen.load(std::memory_order_relaxed);
  while (seen < now &&
         !g_peak_rss_seen.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
  }
  return std::max(seen, now);
}

std::uint64_t current_rss_bytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long pages_total = 0;
  unsigned long long pages_resident = 0;
  const int matched = std::fscanf(f, "%llu %llu", &pages_total, &pages_resident);
  std::fclose(f);
  if (matched != 2) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  if (page <= 0) return 0;
  return static_cast<std::uint64_t>(pages_resident) * static_cast<std::uint64_t>(page);
#else
  return 0;
#endif
}

}  // namespace fp8q
