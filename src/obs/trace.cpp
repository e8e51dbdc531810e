#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "core/thread_annotations.h"

namespace fp8q {

namespace {

/// One thread's completed-span buffer. Appends and snapshot reads are
/// serialized per buffer; spans are per-region (not per-element) events, so
/// the uncontended lock is noise next to the work being measured.
struct SpanBuffer {
  std::mutex mutex;
  std::vector<SpanRecord> records FP8Q_GUARDED_BY(mutex);
  std::uint64_t dropped FP8Q_GUARDED_BY(mutex) = 0;
  std::uint32_t thread_id = 0;  ///< set once at registration, then read-only
};

/// Registry of all span buffers ever created. Buffers are shared_ptr-held
/// by both the registry and the owning thread, so records survive thread
/// exit (pool resizes) and the registry can snapshot them afterwards.
/// Intentionally leaked, so threads that record during static destruction
/// never see it destroyed.
struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<SpanBuffer>> buffers FP8Q_GUARDED_BY(mutex);
  std::uint32_t next_thread_id FP8Q_GUARDED_BY(mutex) = 0;
};

Registry& registry() {
  static Registry* reg = new Registry();
  return *reg;
}

SpanBuffer& local_buffer() {
  thread_local std::shared_ptr<SpanBuffer> buffer = [] {
    auto b = std::make_shared<SpanBuffer>();
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    b->thread_id = reg.next_thread_id++;
    reg.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

/// Innermost open span ids on this thread (parent chain for new spans).
thread_local std::vector<std::int64_t> tls_open_spans;

std::atomic<std::int64_t> g_next_span_id{0};

/// -1 = use the environment default; 0/1 = explicit override.
std::atomic<int> g_enabled_override{-1};

bool env_default_enabled() {
  static const bool value = [] {
    const char* v = std::getenv("FP8Q_TRACE");
    return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
  }();
  return value;
}

}  // namespace

std::uint64_t obs_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool trace_enabled() {
  const int override_v = g_enabled_override.load(std::memory_order_relaxed);
  return override_v >= 0 ? override_v != 0 : env_default_enabled();
}

void set_trace_enabled(bool enabled) {
  g_enabled_override.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

std::int64_t current_span_id() {
  return tls_open_spans.empty() ? -1 : tls_open_spans.back();
}

TraceSpan::TraceSpan(std::string_view name)
    : TraceSpan(name, current_span_id()) {}

TraceSpan::TraceSpan(std::string_view name, std::int64_t parent) {
  if (!trace_enabled()) return;
  id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = parent;
  name_ = name;
  start_ns_ = obs_now_ns();
  tls_open_spans.push_back(id_);
}

TraceSpan::~TraceSpan() {
  if (id_ < 0) return;
  const std::uint64_t end = obs_now_ns();
  // Pop this span (it is the innermost open one on this thread; spans are
  // stack-scoped by construction).
  if (!tls_open_spans.empty() && tls_open_spans.back() == id_) tls_open_spans.pop_back();

  SpanBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  if (buf.records.size() >= kMaxSpansPerThread) {
    ++buf.dropped;
    return;
  }
  SpanRecord rec;
  rec.name = std::move(name_);
  rec.start_ns = start_ns_;
  rec.duration_ns = end - start_ns_;
  rec.thread_id = buf.thread_id;
  rec.id = id_;
  rec.parent = parent_;
  buf.records.push_back(std::move(rec));
}

std::vector<SpanRecord> trace_snapshot() {
  Registry& reg = registry();
  std::vector<std::shared_ptr<SpanBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    buffers = reg.buffers;
  }
  std::vector<SpanRecord> all;
  for (const auto& buf : buffers) {
    std::lock_guard<std::mutex> lock(buf->mutex);
    all.insert(all.end(), buf->records.begin(), buf->records.end());
  }
  std::sort(all.begin(), all.end(), [](const SpanRecord& a, const SpanRecord& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

std::uint64_t trace_dropped() {
  Registry& reg = registry();
  std::vector<std::shared_ptr<SpanBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    buffers = reg.buffers;
  }
  std::uint64_t dropped = 0;
  for (const auto& buf : buffers) {
    std::lock_guard<std::mutex> lock(buf->mutex);
    dropped += buf->dropped;
  }
  return dropped;
}

void trace_reset() {
  Registry& reg = registry();
  std::vector<std::shared_ptr<SpanBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    buffers = reg.buffers;
  }
  for (const auto& buf : buffers) {
    std::lock_guard<std::mutex> lock(buf->mutex);
    buf->records.clear();
    buf->dropped = 0;
  }
}

}  // namespace fp8q
