#include "quant/weight_cache.h"

#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/cpu_dispatch.h"
#include "core/thread_annotations.h"
#include "fp8/cast_fast.h"
#include "nn/packed_gemm.h"
#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "quant/quantizer.h"
#include "tensor/stats.h"

namespace fp8q {

namespace {

constexpr std::int64_t kDefaultCapacityMb = 64;

std::int64_t env_capacity_bytes() {
  const char* v = std::getenv("FP8Q_WEIGHT_CACHE_MB");
  if (v == nullptr || v[0] == '\0') return kDefaultCapacityMb * (1 << 20);
  char* end = nullptr;
  const long long mb = std::strtoll(v, &end, 10);
  if (end == v || mb < 0) return kDefaultCapacityMb * (1 << 20);
  return static_cast<std::int64_t>(mb) * (1 << 20);
}

std::uint64_t mix64(std::uint64_t x) {
  // splitmix64 finalizer: full-avalanche, cheap.
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// 128-bit content hash: two independently-seeded 64-bit lanes over the
/// shape dims and the raw element bits. 128 bits makes an accidental
/// collision astronomically unlikely; the stored-shape compare on hit
/// guards the remaining possibility of serving a wrong-shaped payload.
struct Hash128 {
  std::uint64_t h1 = 0;
  std::uint64_t h2 = 0;

  [[nodiscard]] bool operator==(const Hash128&) const = default;
};

Hash128 hash_tensor(const Tensor& w) {
  Hash128 h{0x8BADF00D5EEDC0DEull, 0xC0FFEE0DDF00DF17ull};
  auto feed = [&h](std::uint64_t word) {
    h.h1 = mix64(h.h1 ^ word);
    h.h2 = mix64(h.h2 ^ (word * 0x9E3779B97F4A7C15ull + 1));
  };
  for (const std::int64_t d : w.shape()) feed(static_cast<std::uint64_t>(d));
  const auto data = w.flat();
  std::size_t i = 0;
  for (; i + 2 <= data.size(); i += 2) {
    const auto lo = static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(data[i]));
    const auto hi = static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(data[i + 1]));
    feed(lo | (hi << 32));
  }
  if (i < data.size()) {
    feed(static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(data[i])));
  }
  return h;
}

struct Key {
  Hash128 content;
  DType dtype = DType::kFP32;

  [[nodiscard]] bool operator==(const Key&) const = default;
};

struct KeyHash {
  std::size_t operator()(const Key& k) const {
    return static_cast<std::size_t>(
        mix64(k.content.h1 ^ (k.content.h2 << 1) ^ static_cast<std::uint64_t>(k.dtype)));
  }
};

struct Entry {
  /// Preferred payload: verified packed codes + per-channel scales, ~1/4
  /// the FP32 bytes. Null when the decode check failed at insert (NaN
  /// payloads), in which case `data` holds the FP32 payload instead.
  std::shared_ptr<const PackedFp8Tensor> packed;
  /// FP32 fallback payload (packed == nullptr). shared_ptr so a hit can
  /// pin the payload and deliver it *outside* the cache mutex -- under
  /// concurrent fp8qd jobs the mutex covers only map/LRU bookkeeping, and
  /// a concurrent eviction cannot free bytes a hit is still copying.
  std::shared_ptr<const std::vector<float>> data;
  Shape shape;     ///< collision guard, compared on every hit
  CastTally tally; ///< events the miss computation produced
  ObsFormat fmt = ObsFormat::kOther;
  std::list<Key>::iterator lru_it;
};

/// Identity memo: (tensor id) -> (version, content hash). Lets an
/// unmutated tensor skip the content rehash entirely. Bounded; cleared
/// wholesale when it outgrows the bound (entries are one pointer-sized
/// record each, so the bound is generous).
struct MemoEntry {
  std::uint64_t version = 0;
  Hash128 content;
};
constexpr std::size_t kMemoCap = 4096;

struct Cache {
  std::mutex mutex;
  std::unordered_map<Key, Entry, KeyHash> map FP8Q_GUARDED_BY(mutex);
  std::list<Key> lru FP8Q_GUARDED_BY(mutex);  ///< front = most recent
  std::unordered_map<std::uint64_t, MemoEntry> memo FP8Q_GUARDED_BY(mutex);
  std::int64_t capacity FP8Q_GUARDED_BY(mutex) = env_capacity_bytes();  ///< bytes; 0 disables
  std::int64_t bytes FP8Q_GUARDED_BY(mutex) = 0;
  WeightCacheStats stats FP8Q_GUARDED_BY(mutex);
};

Cache& cache() {
  static Cache* c = new Cache();  // leaked: usable during static teardown
  return *c;
}

// Capacity charge: the entry's ACTUAL resident payload. Packed entries
// cost codes + scales (~numel bytes); FP32 fallback entries cost numel*4.
// The flat 64 covers the map/LRU node overhead either way. This is what
// makes a fixed FP8Q_WEIGHT_CACHE_MB budget hold ~4x as many weights now
// that entries store codes (weight_cache.h, "Capacity").
std::int64_t entry_bytes(const Entry& e) {
  const std::int64_t payload =
      e.packed ? static_cast<std::int64_t>(e.packed->storage_bytes())
               : static_cast<std::int64_t>((e.data ? e.data->size() : 0) * sizeof(float));
  return payload + 64;
}

void evict_until_within(Cache& c) FP8Q_REQUIRES(c.mutex) {
  while (c.bytes > c.capacity && !c.lru.empty()) {
    const Key victim = c.lru.back();
    auto it = c.map.find(victim);
    if (it != c.map.end()) {
      c.bytes -= entry_bytes(it->second);
      c.map.erase(it);
    }
    c.lru.pop_back();
    ++c.stats.evictions;
    cache_counter_add(ObsCacheEvent::kEvict, 1);
  }
  c.stats.bytes = static_cast<std::uint64_t>(c.bytes);
  c.stats.entries = static_cast<std::uint64_t>(c.map.size());
}

/// The uncached miss computation: per-channel absmax scales exactly as
/// make_weight_params builds them (absmax_per_channel, zero-max channels
/// get scale 1), each contiguous channel block pushed through the batched
/// kernel with the same scale sanitization fp8_quantize_scaled
/// applies. Bit-identical to the uncached path; the tally is always
/// collected so a later hit can replay it.
///
/// Also produces the PACKED form of the result: codes are encoded from the
/// ORIGINAL values with the same sanitized scales before the in-place
/// overwrite, then every element is verified -- decode(code) * (1/scale)
/// must reproduce the quantized payload bit for bit (verified against the
/// reference decode table, which all dispatch tiers are tested bit-equal
/// to). Returns null when verification fails (NaN payloads survive fake
/// quantization but cannot round-trip an 8-bit code); the in-place result
/// is bit-identical to the uncached path either way.
std::shared_ptr<const PackedFp8Tensor> quantize_standard(Tensor& w, DType dtype,
                                                         CastTally* tally) {
  const auto maxima = absmax_per_channel(w, 0);
  const std::int64_t channels = w.size(0);
  const std::int64_t block = w.numel() / channels;
  const float fmax = fp8_spec(dtype).max_value();
  std::vector<float> scales(static_cast<std::size_t>(channels));
  for (std::size_t c = 0; c < scales.size(); ++c) {
    float scale = maxima[c] > 0.0f ? fmax / maxima[c] : 1.0f;
    if (!(scale > 0.0f) || !std::isfinite(scale)) scale = 1.0f;
    scales[c] = scale;
  }
  const Fp8Kind kind = fp8_kind(dtype);
  auto packed = std::make_shared<PackedFp8Tensor>(
      PackedFp8Tensor::pack_per_channel_scaled(w, kind, scales));
  const FastCastSpec& spec = fast_cast_spec(kind);
  auto data = w.flat();
  for (std::int64_t c = 0; c < channels; ++c) {
    auto span = data.subspan(static_cast<std::size_t>(c * block),
                             static_cast<std::size_t>(block));
    fp8_quantize_batch(span, span, spec, scales[static_cast<std::size_t>(c)], tally);
  }
  const Fp8DecodeTable& lut = fp8_decode_table(kind);
  const std::uint8_t* codes = packed->codes().data();
  for (std::int64_t c = 0; c < channels; ++c) {
    const float inv = 1.0f / scales[static_cast<std::size_t>(c)];
    const float* payload = data.data() + c * block;
    const std::uint8_t* crow = codes + c * block;
    for (std::int64_t i = 0; i < block; ++i) {
      if (std::bit_cast<std::uint32_t>(lut.values[crow[i]] * inv) !=
          std::bit_cast<std::uint32_t>(payload[i])) {
        return nullptr;
      }
    }
  }
  return packed;
}

void replay_tally(const CastTally& tally, ObsFormat fmt) {
  if (!counters_enabled()) return;
  counter_add(fmt, ObsEvent::kQuantized, tally.quantized);
  counter_add(fmt, ObsEvent::kSaturated, tally.saturated);
  counter_add(fmt, ObsEvent::kFlushedToZero, tally.flushed);
}

/// Writes a hit's payload into w. FP32 fallback entries memcpy; packed
/// entries decode each channel through the dispatched kernel. Every tier
/// decodes bit-identically (docs/KERNELS.md), so the delivered payload --
/// already verified equal to the miss-time bits at insert -- does not
/// depend on FP8Q_ISA. Called WITHOUT the cache mutex: both payload forms
/// are shared_ptr-pinned by the caller, so delivery races nothing -- the
/// mutex stays a pure bookkeeping lock, the only cross-job serialization
/// point the fp8qd scheduler has (docs/THREADING.md).
void deliver_payload(const std::shared_ptr<const PackedFp8Tensor>& packed,
                     const std::shared_ptr<const std::vector<float>>& fp32, Tensor& w) {
  float* dst = w.flat().data();
  if (packed) {
    const PackedFp8Tensor& p = *packed;
    const auto channels = static_cast<std::int64_t>(p.scales().size());
    const std::int64_t block = static_cast<std::int64_t>(p.codes().size()) / channels;
    const PackedKernelTable& kt = packed_kernels(isa_tier());
    for (std::int64_t c = 0; c < channels; ++c) {
      kt.decode_mul(p.codes().data() + c * block,
                    1.0f / p.scales()[static_cast<std::size_t>(c)], dst + c * block,
                    block, p.kind());
    }
    kernel_counter_add(ObsKernelPath::kCacheDecode, 1);
  } else {
    std::memcpy(dst, fp32->data(), fp32->size() * sizeof(float));
  }
}

void count_bypass() {
  Cache& c = cache();
  {
    std::lock_guard<std::mutex> lock(c.mutex);
    ++c.stats.bypasses;
  }
  cache_counter_add(ObsCacheEvent::kBypass, 1);
}

}  // namespace

std::shared_ptr<const PackedFp8Tensor> quantize_weight_cached(Tensor& w, DType dtype,
                                                              Granularity granularity,
                                                              int axis) {
  // Only the standard paper recipe is cached (and packable). Everything
  // else -- FP32 no-op, INT8, per-tensor/group, nonzero axis -- computes
  // directly through the uncached kernels.
  const bool standard = is_fp8(dtype) && granularity == Granularity::kPerChannel &&
                        axis == 0 && w.dim() >= 1 && w.size(0) > 0 && !w.empty();
  if (!standard) {
    if (dtype != DType::kFP32) count_bypass();
    const auto params = make_weight_params(w, dtype, granularity, axis);
    apply_quant_inplace(w, params);
    return nullptr;
  }
  if (weight_cache_capacity_bytes() <= 0) {
    // Caching disabled: still a bypass for the cache, but the packed form
    // is built and verified anyway -- FP8Q_WEIGHT_CACHE_MB=0 turns off
    // retention, not packed compute.
    count_bypass();
    CastTally tally;
    auto packed = quantize_standard(w, dtype, &tally);
    replay_tally(tally, fast_cast_spec(fp8_kind(dtype)).obs_fmt);
    return packed;
  }

  TraceSpan span("quant/weight-cache");
  Cache& c = cache();
  // Hit/miss latency histograms (latency/cache_*): observational
  // wall-clock from here through payload delivery, recorded only when
  // histograms are on so the disabled path stays a branch-on-atomic.
  const bool histed = histograms_enabled();
  const std::uint64_t t0 = histed ? obs_now_ns() : 0;
  const TensorIdentity ident = w.identity();

  // Resolve the content hash: memo first, rehash on miss.
  Hash128 content;
  bool memo_hit = false;
  {
    std::lock_guard<std::mutex> lock(c.mutex);
    auto mit = c.memo.find(ident.id);
    if (mit != c.memo.end() && mit->second.version == ident.version) {
      content = mit->second.content;
      memo_hit = true;
    }
  }
  if (!memo_hit) {
    content = hash_tensor(w);
    std::lock_guard<std::mutex> lock(c.mutex);
    if (c.memo.size() >= kMemoCap) c.memo.clear();
    c.memo[ident.id] = MemoEntry{ident.version, content};
  }
  const Key key{content, dtype};
  {
    // Hit path: the lock covers only the lookup and LRU/stat bookkeeping.
    // Payload delivery and tally replay happen after release, against the
    // pinned shared_ptrs -- with N concurrent jobs, decode work (the
    // expensive part of a hit) overlaps freely, and the replayed counters
    // land in the *calling* job's observation domain (obs/domain.h).
    std::shared_ptr<const PackedFp8Tensor> hit_packed;
    std::shared_ptr<const std::vector<float>> hit_fp32;
    CastTally hit_tally;
    ObsFormat hit_fmt = ObsFormat::kOther;
    bool hit = false;
    {
      std::lock_guard<std::mutex> lock(c.mutex);
      auto it = c.map.find(key);
      if (it != c.map.end() && it->second.shape == w.shape()) {
        Entry& e = it->second;
        c.lru.splice(c.lru.begin(), c.lru, e.lru_it);
        ++c.stats.hits;
        cache_counter_add(ObsCacheEvent::kHit, 1);
        hit_packed = e.packed;
        hit_fp32 = e.data;
        hit_tally = e.tally;
        hit_fmt = e.fmt;
        hit = true;
      }
    }
    if (hit) {
      // Writing through flat() re-dirties w -- correct: its contents
      // change from the hashed state to the quantized state.
      deliver_payload(hit_packed, hit_fp32, w);
      replay_tally(hit_tally, hit_fmt);
      if (histed) {
        hist_record(HistChannel::kCacheHitNs, static_cast<double>(obs_now_ns() - t0));
      }
      return hit_packed;
    }
  }

  // Miss: quantize in place (bit-identical to the uncached path), then
  // insert the verified packed form -- or, if verification failed, an FP32
  // copy of the result.
  Entry fresh;
  fresh.shape = w.shape();
  fresh.fmt = fast_cast_spec(fp8_kind(dtype)).obs_fmt;
  std::shared_ptr<const PackedFp8Tensor> packed;
  {
    CastTally tally;
    packed = quantize_standard(w, dtype, &tally);
    fresh.tally = tally;
    if (packed) {
      fresh.packed = packed;
    } else {
      const auto data = std::as_const(w).flat();
      fresh.data = std::make_shared<const std::vector<float>>(data.begin(), data.end());
    }
  }
  replay_tally(fresh.tally, fresh.fmt);

  std::lock_guard<std::mutex> lock(c.mutex);
  ++c.stats.misses;
  cache_counter_add(ObsCacheEvent::kMiss, 1);
  const std::int64_t cost = entry_bytes(fresh);
  if (cost <= c.capacity) {
    auto [it, inserted] = c.map.try_emplace(key);
    if (!inserted) {
      // Raced with another thread (or a shape-mismatched stale entry):
      // replace the payload, keep the LRU node.
      c.bytes -= entry_bytes(it->second);
      fresh.lru_it = it->second.lru_it;
      c.lru.splice(c.lru.begin(), c.lru, fresh.lru_it);
    } else {
      c.lru.push_front(key);
      fresh.lru_it = c.lru.begin();
    }
    it->second = std::move(fresh);
    c.bytes += cost;
    evict_until_within(c);
  }
  c.stats.bytes = static_cast<std::uint64_t>(c.bytes);
  c.stats.entries = static_cast<std::uint64_t>(c.map.size());
  if (histed) {
    hist_record(HistChannel::kCacheMissNs, static_cast<double>(obs_now_ns() - t0));
  }
  return packed;
}

WeightCacheStats weight_cache_stats() {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.mutex);
  return c.stats;
}

void weight_cache_clear() {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.mutex);
  c.map.clear();
  c.lru.clear();
  c.memo.clear();
  c.bytes = 0;
  c.stats.bytes = 0;
  c.stats.entries = 0;
}

std::int64_t weight_cache_capacity_bytes() {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.mutex);
  return c.capacity;
}

void set_weight_cache_capacity_bytes(std::int64_t bytes) {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.mutex);
  c.capacity = bytes < 0 ? env_capacity_bytes() : bytes;
  evict_until_within(c);
}

}  // namespace fp8q
