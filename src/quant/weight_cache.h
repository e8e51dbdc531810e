// Cross-trial quantized-weight cache (docs/PERFORMANCE.md).
//
// The accuracy-driven tuner (paper section 3.2) evaluates dozens of arm
// configs against the same model, and every trial re-quantizes the same
// weight tensors with the same per-channel recipe. This cache memoizes the
// result of the standard weight path -- per-channel symmetric absmax on
// axis 0 (make_weight_params + apply_quant_inplace) -- so repeat trials
// copy the quantized block instead of recomputing it.
//
// Correctness model (two levels, both keyed on CONTENT):
//   * An identity memo maps Tensor::identity() -- a (id, version) pair that
//     is invalidated by every observed mutation -- to the content hash, so
//     unchanged tensors skip even the rehash.
//   * The main map keys on a 128-bit hash of (shape, element bits) plus the
//     target dtype; the stored shape is compared on every hit, so a
//     colliding or stale identity can never serve wrong data. A mutated
//     weight gets a fresh version, misses the memo, rehashes, and matches
//     only if the bytes are genuinely identical.
//
// Determinism: the cached payload is the bit-exact output of the uncached
// kernels, and every entry stores the quantization-event tally computed at
// miss time; hits replay it into the counters, so counter totals are
// independent of hit/miss patterns and identical to an uncached run.
//
// Storage (docs/KERNELS.md): entries hold the PACKED form -- uint8 codes +
// per-channel scales, ~1/4 the bytes of the FP32 payload -- and a hit
// decodes them back through the dispatched decode kernel. Insertion
// verifies bit-for-bit that decoding the codes reproduces the quantized
// payload; weights where an 8-bit code cannot carry the payload (NaN
// payloads survive fake quantization but not an encode/decode round trip)
// fall back to storing the FP32 payload, so hits are unconditionally
// bit-exact either way. The verified packed form is also what
// quantize_weight_cached returns for the packed compute kernels.
//
// Capacity: bounded LRU, default 64 MB, configurable with the
// FP8Q_WEIGHT_CACHE_MB environment variable (0 disables caching) or
// programmatically via set_weight_cache_capacity_bytes. Capacity is
// accounted against each entry's ACTUAL bytes (packed entries cost
// codes + scales, ~numel bytes; FP32 fallback entries cost numel * 4), so
// a budget sized for FP32 entries now holds roughly 4x as many weights.
// Events are mirrored into the obs cache counters (cache_counter_add) and
// surface in the run report's "weight_cache" block.
#pragma once

#include <cstdint>
#include <memory>

#include "fp8/packed.h"
#include "quant/qconfig.h"
#include "tensor/tensor.h"

namespace fp8q {

/// Quantizes the main weight tensor in place through the cache. Equivalent
/// to apply_quant_inplace(w, make_weight_params(w, dtype, granularity,
/// axis)) bit-for-bit. Only the standard paper recipe (FP8 dtype,
/// per-channel, axis 0) is cached; anything else falls through to the
/// uncached path and counts as a bypass.
///
/// Also returns the verified packed form of the quantized weight --
/// decode(code) * (1/scale) reproduces w's new contents bit for bit -- for
/// attachment to an op's packed compute path (nn/packed_gemm.h). Returns
/// nullptr when the recipe is not the standard cached one or the weight
/// failed the decode check (e.g. NaN payloads); callers then stay on the
/// FP32 path. Works with the cache disabled (FP8Q_WEIGHT_CACHE_MB=0): the
/// packed form is built and verified either way, it just isn't retained.
std::shared_ptr<const PackedFp8Tensor> quantize_weight_cached(
    Tensor& w, DType dtype, Granularity granularity = Granularity::kPerChannel,
    int axis = 0);

/// Point-in-time cache statistics (process-wide).
struct WeightCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bypasses = 0;
  std::uint64_t bytes = 0;    ///< current payload bytes resident
  std::uint64_t entries = 0;  ///< current entry count
};

[[nodiscard]] WeightCacheStats weight_cache_stats();

/// Drops every entry and the identity memo; keeps the event totals.
void weight_cache_clear();

/// Current capacity in bytes (0 = caching disabled).
[[nodiscard]] std::int64_t weight_cache_capacity_bytes();

/// Sets the capacity; evicts immediately if shrinking. Negative restores
/// the FP8Q_WEIGHT_CACHE_MB / built-in default.
void set_weight_cache_capacity_bytes(std::int64_t bytes);

}  // namespace fp8q
