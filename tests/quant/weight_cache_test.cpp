// Cross-trial quantized-weight cache: hits must be bit-identical to the
// uncached computation, mutated tensors must never serve stale entries,
// and counter totals must be independent of the hit/miss pattern.
#include "quant/weight_cache.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "obs/counters.h"
#include "quant/quantizer.h"
#include "tensor/rng.h"

namespace fp8q {
namespace {

Tensor make_weight(std::uint64_t seed, Shape shape = {8, 32}) {
  Rng rng(seed);
  return randn(rng, std::move(shape));
}

/// The uncached reference result for the cached recipe.
Tensor uncached_quantize(const Tensor& w, DType dtype) {
  Tensor copy = w;
  apply_quant_inplace(copy, make_weight_params(copy, dtype, Granularity::kPerChannel, 0));
  return copy;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.numel(), b.numel());
  const auto fa = a.flat();
  const auto fb = b.flat();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(fa[i]), std::bit_cast<std::uint32_t>(fb[i]))
        << i;
  }
}

class WeightCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    weight_cache_clear();
    set_weight_cache_capacity_bytes(64 << 20);
    start_ = weight_cache_stats();
  }
  void TearDown() override {
    weight_cache_clear();
    set_weight_cache_capacity_bytes(-1);  // restore the env/default capacity
    set_counters_enabled(false);
  }

  /// Stats delta since SetUp (the cache totals are process-wide).
  [[nodiscard]] WeightCacheStats delta() const {
    const auto now = weight_cache_stats();
    WeightCacheStats d;
    d.hits = now.hits - start_.hits;
    d.misses = now.misses - start_.misses;
    d.evictions = now.evictions - start_.evictions;
    d.bypasses = now.bypasses - start_.bypasses;
    d.bytes = now.bytes;
    d.entries = now.entries;
    return d;
  }

 private:
  WeightCacheStats start_;
};

TEST_F(WeightCacheTest, MissThenHitIsBitIdenticalToUncached) {
  const Tensor base = make_weight(1);
  const Tensor expected = uncached_quantize(base, DType::kE4M3);

  Tensor w1 = base;
  quantize_weight_cached(w1, DType::kE4M3);
  expect_bitwise_equal(w1, expected);
  EXPECT_EQ(delta().misses, 1u);
  EXPECT_EQ(delta().hits, 0u);

  // A distinct tensor with identical contents hits by content hash.
  Tensor w2 = make_weight(1);
  quantize_weight_cached(w2, DType::kE4M3);
  expect_bitwise_equal(w2, expected);
  EXPECT_EQ(delta().misses, 1u);
  EXPECT_EQ(delta().hits, 1u);
}

TEST_F(WeightCacheTest, DtypeIsPartOfTheKey) {
  Tensor w1 = make_weight(2);
  Tensor w2 = make_weight(2);
  quantize_weight_cached(w1, DType::kE4M3);
  quantize_weight_cached(w2, DType::kE3M4);
  EXPECT_EQ(delta().misses, 2u);
  EXPECT_EQ(delta().hits, 0u);
  expect_bitwise_equal(w2, uncached_quantize(make_weight(2), DType::kE3M4));
}

TEST_F(WeightCacheTest, EveryMutatorInvalidates) {
  struct NamedMutator {
    const char* name;
    void (*apply)(Tensor&);
  };
  const NamedMutator mutators[] = {
      {"fill", [](Tensor& t) { t.fill(0.25f); }},
      {"scale", [](Tensor& t) { t.scale(3.0f); }},
      {"add_scalar", [](Tensor& t) { t.add_scalar(0.125f); }},
      {"flat", [](Tensor& t) { t.flat()[0] = 17.0f; }},
      {"data", [](Tensor& t) { t.data()[1] = -9.0f; }},
      {"index", [](Tensor& t) { t[2] = 4.5f; }},
      {"at", [](Tensor& t) { t.at({1, 1}) = -2.0f; }},
  };
  for (const auto& m : mutators) {
    Tensor w = make_weight(3);
    quantize_weight_cached(w, DType::kE4M3);  // warm the cache on the base

    Tensor v = make_weight(3);
    (void)v.identity();  // stamp, then mutate: version must move
    const auto before = v.identity();
    m.apply(v);
    const auto after = v.identity();
    EXPECT_EQ(before.id, after.id) << m.name;
    EXPECT_NE(before.version, after.version) << m.name;

    const Tensor expected = uncached_quantize(v, DType::kE4M3);
    quantize_weight_cached(v, DType::kE4M3);
    expect_bitwise_equal(v, expected);  // never the stale base payload
  }
}

TEST_F(WeightCacheTest, CopyAdoptsIdentity) {
  Tensor w = make_weight(4);
  const auto ident = w.identity();
  Tensor copy = w;
  EXPECT_EQ(copy.identity().id, ident.id);
  EXPECT_EQ(copy.identity().version, ident.version);

  // Copy-assignment adopts too (the restore-from-backup path).
  Tensor other = make_weight(5);
  other = w;
  EXPECT_EQ(other.identity().id, ident.id);
  EXPECT_EQ(other.identity().version, ident.version);
}

TEST_F(WeightCacheTest, CapacityEvictsLeastRecentlyUsed) {
  // Entries are charged their ACTUAL bytes, and standard-recipe entries
  // store packed codes: an {8, 32} entry costs 8*32 code bytes + 8*4
  // scale bytes + 64 overhead = 352 bytes (vs 1088 for FP32). Cap at two.
  set_weight_cache_capacity_bytes(2 * (8 * 32 + 8 * 4 + 64));
  Tensor a = make_weight(10);
  Tensor b = make_weight(11);
  Tensor c = make_weight(12);
  quantize_weight_cached(a, DType::kE4M3);
  quantize_weight_cached(b, DType::kE4M3);
  quantize_weight_cached(c, DType::kE4M3);  // evicts the oldest (a)
  EXPECT_EQ(delta().evictions, 1u);
  EXPECT_EQ(delta().entries, 2u);

  Tensor b2 = make_weight(11);
  quantize_weight_cached(b2, DType::kE4M3);
  EXPECT_EQ(delta().hits, 1u);  // b survived

  Tensor a2 = make_weight(10);
  quantize_weight_cached(a2, DType::kE4M3);  // a was evicted: a miss again
  EXPECT_EQ(delta().misses, 4u);
  expect_bitwise_equal(a2, uncached_quantize(make_weight(10), DType::kE4M3));
}

TEST_F(WeightCacheTest, UncacheableRequestsBypass) {
  Tensor w = make_weight(6);
  quantize_weight_cached(w, DType::kE4M3, Granularity::kPerTensor);
  Tensor v = make_weight(6);
  quantize_weight_cached(v, DType::kINT8);
  EXPECT_EQ(delta().bypasses, 2u);
  EXPECT_EQ(delta().misses, 0u);
  // Bypass still computes the right answer.
  Tensor ref = make_weight(6);
  apply_quant_inplace(ref, make_weight_params(ref, DType::kINT8, Granularity::kPerChannel, 0));
  expect_bitwise_equal(v, ref);

  // FP32 is a no-op, not even a bypass event.
  Tensor f = make_weight(6);
  quantize_weight_cached(f, DType::kFP32);
  EXPECT_EQ(delta().bypasses, 2u);
  expect_bitwise_equal(f, make_weight(6));
}

TEST_F(WeightCacheTest, ZeroCapacityDisablesCaching) {
  set_weight_cache_capacity_bytes(0);
  Tensor w = make_weight(7);
  quantize_weight_cached(w, DType::kE4M3);
  EXPECT_EQ(delta().misses, 0u);
  EXPECT_EQ(delta().entries, 0u);
  EXPECT_EQ(delta().bypasses, 1u);
  expect_bitwise_equal(w, uncached_quantize(make_weight(7), DType::kE4M3));
}

TEST_F(WeightCacheTest, HitsReplayTheMissTally) {
  set_counters_enabled(true);
  counters_reset();
  Tensor w1 = make_weight(8);
  quantize_weight_cached(w1, DType::kE4M3);  // miss: counts the real events
  const CounterSnapshot miss_counts = counters_snapshot();
  EXPECT_GT(miss_counts.get(ObsFormat::kE4M3, ObsEvent::kQuantized), 0u);

  counters_reset();
  Tensor w2 = make_weight(8);
  quantize_weight_cached(w2, DType::kE4M3);  // hit: replays the same tally
  const CounterSnapshot hit_counts = counters_snapshot();
  EXPECT_TRUE(miss_counts == hit_counts);
}

TEST_F(WeightCacheTest, EventsMirrorIntoObsCacheCounters) {
  const auto before = cache_counters_snapshot();
  Tensor w1 = make_weight(9);
  quantize_weight_cached(w1, DType::kE4M3);
  Tensor w2 = make_weight(9);
  quantize_weight_cached(w2, DType::kE4M3);
  const auto after = cache_counters_snapshot();
  EXPECT_EQ(after.get(ObsCacheEvent::kMiss) - before.get(ObsCacheEvent::kMiss), 1u);
  EXPECT_EQ(after.get(ObsCacheEvent::kHit) - before.get(ObsCacheEvent::kHit), 1u);
}

TEST_F(WeightCacheTest, PackedEntriesAreRoughlyQuarterOfFp32Bytes) {
  Tensor w = make_weight(20, {16, 64});
  quantize_weight_cached(w, DType::kE4M3);
  ASSERT_EQ(delta().entries, 1u);
  // 16*64 code bytes + 16*4 scale bytes + 64 overhead, far below the
  // 16*64*4 + 64 an FP32 payload would charge.
  EXPECT_EQ(delta().bytes, 16u * 64u + 16u * 4u + 64u);
}

TEST_F(WeightCacheTest, PackedHandleDecodesBitIdenticalOnMissAndHit) {
  Tensor w1 = make_weight(21);
  const auto p1 = quantize_weight_cached(w1, DType::kE4M3);
  ASSERT_NE(p1, nullptr);
  expect_bitwise_equal(w1, uncached_quantize(make_weight(21), DType::kE4M3));
  expect_bitwise_equal(p1->unpack(), w1);  // codes decode to the payload

  Tensor w2 = make_weight(21);
  const auto p2 = quantize_weight_cached(w2, DType::kE4M3);
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(delta().hits, 1u);
  EXPECT_EQ(p2.get(), p1.get());  // the hit shares the cached codes
  expect_bitwise_equal(w2, w1);
}

TEST_F(WeightCacheTest, ZeroCapacityStillReturnsPackedCodes) {
  // FP8Q_WEIGHT_CACHE_MB=0 turns off retention, not packed compute: the
  // graph still gets codes to attach, recomputed per call.
  set_weight_cache_capacity_bytes(0);
  Tensor w = make_weight(22);
  const auto packed = quantize_weight_cached(w, DType::kE3M4);
  ASSERT_NE(packed, nullptr);
  EXPECT_EQ(delta().entries, 0u);
  EXPECT_EQ(delta().bypasses, 1u);
  expect_bitwise_equal(w, uncached_quantize(make_weight(22), DType::kE3M4));
  expect_bitwise_equal(packed->unpack(), w);
}

TEST_F(WeightCacheTest, NonFinitePayloadFallsBackToFp32Entry) {
  // Fake quantization passes NaN payloads through, but a code can only
  // decode to the canonical quiet NaN -- a negative NaN with payload bits
  // cannot round-trip, so the insert-time verification must reject the
  // packed form: the entry stores FP32 and the packed handle is null. The
  // cached payload still matches uncached exactly.
  Tensor w = make_weight(23);
  w.flat()[5] = std::bit_cast<float>(0xFFC00001u);
  Tensor copy = w;
  const auto packed = quantize_weight_cached(copy, DType::kE4M3);
  EXPECT_EQ(packed, nullptr);
  expect_bitwise_equal(copy, uncached_quantize(w, DType::kE4M3));

  // And the FP32 fallback entry serves hits bit-identically too.
  Tensor again = w;
  EXPECT_EQ(quantize_weight_cached(again, DType::kE4M3), nullptr);
  EXPECT_EQ(delta().hits, 1u);
  expect_bitwise_equal(again, copy);
}

TEST_F(WeightCacheTest, NonStandardRecipeYieldsNoPackedHandle) {
  Tensor w = make_weight(24);
  EXPECT_EQ(quantize_weight_cached(w, DType::kINT8), nullptr);
  Tensor v = make_weight(24);
  EXPECT_EQ(quantize_weight_cached(v, DType::kE4M3, Granularity::kPerTensor), nullptr);
  EXPECT_EQ(delta().bypasses, 2u);
}

TEST_F(WeightCacheTest, PackedHitsCountTheCacheDecodePath) {
  kernel_counters_reset();
  Tensor w1 = make_weight(25);
  quantize_weight_cached(w1, DType::kE4M3);  // miss: no decode
  EXPECT_EQ(kernel_counters_snapshot().get(ObsKernelPath::kCacheDecode), 0u);
  Tensor w2 = make_weight(25);
  quantize_weight_cached(w2, DType::kE4M3);  // hit: served by decoding codes
  EXPECT_EQ(kernel_counters_snapshot().get(ObsKernelPath::kCacheDecode), 1u);
}

TEST_F(WeightCacheTest, IdentityMemoSkipsRehashAcrossRestore) {
  // The tuner's pattern: quantize, restore from a backup copy, quantize
  // again. The restored tensor carries the backup's identity, so the
  // second call memo-hits and must still produce the identical payload.
  Tensor w = make_weight(13);
  (void)w.identity();
  const Tensor backup = w;

  quantize_weight_cached(w, DType::kE4M3);
  const Tensor first = w;

  w = backup;  // restore: adopts the backup's (id, version)
  quantize_weight_cached(w, DType::kE4M3);
  expect_bitwise_equal(w, first);
  EXPECT_EQ(delta().hits, 1u);
  EXPECT_EQ(delta().misses, 1u);
}

}  // namespace
}  // namespace fp8q
