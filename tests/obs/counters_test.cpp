// Quantization-event counter semantics (src/obs/counters.h): totals must
// be independent of thread count, cost nothing when disabled, and keep the
// counts of threads that have exited.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/parallel.h"
#include "fp8/cast.h"
#include "fp8/cast_fast.h"
#include "fp8/convert.h"
#include "fp8/int8.h"
#include "obs/counters.h"
#include "obs/domain.h"

namespace fp8q {
namespace {

struct ObsGuard {
  ~ObsGuard() {
    set_num_threads(0);
    set_counters_enabled(false);
    counters_reset();
  }
};

/// Input with a known event census: `sat` saturating values, `flush`
/// flush-to-zero values, the rest ordinary. Large enough to cross the bulk
/// cast's 16384-element chunk grain several times.
std::vector<float> census_input(std::size_t n, std::size_t sat, std::size_t flush) {
  std::vector<float> in(n, 1.0f);
  for (std::size_t i = 0; i < sat; ++i) in[i] = 1000.0f;  // > E4M3 max (448)
  for (std::size_t i = 0; i < flush; ++i) in[sat + i] = 1e-12f;
  return in;
}

TEST(Counters, BulkCastTotalsIndependentOfThreadCount) {
  ObsGuard guard;
  set_counters_enabled(true);
  const std::size_t n = 1 << 17;
  const std::size_t sat = 1000;
  const std::size_t flush = 2000;
  const auto in = census_input(n, sat, flush);
  std::vector<float> out(n);

  for (int threads : {1, 8}) {
    set_num_threads(threads);
    const CounterSnapshot before = counters_snapshot();
    fp8_quantize_scaled(in, out, fast_cast_spec(Fp8Kind::E4M3), 1.0f);
    const CounterSnapshot delta = counters_snapshot().since(before);
    EXPECT_EQ(delta.get(ObsFormat::kE4M3, ObsEvent::kQuantized), n) << threads;
    EXPECT_EQ(delta.get(ObsFormat::kE4M3, ObsEvent::kSaturated), sat) << threads;
    EXPECT_EQ(delta.get(ObsFormat::kE4M3, ObsEvent::kFlushedToZero), flush) << threads;
    EXPECT_EQ(delta.get(ObsFormat::kE4M3, ObsEvent::kNanProduced), 0u) << threads;
  }
}

TEST(Counters, ConvertAttributesEventsToTargetFormat) {
  ObsGuard guard;
  set_counters_enabled(true);
  // E4M3's max (448) saturates when narrowed to E3M4 (max 30).
  const std::uint8_t big = fp8_encode(448.0f, format_spec(Fp8Kind::E4M3));
  const std::vector<std::uint8_t> in(10, big);
  std::vector<std::uint8_t> out(in.size());

  const CounterSnapshot before = counters_snapshot();
  fp8_convert(in, out, format_spec(Fp8Kind::E4M3), format_spec(Fp8Kind::E3M4));
  const CounterSnapshot delta = counters_snapshot().since(before);
  EXPECT_EQ(delta.get(ObsFormat::kE3M4, ObsEvent::kQuantized), in.size());
  EXPECT_EQ(delta.get(ObsFormat::kE3M4, ObsEvent::kSaturated), in.size());
}

TEST(Counters, Int8SaturationAndFlush) {
  ObsGuard guard;
  set_counters_enabled(true);
  const Int8Params p = int8_symmetric_params(1.0f);  // scale = 1/127
  const std::vector<float> in = {2.0f, -3.0f, 1e-6f, 0.5f, 0.0f};
  std::vector<float> out(in.size());

  const CounterSnapshot before = counters_snapshot();
  int8_quantize(in, out, p);
  const CounterSnapshot delta = counters_snapshot().since(before);
  EXPECT_EQ(delta.get(ObsFormat::kInt8, ObsEvent::kQuantized), in.size());
  EXPECT_EQ(delta.get(ObsFormat::kInt8, ObsEvent::kSaturated), 2u);
  EXPECT_EQ(delta.get(ObsFormat::kInt8, ObsEvent::kFlushedToZero), 1u);
}

TEST(Counters, DisabledCountsNothing) {
  ObsGuard guard;
  set_counters_enabled(false);
  counters_reset();
  const auto in = census_input(1 << 15, 100, 100);
  std::vector<float> out(in.size());
  fp8_quantize_scaled(in, out, fast_cast_spec(Fp8Kind::E4M3), 1.0f);
  fp8_quantize_scaled(in, out, fast_cast_spec(Fp8Kind::E3M4), 1.0f);
  int8_quantize(in, out, int8_symmetric_params(1.0f));
  EXPECT_FALSE(counters_snapshot().any());
}

TEST(Counters, ExitedThreadsFoldIntoRetiredTotals) {
  ObsGuard guard;
  set_counters_enabled(true);
  counters_reset();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back(
        [] { counter_add(ObsFormat::kOther, ObsEvent::kQuantized, 10); });
  }
  for (auto& t : threads) t.join();
  // All four threads are gone; the root domain still holds their counts.
  EXPECT_EQ(counters_snapshot().get(ObsFormat::kOther, ObsEvent::kQuantized), 40u);
}

TEST(Counters, ResetZeroesEverything) {
  ObsGuard guard;
  set_counters_enabled(true);
  counter_add(ObsFormat::kE5M2, ObsEvent::kSaturated, 7);
  EXPECT_TRUE(counters_snapshot().any());
  counters_reset();
  EXPECT_FALSE(counters_snapshot().any());
}

TEST(KernelCounters, AlwaysOnAddSnapshotReset) {
  // Kernel-path counters are per-op-forward events: always on (no enable
  // gate), and reset independently of the quantization counters.
  kernel_counters_reset();
  EXPECT_FALSE(kernel_counters_snapshot().any());
  kernel_counter_add(ObsKernelPath::kLinearPacked, 3);
  kernel_counter_add(ObsKernelPath::kMatmulFp32, 1);
  const auto snap = kernel_counters_snapshot();
  EXPECT_TRUE(snap.any());
  EXPECT_EQ(snap.get(ObsKernelPath::kLinearPacked), 3u);
  EXPECT_EQ(snap.get(ObsKernelPath::kMatmulFp32), 1u);
  EXPECT_EQ(snap.get(ObsKernelPath::kConvPacked), 0u);
  kernel_counters_reset();
  EXPECT_FALSE(kernel_counters_snapshot().any());
}

TEST(KernelCounters, PathNamesAreStable) {
  // report.json keys -- renaming one breaks downstream report consumers.
  EXPECT_STREQ(to_string(ObsKernelPath::kLinearPacked), "linear_packed");
  EXPECT_STREQ(to_string(ObsKernelPath::kLinearFp32), "linear_fp32");
  EXPECT_STREQ(to_string(ObsKernelPath::kConvPacked), "conv_packed");
  EXPECT_STREQ(to_string(ObsKernelPath::kConvFp32), "conv_fp32");
  EXPECT_STREQ(to_string(ObsKernelPath::kMatmulPacked), "matmul_packed");
  EXPECT_STREQ(to_string(ObsKernelPath::kMatmulFp32), "matmul_fp32");
  EXPECT_STREQ(to_string(ObsKernelPath::kCacheDecode), "cache_decode");
}

// --- The 1-D families (cache events, kernel paths): one EventCounts type --

/// One family's public entry points, so a typed test covers both.
struct CacheFamily {
  using Snapshot = CacheCounterSnapshot;
  static void add(ObsCacheEvent event, std::uint64_t n) { cache_counter_add(event, n); }
  static Snapshot snapshot() { return cache_counters_snapshot(); }
  static void reset() { cache_counters_reset(); }
};

struct KernelFamily {
  using Snapshot = KernelCounterSnapshot;
  static void add(ObsKernelPath path, std::uint64_t n) { kernel_counter_add(path, n); }
  static Snapshot snapshot() { return kernel_counters_snapshot(); }
  static void reset() { kernel_counters_reset(); }
};

template <typename Family>
class EventCountFamily : public ::testing::Test {
 protected:
  void SetUp() override { Family::reset(); }
  void TearDown() override { Family::reset(); }
};

using Families = ::testing::Types<CacheFamily, KernelFamily>;
TYPED_TEST_SUITE(EventCountFamily, Families);

TYPED_TEST(EventCountFamily, SinceSaturatesPerCellAfterAReset) {
  using Snapshot = typename TypeParam::Snapshot;
  using Event = typename Snapshot::Event;
  for (int e = 0; e < Snapshot::kCount; ++e) {
    TypeParam::add(static_cast<Event>(e), 10 + static_cast<std::uint64_t>(e));
  }
  const Snapshot before = TypeParam::snapshot();
  TypeParam::reset();
  TypeParam::add(static_cast<Event>(0), 25);  // regrew past its old 10
  TypeParam::add(static_cast<Event>(1), 3);   // still below its old 11
  const Snapshot delta = TypeParam::snapshot().since(before);
  EXPECT_EQ(delta.counts[0], 15u);
  for (int e = 1; e < Snapshot::kCount; ++e) EXPECT_EQ(delta.counts[e], 0u) << e;
}

TYPED_TEST(EventCountFamily, AnyAndEqualityLookAtEveryCell) {
  using Snapshot = typename TypeParam::Snapshot;
  const Snapshot zero;
  EXPECT_FALSE(zero.any());
  EXPECT_TRUE(zero == Snapshot{});
  for (int e = 0; e < Snapshot::kCount; ++e) {
    Snapshot one;
    one.counts[e] = 1;
    EXPECT_TRUE(one.any()) << e;
    EXPECT_FALSE(one == zero) << e;
    EXPECT_EQ(one.get(static_cast<typename Snapshot::Event>(e)), 1u) << e;
  }
}

TYPED_TEST(EventCountFamily, DomainFoldConservesEveryCell) {
  using Snapshot = typename TypeParam::Snapshot;
  using Event = typename Snapshot::Event;
  for (int e = 0; e < Snapshot::kCount; ++e) {
    TypeParam::add(static_cast<Event>(e), 100 + static_cast<std::uint64_t>(e));
  }
  const Snapshot global_before = TypeParam::snapshot();
  CounterDomain domain;
  {
    ScopedCounterDomain bind(&domain);
    EXPECT_FALSE(TypeParam::snapshot().any());  // the domain's view, not the globals
    for (int e = 0; e < Snapshot::kCount; ++e) {
      TypeParam::add(static_cast<Event>(e), 1 + static_cast<std::uint64_t>(e));
    }
  }
  EXPECT_TRUE(TypeParam::snapshot() == global_before);  // isolated until the fold
  domain.fold_into_global();
  const Snapshot delta = TypeParam::snapshot().since(global_before);
  for (int e = 0; e < Snapshot::kCount; ++e) {
    EXPECT_EQ(delta.counts[e], 1u + static_cast<std::uint64_t>(e)) << e;
  }
  ScopedCounterDomain bind(&domain);
  EXPECT_FALSE(TypeParam::snapshot().any());  // moved out, not copied
}

}  // namespace
}  // namespace fp8q
