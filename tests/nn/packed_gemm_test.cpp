// Packed FP8 GEMM: the bit-exactness contract (docs/KERNELS.md). Every
// dispatch tier, at every thread count, over odd shapes, must reproduce
// the scalar reference bit for bit -- and the packed path must equal
// unpack-to-FP32 + MatMulOp(transpose_b) bit for bit.
#include "nn/packed_gemm.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/cpu_dispatch.h"
#include "core/parallel.h"
#include "fp8/packed.h"
#include "nn/conv.h"
#include "nn/matmul.h"
#include "obs/counters.h"
#include "tensor/rng.h"

namespace fp8q {
namespace {

/// Restores tier and thread-count overrides even when a test fails.
struct DispatchGuard {
  ~DispatchGuard() {
    reset_isa_tier();
    set_num_threads(0);  // 0 = restore the env/hardware default
  }
};

void expect_bitwise_equal(const Tensor& a, const Tensor& b, std::string_view what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  const auto fa = a.flat();
  const auto fb = b.flat();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(fa[i]), std::bit_cast<std::uint32_t>(fb[i]))
        << what << " at " << i;
  }
}

PackedWeightMatrix make_packed(std::uint64_t seed, std::int64_t n, std::int64_t k,
                               Fp8Kind kind) {
  Rng rng(seed);
  Tensor w = randn(rng, {n, k});
  return pack_gemm_weight(PackedFp8Tensor::pack_per_channel(w, kind));
}

/// x [m, k] times the packed weight's decode as B^T: y [m, n], no bias.
Tensor packed_gemm(const Tensor& x, const PackedWeightMatrix& w) {
  Tensor y({x.size(0), w.n});
  packed_gemm_forward(x.data(), w, nullptr, y.data(), x.size(0));
  return y;
}

TEST(PackGemmWeight, TransposesCodesKMajorAndInvertsScales) {
  Rng rng(2);
  Tensor w = randn(rng, {5, 7});  // [n, k]
  const auto packed = PackedFp8Tensor::pack_per_channel(w, Fp8Kind::E4M3);
  const PackedWeightMatrix g = pack_gemm_weight(packed);
  ASSERT_EQ(g.n, 5);
  ASSERT_EQ(g.k, 7);
  ASSERT_EQ(g.codes.size(), packed.codes().size());
  ASSERT_EQ(g.inv_scales.size(), 5u);
  for (std::int64_t j = 0; j < g.n; ++j) {
    EXPECT_EQ(g.inv_scales[j], 1.0f / packed.scales()[j]) << j;
    for (std::int64_t kk = 0; kk < g.k; ++kk) {
      EXPECT_EQ(g.codes[kk * g.n + j], packed.codes()[j * g.k + kk]) << j << "," << kk;
    }
  }
}

TEST(PackGemmWeight, PerTensorScaleBroadcastsToEveryChannel) {
  Rng rng(3);
  Tensor w = randn(rng, {4, 6});
  const auto packed = PackedFp8Tensor::pack_per_tensor(w, Fp8Kind::E5M2);
  const PackedWeightMatrix g = pack_gemm_weight(packed);
  ASSERT_EQ(g.inv_scales.size(), 4u);
  for (float inv : g.inv_scales) EXPECT_EQ(inv, 1.0f / packed.scales()[0]);
}

TEST(PackedKernels, DecodeMulAgreesAcrossTiersForAllCodes) {
  // All 256 codes through every tier's decode_mul with a non-trivial
  // reciprocal: bit-identical outputs (NaN codes decode to the canonical
  // quiet NaN, so even those compare equal as bits).
  std::vector<std::uint8_t> codes(256);
  for (int i = 0; i < 256; ++i) codes[i] = static_cast<std::uint8_t>(i);
  for (Fp8Kind kind : kAllFp8Kinds) {
    std::vector<float> ref(256);
    packed_kernels(IsaTier::kScalar).decode_mul(codes.data(), 0.375f, ref.data(), 256,
                                                kind);
    std::vector<float> out(256);
    packed_kernels(IsaTier::kNative).decode_mul(codes.data(), 0.375f, out.data(), 256, kind);
    for (int i = 0; i < 256; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(out[i]), std::bit_cast<std::uint32_t>(ref[i]))
          << to_string(kind) << " code " << i;
    }
  }
}

TEST(PackedGemm, AllTiersAndThreadCountsMatchTheScalarReference) {
  DispatchGuard guard;
  // Odd shapes on purpose: every remainder path (row quad tail, 8-wide
  // column tail, sub-8 decode tail) must hit the same contract.
  const struct {
    std::int64_t m, k, n;
  } shapes[] = {{1, 1, 1}, {3, 5, 7}, {4, 16, 8}, {7, 33, 17}, {13, 40, 25}};
  for (Fp8Kind kind : kAllFp8Kinds) {
    for (const auto& s : shapes) {
      const PackedWeightMatrix w = make_packed(11, s.n, s.k, kind);
      Rng rng(13);
      const Tensor x = randn(rng, {s.m, s.k});

      set_num_threads(1);
      set_isa_tier(IsaTier::kScalar);
      const Tensor ref = packed_gemm(x, w);

      for (IsaTier tier : {IsaTier::kScalar, IsaTier::kNative}) {
        for (int threads : {1, 4, 8}) {
          set_num_threads(threads);
          set_isa_tier(tier);
          const Tensor y = packed_gemm(x, w);
          expect_bitwise_equal(y, ref, to_string(kind));
        }
      }
    }
  }
}

TEST(PackedGemm, BiasFlowsThroughEveryTier) {
  DispatchGuard guard;
  const PackedWeightMatrix w = make_packed(17, 9, 21, Fp8Kind::E4M3);
  Rng rng(19);
  const Tensor x = randn(rng, {6, 21});
  const Tensor bias = randn(rng, {9});
  Tensor ref({6, 9});
  set_num_threads(1);
  set_isa_tier(IsaTier::kScalar);
  packed_gemm_forward(x.flat().data(), w, bias.flat().data(), ref.flat().data(), 6);
  set_isa_tier(IsaTier::kNative);
  for (int threads : {1, 8}) {
    set_num_threads(threads);
    Tensor y({6, 9});
    packed_gemm_forward(x.flat().data(), w, bias.flat().data(), y.flat().data(), 6);
    expect_bitwise_equal(y, ref, to_string(isa_tier()));
  }
}

TEST(PackedGemm, MatchesUnpackThenMatMulBitForBit) {
  // The equivalence the bench baseline measures: the packed GEMM must equal
  // dequantize-to-FP32 + MatMulOp with transpose_b exactly, so packed
  // compute is a performance choice, never a numerics change.
  DispatchGuard guard;
  for (Fp8Kind kind : kAllFp8Kinds) {
    Rng rng(23);
    Tensor wsrc = randn(rng, {10, 28});
    const auto packed = PackedFp8Tensor::pack_per_channel(wsrc, kind);
    const PackedWeightMatrix w = pack_gemm_weight(packed);
    const Tensor x = randn(rng, {5, 28});

    MatMulOp op(/*batched=*/false, /*transpose_b=*/true);
    const std::vector<Tensor> inputs = {x, packed.unpack()};
    const Tensor ref = op.forward(inputs);

    for (IsaTier tier : {IsaTier::kScalar, IsaTier::kNative}) {
      set_isa_tier(tier);
      expect_bitwise_equal(packed_gemm(x, w), ref, to_string(kind));
    }
  }
}

TEST(PackedConv, MatchesFp32ConvOnTheFakeQuantizedWeight) {
  // A packed Conv2dOp must equal the FP32 Conv2dOp run on the unpacked
  // (fake-quantized) weight, bit for bit, at every tier and thread count.
  DispatchGuard guard;
  Rng rng(29);
  const Tensor x = randn(rng, {3, 6, 7, 9});
  for (Fp8Kind kind : {Fp8Kind::E5M2, Fp8Kind::E4M3, Fp8Kind::E3M4}) {
    for (bool per_channel : {true, false}) {
      for (int groups : {1, 6}) {
        const Tensor wsrc = randn(rng, {6, 6 / groups, 3, 3});
        const Tensor bias = randn(rng, {6});
        const auto packed = per_channel ? PackedFp8Tensor::pack_per_channel(wsrc, kind)
                                        : PackedFp8Tensor::pack_per_tensor(wsrc, kind);
        Conv2dOp fp32(packed.unpack(), bias, 1, 1, groups);
        Conv2dOp op(wsrc, bias, 1, 1, groups);
        op.set_packed_weight(
            std::make_shared<const PackedConvWeight>(pack_conv_weight(packed)));
        ASSERT_TRUE(op.has_packed_weight());

        set_num_threads(1);
        set_isa_tier(IsaTier::kScalar);
        const Tensor ref = fp32.forward({&x, 1});
        for (IsaTier tier : {IsaTier::kScalar, IsaTier::kNative}) {
          for (int threads : {1, 4}) {
            set_num_threads(threads);
            set_isa_tier(tier);
            expect_bitwise_equal(op.forward({&x, 1}), ref,
                                 std::string(to_string(kind)) +
                                     (per_channel ? " per-channel" : " per-tensor") +
                                     " groups " + std::to_string(groups) + " tier " +
                                     to_string(tier) + " threads " + std::to_string(threads));
          }
        }
      }
    }
  }
}

TEST(PackedConv, RejectsMismatchedDimsAndClearsBackToFp32) {
  Rng rng(31);
  const Tensor wsrc = randn(rng, {4, 2, 3, 3});
  const Tensor bias = randn(rng, {4});
  const Tensor x = randn(rng, {2, 2, 5, 5});
  Conv2dOp op(wsrc, bias, 1, 1);
  const Tensor fp32_out = op.forward({&x, 1});

  // Wrong output-channel count, then wrong taps per channel.
  const auto wrong_oc = std::make_shared<const PackedConvWeight>(
      pack_conv_weight(PackedFp8Tensor::pack_per_channel(randn(rng, {3, 2, 3, 3}),
                                                         Fp8Kind::E4M3)));
  EXPECT_THROW(op.set_packed_weight(wrong_oc), std::invalid_argument);
  const auto wrong_taps = std::make_shared<const PackedConvWeight>(
      pack_conv_weight(PackedFp8Tensor::pack_per_channel(randn(rng, {4, 2, 1, 1}),
                                                         Fp8Kind::E4M3)));
  EXPECT_THROW(op.set_packed_weight(wrong_taps), std::invalid_argument);
  EXPECT_FALSE(op.has_packed_weight());

  op.set_packed_weight(std::make_shared<const PackedConvWeight>(
      pack_conv_weight(PackedFp8Tensor::pack_per_channel(wsrc, Fp8Kind::E4M3))));
  kernel_counters_reset();
  (void)op.forward({&x, 1});
  EXPECT_EQ(kernel_counters_snapshot().get(ObsKernelPath::kConvPacked), 1u);

  op.clear_packed_weight();
  EXPECT_FALSE(op.has_packed_weight());
  kernel_counters_reset();
  expect_bitwise_equal(op.forward({&x, 1}), fp32_out, "after clear");
  const KernelCounterSnapshot counts = kernel_counters_snapshot();
  EXPECT_EQ(counts.get(ObsKernelPath::kConvFp32), 1u);
  EXPECT_EQ(counts.get(ObsKernelPath::kConvPacked), 0u);
}

TEST(PackedGemm, NativeTierClampsWhenUnavailable) {
  DispatchGuard guard;
  set_isa_tier(IsaTier::kNative);
  if (isa_native_available()) {
    EXPECT_EQ(isa_tier(), IsaTier::kNative);
  } else {
    EXPECT_EQ(isa_tier(), IsaTier::kScalar);
  }
}

TEST(PackedKernels, NativeTableIsTheScalarTableExactlyWithoutANativePath) {
  EXPECT_EQ(&packed_kernels(IsaTier::kNative) == &packed_kernels(IsaTier::kScalar),
            !isa_native_available());
}

}  // namespace
}  // namespace fp8q
