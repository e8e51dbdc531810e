// The cache-blocked matmul/linear/conv kernels must be bit-identical to a
// naive triple-loop reference: blocking, packing, tap-window clamping and
// the native tier's padded-grid conv only reorder memory accesses, never
// any element's summation order.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/cpu_dispatch.h"
#include "core/parallel.h"
#include "nn/conv.h"
#include "nn/linear.h"
#include "nn/matmul.h"
#include "tensor/rng.h"

namespace fp8q {
namespace {

/// Naive matmul over the last two axes; k-ascending accumulation, the same
/// order the production kernel must preserve.
Tensor naive_matmul(const Tensor& a, const Tensor& b, bool transpose_b) {
  const std::int64_t m = a.size(-2);
  const std::int64_t k = a.size(-1);
  const std::int64_t n = transpose_b ? b.size(-2) : b.size(-1);
  const std::int64_t batch = a.numel() / (m * k);
  Shape out_shape = a.shape();
  out_shape.back() = n;
  Tensor y(out_shape);
  const auto ad = a.flat();
  const auto bd = b.flat();
  auto yd = y.flat();
  for (std::int64_t bi = 0; bi < batch; ++bi) {
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (std::int64_t kk = 0; kk < k; ++kk) {
          const float av = ad[static_cast<std::size_t>(bi * m * k + i * k + kk)];
          const float bv = transpose_b
                               ? bd[static_cast<std::size_t>(bi * n * k + j * k + kk)]
                               : bd[static_cast<std::size_t>(bi * k * n + kk * n + j)];
          acc += av * bv;
        }
        yd[static_cast<std::size_t>(bi * m * n + i * n + j)] = acc;
      }
    }
  }
  return y;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const std::string& what = "") {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  const auto fa = a.flat();
  const auto fb = b.flat();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(fa[i]), std::bit_cast<std::uint32_t>(fb[i]))
        << what << " at " << i << ": " << fa[i] << " vs " << fb[i];
  }
}

/// Restores tier and thread-count overrides even when a test fails.
struct DispatchGuard {
  ~DispatchGuard() {
    reset_isa_tier();
    set_num_threads(0);  // 0 = restore the env/hardware default
  }
};

/// Naive conv: bounds-test every tap, skip the ones outside the input,
/// accumulate in c -> ky -> kx order from the bias.
Tensor naive_conv(const Tensor& x, const Tensor& weight, const Tensor& bias, int stride,
                  int padding, int groups) {
  const std::int64_t n = x.size(0);
  const std::int64_t ic = x.size(1);
  const std::int64_t h = x.size(2);
  const std::int64_t w = x.size(3);
  const std::int64_t oc = weight.size(0);
  const std::int64_t kh = weight.size(2);
  const std::int64_t kw = weight.size(3);
  const std::int64_t oh = (h + 2 * padding - kh) / stride + 1;
  const std::int64_t ow = (w + 2 * padding - kw) / stride + 1;
  const std::int64_t icg = ic / groups;
  const std::int64_t ocg = oc / groups;
  Tensor ref({n, oc, oh, ow});
  const auto xd = x.flat();
  const auto wd = weight.flat();
  auto rd = ref.flat();
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t o = 0; o < oc; ++o) {
      const std::int64_t g = o / ocg;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          float acc = bias.empty() ? 0.0f : bias[o];
          for (std::int64_t ci = 0; ci < icg; ++ci) {
            for (std::int64_t ky = 0; ky < kh; ++ky) {
              const std::int64_t iy = oy * stride + ky - padding;
              if (iy < 0 || iy >= h) continue;
              for (std::int64_t kx = 0; kx < kw; ++kx) {
                const std::int64_t ix = ox * stride + kx - padding;
                if (ix < 0 || ix >= w) continue;
                acc += xd[static_cast<std::size_t>(((b * ic + g * icg + ci) * h + iy) * w +
                                                   ix)] *
                       wd[static_cast<std::size_t>(((o * icg + ci) * kh + ky) * kw + kx)];
              }
            }
          }
          rd[static_cast<std::size_t>(((b * oc + o) * oh + oy) * ow + ox)] = acc;
        }
      }
    }
  }
  return ref;
}

/// Runs op on every tier at 1 and 4 threads against the reference.
void expect_conv_matches_on_every_tier(Conv2dOp& op, const Tensor& x, const Tensor& ref,
                                       const std::string& what) {
  DispatchGuard guard;
  for (IsaTier tier : {IsaTier::kScalar, IsaTier::kNative}) {
    for (int threads : {1, 4}) {
      set_isa_tier(tier);
      set_num_threads(threads);
      expect_bitwise_equal(op.forward({&x, 1}), ref,
                           what + " tier " + to_string(tier) + " threads " +
                               std::to_string(threads));
    }
  }
}

TEST(BlockedMatMul, MatchesNaiveAcrossShapesAndFlags) {
  Rng rng(101);
  struct Case {
    std::int64_t m, k, n;
    bool batched;
    bool transpose_b;
  };
  // Odd sizes exercise the 4-row remainder and packing edge cases; sizes
  // past the grain heuristic exercise the parallel split.
  const Case cases[] = {
      {1, 1, 1, false, false},  {3, 5, 7, false, false},  {4, 8, 4, false, true},
      {7, 33, 13, false, false}, {7, 33, 13, false, true}, {5, 17, 9, true, false},
      {6, 64, 31, true, true},   {65, 40, 50, false, false},
  };
  for (const auto& c : cases) {
    const std::int64_t batch = c.batched ? 3 : 1;
    Tensor a = c.batched ? randn(rng, {batch, c.m, c.k}) : randn(rng, {c.m, c.k});
    const Shape b_shape = c.batched
                              ? (c.transpose_b ? Shape{batch, c.n, c.k} : Shape{batch, c.k, c.n})
                              : (c.transpose_b ? Shape{c.n, c.k} : Shape{c.k, c.n});
    Tensor b = randn(rng, b_shape);
    MatMulOp op(c.batched, c.transpose_b);
    const std::vector<Tensor> in = {a, b};
    const Tensor got = op.forward(in);
    const Tensor ref = naive_matmul(a, b, c.transpose_b);
    expect_bitwise_equal(got, ref);
  }
}

TEST(BlockedLinear, MatchesNaiveWithAndWithoutBias) {
  Rng rng(202);
  for (const auto& [rows, in_f, out_f] : std::vector<std::array<std::int64_t, 3>>{
           {1, 1, 1}, {5, 13, 9}, {33, 64, 17}, {130, 48, 96}}) {
    for (bool with_bias : {true, false}) {
      Tensor x = randn(rng, {rows, in_f});
      Tensor w = randn(rng, {out_f, in_f});
      Tensor bias = with_bias ? randn(rng, {out_f}) : Tensor{};

      Tensor ref({rows, out_f});
      {
        const auto xd = x.flat();
        const auto wd = w.flat();
        auto rd = ref.flat();
        for (std::int64_t r = 0; r < rows; ++r) {
          for (std::int64_t o = 0; o < out_f; ++o) {
            float acc = with_bias ? bias[o] : 0.0f;
            for (std::int64_t i = 0; i < in_f; ++i) {
              acc += xd[static_cast<std::size_t>(r * in_f + i)] *
                     wd[static_cast<std::size_t>(o * in_f + i)];
            }
            rd[static_cast<std::size_t>(r * out_f + o)] = acc;
          }
        }
      }
      LinearOp op(w, bias);
      const Tensor got = op.forward({&x, 1});
      expect_bitwise_equal(got, ref);
    }
  }
}

TEST(BlockedConv, MatchesNaiveAcrossStridePaddingGroups) {
  Rng rng(303);
  struct Case {
    std::int64_t n, ic, h, w, oc, kh, kw;
    int stride, padding, groups;
  };
  const Case cases[] = {
      {1, 1, 5, 5, 1, 3, 3, 1, 0, 1},  {2, 3, 9, 7, 4, 3, 3, 1, 1, 1},
      {1, 4, 8, 8, 6, 1, 1, 1, 0, 2},  {2, 4, 11, 13, 8, 3, 5, 2, 2, 4},
      {1, 2, 6, 6, 2, 3, 3, 2, 0, 1},
  };
  for (const auto& c : cases) {
    Tensor x = randn(rng, {c.n, c.ic, c.h, c.w});
    Tensor weight = randn(rng, {c.oc, c.ic / c.groups, c.kh, c.kw});
    Tensor bias = randn(rng, {c.oc});
    Conv2dOp op(weight, bias, c.stride, c.padding, c.groups);
    const Tensor ref = naive_conv(x, weight, bias, c.stride, c.padding, c.groups);
    expect_conv_matches_on_every_tier(op, x, ref, "stride" + std::to_string(c.stride));
  }
}

TEST(BlockedConv, Stride1GridMatchesNaiveOnEveryTier) {
  // Widths 1-17 straddle the native tier's 8-lane vectors; h != w and
  // kh != kw catch a transposed grid; padding up to 2 with a 1-wide or
  // 1-tall kernel leaves border outputs whose whole window lies outside
  // the input (those must come out as the bias, untouched). Output
  // channel 0 has +Inf on its first and last tap, so a tap wrongly taken
  // as in range turns an edge output into NaN (0 * Inf).
  Rng rng(404);
  const struct {
    std::int64_t kh, kw;
    int padding;
  } kernels[] = {{1, 1, 0}, {3, 3, 1}, {1, 1, 2}, {2, 3, 1}, {3, 1, 2},
                 {3, 2, 0}, {1, 3, 2}, {5, 3, 2}};
  for (std::int64_t w = 1; w <= 17; ++w) {
    const std::int64_t h = w % 5 + 2;
    for (const auto& k : kernels) {
      if (h + 2 * k.padding < k.kh || w + 2 * k.padding < k.kw) continue;
      for (int groups : {1, 2}) {
        const Tensor x = randn(rng, {2, 2, h, w});
        Tensor weight = randn(rng, {4, 2 / groups, k.kh, k.kw});
        const std::int64_t taps = k.kh * k.kw;
        for (std::int64_t c = 0; c < 2 / groups; ++c) {
          weight[c * taps] = std::numeric_limits<float>::infinity();
          weight[c * taps + taps - 1] = std::numeric_limits<float>::infinity();
        }
        const Tensor bias = randn(rng, {4});
        Conv2dOp op(weight, bias, 1, k.padding, groups);
        const Tensor ref = naive_conv(x, weight, bias, 1, k.padding, groups);
        std::ostringstream what;
        what << "h" << h << " w" << w << " k" << k.kh << "x" << k.kw << " pad" << k.padding
             << " g" << groups;
        expect_conv_matches_on_every_tier(op, x, ref, what.str());
      }
    }
  }
}

TEST(BlockedConv, SkippedTapsNeverTouchTheSum) {
  // Adding a zero-padding tap instead of skipping it changes bits; each
  // case below breaks a kernel that does.
  Rng rng(505);
  const std::int64_t h = 6;
  const std::int64_t w = 11;
  {
    // -0.0f bias, all-zero input. Every tap but the top-left corner has a
    // negative weight (0 * -w = -0, and -0 + -0 = -0); the corner's weight
    // is positive (+0). Outputs on the top row / left column skip the
    // corner and must stay -0.0f; a padded +0 product would make them +0.
    Tensor x({1, 3, h, w});
    Tensor weight = Tensor::full({2, 3, 3, 3}, -0.5f);
    for (std::int64_t o = 0; o < 2; ++o) {
      for (std::int64_t c = 0; c < 3; ++c) weight[((o * 3 + c) * 3) * 3] = 2.0f;
    }
    const Tensor bias = Tensor::full({2}, -0.0f);
    Conv2dOp op(weight, bias, 1, 1);
    const Tensor ref = naive_conv(x, weight, bias, 1, 1, 1);
    EXPECT_TRUE(std::signbit(ref[0]));
    expect_conv_matches_on_every_tier(op, x, ref, "negative-zero bias");
  }
  {
    // +Inf weight on the bottom-right tap, finite input: edge outputs skip
    // it and stay finite; a padded 0 * Inf product would make them NaN.
    const Tensor x = randn(rng, {2, 2, h, w});
    Tensor weight = randn(rng, {3, 2, 3, 3});
    weight[8] = std::numeric_limits<float>::infinity();
    const Tensor bias = randn(rng, {3});
    Conv2dOp op(weight, bias, 1, 1);
    const Tensor ref = naive_conv(x, weight, bias, 1, 1, 1);
    EXPECT_TRUE(std::isfinite(ref[(h - 1) * w + w - 1]));
    expect_conv_matches_on_every_tier(op, x, ref, "infinite weight");
  }
  {
    // NaN on the input border: exactly the outputs whose in-range window
    // reaches a border pixel turn NaN.
    Tensor x = randn(rng, {1, 2, h, w});
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (std::int64_t c = 0; c < 2; ++c) {
      for (std::int64_t ix = 0; ix < w; ++ix) x[(c * h) * w + ix] = nan;
      for (std::int64_t iy = 0; iy < h; ++iy) x[(c * h + iy) * w + w - 1] = nan;
    }
    const Tensor weight = randn(rng, {2, 2, 3, 3});
    const Tensor bias = randn(rng, {2});
    for (int padding : {0, 1, 2}) {
      Conv2dOp op(weight, bias, 1, padding);
      const Tensor ref = naive_conv(x, weight, bias, 1, padding, 1);
      expect_conv_matches_on_every_tier(op, x, ref, "nan border pad" + std::to_string(padding));
    }
  }
}

}  // namespace
}  // namespace fp8q
