// The batched fake-quant kernel must agree with the reference cast
// everywhere: the fake-quant rule has exactly these two implementations.
#include "fp8/cast_fast.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "fp8/cast.h"
#include "tensor/rng.h"

namespace fp8q {
namespace {

class FastCast : public ::testing::TestWithParam<Fp8Kind> {
 protected:
  const FormatSpec& spec() const { return format_spec(GetParam()); }
  const FastCastSpec& fast() const { return fast_cast_spec(GetParam()); }

  /// Runs `xs` through the kernel at scale 1 and checks every element
  /// against the reference: equal value and sign, or NaN for NaN.
  void expect_match(const std::vector<float>& xs) const {
    std::vector<float> got(xs.size());
    fp8_quantize_batch(xs, got, fast(), 1.0f);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const float ref = fp8_quantize(xs[i], spec());
      if (std::isnan(ref)) {
        EXPECT_TRUE(std::isnan(got[i])) << "x=" << xs[i];
      } else {
        EXPECT_EQ(ref, got[i]) << "x=" << xs[i];
        EXPECT_EQ(std::signbit(ref), std::signbit(got[i])) << "x=" << xs[i];
      }
    }
  }
};

TEST_P(FastCast, MatchesReferenceOnGridAndMidpoints) {
  const auto values = representable_values(spec());
  std::vector<float> xs;
  for (size_t i = 0; i < values.size(); ++i) {
    xs.push_back(values[i]);
    if (i + 1 < values.size()) {
      const float mid = values[i] + (values[i + 1] - values[i]) / 2.0f;
      xs.push_back(mid);
      xs.push_back(std::nextafter(mid, values[i]));
      xs.push_back(std::nextafter(mid, values[i + 1]));
    }
  }
  expect_match(xs);
}

TEST_P(FastCast, MatchesReferenceOnSpecialValues) {
  const float max = spec().max_value();
  const float sub = spec().min_subnormal();
  expect_match({0.0f, -0.0f, max, -max, std::nextafter(max, 1e30f), 2.0f * max, sub, -sub,
                sub / 2.0f, std::nextafter(sub / 2.0f, 1.0f), std::nextafter(sub / 2.0f, 0.0f),
                sub / 4.0f, std::numeric_limits<float>::infinity(),
                -std::numeric_limits<float>::infinity(),
                std::numeric_limits<float>::quiet_NaN(),
                std::numeric_limits<float>::denorm_min(), std::numeric_limits<float>::min()});
}

TEST_P(FastCast, MatchesReferenceOnRandomSweep) {
  Rng rng(2025);
  std::vector<float> xs;
  for (int i = 0; i < 300000; ++i) {
    const float mag = std::ldexp(rng.uniform(0.5f, 2.0f), static_cast<int>(rng.randint(-30, 25)));
    xs.push_back((rng.uniform01() < 0.5 ? -1.0f : 1.0f) * mag);
  }
  expect_match(xs);
}

TEST_P(FastCast, MatchesReferenceOnRandomBitPatterns) {
  Rng rng(31337);
  std::vector<float> xs;
  for (int i = 0; i < 300000; ++i) {
    const auto bits = static_cast<std::uint32_t>(rng.next());
    float x;
    static_assert(sizeof x == sizeof bits);
    std::memcpy(&x, &bits, sizeof x);
    if (std::isnan(x)) continue;  // NaN payloads compared separately
    xs.push_back(x);
  }
  expect_match(xs);
}

// --- Batched kernel (fp8_quantize_batch) ----------------------------------
//
// Contract: out[i] is bit-identical to the scalar composition
// fp8_quantize(in[i] * scale) * (1 / scale), NaN payloads included (every
// path returns a NaN's sign and payload with the quiet bit set).

float from_bits(std::uint32_t b) {
  float x;
  std::memcpy(&x, &b, sizeof x);
  return x;
}

std::uint32_t bits_of(float x) {
  std::uint32_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// Every input worth testing: the full code grid, rounding midpoints and
/// their neighbors, both signs, and the special values -- signalling NaNs
/// included.
std::vector<float> exhaustive_inputs(const FormatSpec& spec) {
  std::vector<float> in;
  const auto values = representable_values(spec);
  for (size_t i = 0; i < values.size(); ++i) {
    in.push_back(values[i]);
    in.push_back(-values[i]);
    if (i + 1 < values.size()) {
      const float mid = values[i] + (values[i + 1] - values[i]) / 2.0f;
      for (float m : {mid, std::nextafter(mid, values[i]), std::nextafter(mid, values[i + 1])}) {
        in.push_back(m);
        in.push_back(-m);
      }
    }
  }
  const float max = spec.max_value();
  const float sub = spec.min_subnormal();
  for (float x : {0.0f, -0.0f, std::nextafter(max, 1e30f), 2.0f * max, -2.0f * max,
                  sub / 2.0f, -sub / 2.0f, std::nextafter(sub / 2.0f, 0.0f), sub / 4.0f,
                  std::numeric_limits<float>::infinity(),
                  -std::numeric_limits<float>::infinity(),
                  std::numeric_limits<float>::quiet_NaN(),
                  -std::numeric_limits<float>::quiet_NaN(),
                  std::numeric_limits<float>::denorm_min(),
                  std::numeric_limits<float>::min()}) {
    in.push_back(x);
  }
  for (std::uint32_t snan : {0x7f800001u, 0xff800001u, 0x7fbfffffu}) {
    in.push_back(from_bits(snan));
  }
  return in;
}

/// Runs exhaustive_inputs(spec) through the kernel at scales spanning
/// identity, power-of-two, the calibration-typical band, and extreme
/// magnitudes that push inputs into overflow/underflow; every output must
/// carry the reference's bits (any NaN for a NaN reference).
void expect_batch_matches_reference(const FormatSpec& spec, const std::string& label) {
  const FastCastSpec fast(spec);
  const std::vector<float> in = exhaustive_inputs(spec);
  std::vector<float> out(in.size());
  for (float scale : {1.0f, 0.0078125f, 448.0f, 3.7f, 1e-30f, 1e30f}) {
    fp8_quantize_batch(in, out, fast, scale);
    const float inv = 1.0f / scale;
    for (size_t i = 0; i < in.size(); ++i) {
      const float ref = fp8_quantize(in[i] * scale, spec) * inv;
      if (std::isnan(ref)) {
        EXPECT_TRUE(std::isnan(out[i])) << label << " i=" << i << " scale=" << scale;
      } else {
        EXPECT_EQ(bits_of(ref), bits_of(out[i]))
            << label << " x=" << in[i] << " scale=" << scale << " ref=" << ref
            << " got=" << out[i];
      }
    }
  }
}

TEST_P(FastCast, BatchMatchesScalarReferenceExhaustively) {
  expect_batch_matches_reference(spec(), std::string(to_string(GetParam())));
}

// The kernel's bit tricks depend on the mantissa width and the bias, so
// the check covers every custom format the extension studies build: each
// EeMm split of the extended family, E4M3 under every shifted bias, and
// the IEEE variants. One mantissa bit (E6M1) once turned +/-Inf into NaN.
TEST(FastCastFormats, BatchMatchesReferenceOnEveryFormat) {
  for (int e = 1; e <= 6; ++e) {
    expect_batch_matches_reference(make_format(e, 7 - e), "E" + std::to_string(e) + "M" +
                                                              std::to_string(7 - e));
  }
  for (int bias = 4; bias <= 10; ++bias) {
    expect_batch_matches_reference(make_format(4, 3, bias),
                                   "E4M3 bias " + std::to_string(bias));
  }
  for (int e = 1; e <= 6; ++e) {
    expect_batch_matches_reference(make_format(e, 7 - e, -1, /*ieee=*/true),
                                   "IEEE E" + std::to_string(e) + "M" + std::to_string(7 - e));
  }
}

TEST_P(FastCast, NanBitsAgreeAcrossPathsUnscaled) {
  // Unscaled on purpose: in the check above `x * scale` quietens a
  // signalling NaN before the reference cast sees it, so only a direct
  // call can tell the paths apart.
  std::vector<float> nans;
  for (float x : exhaustive_inputs(spec())) {
    if (std::isnan(x)) nans.push_back(x);
  }
  ASSERT_EQ(nans.size(), 5u);  // two quiet NaNs, three signalling
  std::vector<float> batch(nans.size());
  fp8_quantize_batch(nans, batch, fast(), 1.0f);
  for (size_t i = 0; i < nans.size(); ++i) {
    const std::uint32_t in_bits = bits_of(nans[i]);
    const std::uint32_t ref = bits_of(fp8_quantize(nans[i], spec()));
    EXPECT_EQ(ref, in_bits | 0x00400000u) << std::hex << in_bits;
    EXPECT_EQ(ref, bits_of(batch[i])) << std::hex << in_bits;
  }
}

TEST_P(FastCast, BatchAliasingInPlaceMatchesOutOfPlace) {
  const std::vector<float> in = exhaustive_inputs(spec());
  std::vector<float> out(in.size());
  std::vector<float> inplace = in;
  const float scale = 2.5f;
  fp8_quantize_batch(in, out, fast(), scale);
  fp8_quantize_batch(inplace, inplace, fast(), scale);
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(bits_of(out[i]), bits_of(inplace[i])) << i;
  }
}

TEST_P(FastCast, BatchTallyCountsEvents) {
  const float max = spec().max_value();
  const float sub = spec().min_subnormal();
  // quantized = every element; saturated = the three finite-or-Inf inputs
  // beyond max; flushed = the one nonzero input below half the smallest
  // subnormal. Zero and NaN count in neither bucket.
  const std::vector<float> in = {0.0f,
                                 1.0f,
                                 2.0f * max,
                                 std::numeric_limits<float>::infinity(),
                                 -std::numeric_limits<float>::infinity(),
                                 sub / 4.0f,
                                 std::numeric_limits<float>::quiet_NaN()};
  std::vector<float> out(in.size());
  CastTally tally;
  fp8_quantize_batch(in, out, fast(), 1.0f, &tally);
  EXPECT_EQ(tally.quantized, in.size());
  EXPECT_EQ(tally.saturated, 3u);
  EXPECT_EQ(tally.flushed, 1u);
}

TEST_P(FastCast, BatchTallyDoesNotPerturbOutputs) {
  Rng rng(777);
  std::vector<float> in(2048);
  for (auto& v : in) v = rng.normal(0.0f, 10.0f);
  std::vector<float> plain(in.size());
  std::vector<float> counted(in.size());
  CastTally tally;
  fp8_quantize_batch(in, plain, fast(), 0.37f);
  fp8_quantize_batch(in, counted, fast(), 0.37f, &tally);
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(bits_of(plain[i]), bits_of(counted[i])) << i;
  }
  EXPECT_EQ(tally.quantized, in.size());
}

TEST_P(FastCast, ScaledSanitizesNonFiniteScales) {
  Rng rng(4242);
  std::vector<float> in(512);
  for (auto& v : in) v = rng.normal(0.0f, 3.0f);
  std::vector<float> unit(in.size());
  fp8_quantize_scaled(in, unit, fast(), 1.0f);
  // Zero, negative, Inf and NaN scales all fall back to the identity scale.
  for (float bad : {0.0f, -1.0f, std::numeric_limits<float>::infinity(),
                    std::numeric_limits<float>::quiet_NaN()}) {
    std::vector<float> out(in.size());
    fp8_quantize_scaled(in, out, fast(), bad);
    for (size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(bits_of(unit[i]), bits_of(out[i])) << "scale=" << bad << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFormats, FastCast,
                         ::testing::Values(Fp8Kind::E5M2, Fp8Kind::E4M3, Fp8Kind::E3M4),
                         [](const auto& suite_info) {
                           return std::string(to_string(suite_info.param));
                         });

}  // namespace
}  // namespace fp8q
