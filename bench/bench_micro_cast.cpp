// google-benchmark microbenchmarks of the emulation substrate: FP8/INT8
// casting throughput and quantized operator overhead.
#include <benchmark/benchmark.h>

#include "core/parallel.h"
#include "fp8/cast.h"
#include "fp8/cast_fast.h"
#include "fp8/int8.h"
#include "nn/linear.h"
#include "obs/counters.h"
#include "obs/histogram.h"
#include "quant/quantizer.h"
#include "tensor/rng.h"
#include "tensor/stats.h"

namespace {

using namespace fp8q;

Tensor make_data(std::int64_t n) {
  Rng rng(7);
  return randn(rng, {n});
}

void BM_Fp8QuantizeScalar(benchmark::State& state) {
  const auto kind = static_cast<Fp8Kind>(state.range(0));
  const auto& spec = format_spec(kind);
  Tensor data = make_data(4096);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fp8_quantize(data[static_cast<std::int64_t>(i++ & 4095)], spec));
  }
}
BENCHMARK(BM_Fp8QuantizeScalar)->Arg(0)->Arg(1)->Arg(2);

// Reference loop vs the batched branch-free kernel, per format: the pair
// measures what the kernel buys over the scalar oracle on the same data
// (docs/PERFORMANCE.md). Both compute out = quantize(x * scale) / scale.
void BM_Fp8QuantizeScaledReferenceLoop(benchmark::State& state) {
  const auto kind = static_cast<Fp8Kind>(state.range(0));
  const FormatSpec& spec = format_spec(kind);
  Tensor data = make_data(65536);
  Tensor out(data.shape());
  const float scale = spec.max_value() / 17.0f;
  const float inv = 1.0f / scale;
  const auto in = data.flat();
  auto dst = out.flat();
  for (auto _ : state) {
    for (std::size_t i = 0; i < in.size(); ++i) {
      dst[i] = fp8_quantize(in[i] * scale, spec) * inv;
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(in.size()));
}
BENCHMARK(BM_Fp8QuantizeScaledReferenceLoop)->Arg(0)->Arg(1)->Arg(2);

void BM_Fp8QuantizeBatched(benchmark::State& state) {
  const auto kind = static_cast<Fp8Kind>(state.range(0));
  const FastCastSpec& spec = fast_cast_spec(kind);
  Tensor data = make_data(65536);
  Tensor out(data.shape());
  const float scale = spec.max_value / 17.0f;
  const auto in = data.flat();
  auto dst = out.flat();
  for (auto _ : state) {
    fp8_quantize_batch(in, dst, spec, scale);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(in.size()));
}
BENCHMARK(BM_Fp8QuantizeBatched)->Arg(0)->Arg(1)->Arg(2);

// Disabled-path overhead check for the bulk entry point: with counters,
// histograms and tracing all off, fp8_quantize_scaled must cost the
// batched kernel plus a few relaxed atomic flag loads per bulk call.
// Compare against BM_Fp8QuantizeBatched; a gap beyond noise means an
// instrumentation branch leaked into the per-element path.
void BM_Fp8QuantizeScaledDisabledObs(benchmark::State& state) {
  const auto kind = static_cast<Fp8Kind>(state.range(0));
  const FastCastSpec& spec = fast_cast_spec(kind);
  Tensor data = make_data(65536);
  Tensor out(data.shape());
  const float scale = spec.max_value / 17.0f;
  const bool counters_before = counters_enabled();
  const bool hists_before = histograms_enabled();
  set_num_threads(1);  // measure the kernel, not the pool
  set_counters_enabled(false);
  set_histograms_enabled(false);
  for (auto _ : state) {
    fp8_quantize_scaled(data.flat(), out.flat(), spec, scale);
    benchmark::DoNotOptimize(out.data());
  }
  set_counters_enabled(counters_before);
  set_histograms_enabled(hists_before);
  set_num_threads(0);
  state.SetItemsProcessed(state.iterations() * data.numel());
}
BENCHMARK(BM_Fp8QuantizeScaledDisabledObs)->Arg(0)->Arg(1)->Arg(2);

void BM_Int8Quantize(benchmark::State& state) {
  Tensor data = make_data(state.range(0));
  Tensor out(data.shape());
  const auto params = int8_symmetric_params(absmax(data));
  for (auto _ : state) {
    int8_quantize(data.flat(), out.flat(), params);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Int8Quantize)->Arg(65536);

void BM_Fp8EncodeDecodeRoundTrip(benchmark::State& state) {
  const auto& spec = format_spec(Fp8Kind::E4M3);
  Tensor data = make_data(4096);
  size_t i = 0;
  for (auto _ : state) {
    const float x = data[static_cast<std::int64_t>(i++ & 4095)];
    benchmark::DoNotOptimize(fp8_decode(fp8_encode(x, spec), spec));
  }
}
BENCHMARK(BM_Fp8EncodeDecodeRoundTrip);

void BM_PerChannelWeightQuant(benchmark::State& state) {
  Rng rng(9);
  Tensor w = randn(rng, {state.range(0), 256});
  for (auto _ : state) {
    state.PauseTiming();
    Tensor copy = w;
    state.ResumeTiming();
    apply_quant_inplace(copy, make_weight_params(copy, DType::kE4M3));
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * w.numel());
}
BENCHMARK(BM_PerChannelWeightQuant)->Arg(64)->Arg(512);

void BM_QuantizedLinearForward(benchmark::State& state) {
  Rng rng(11);
  const std::int64_t dim = state.range(0);
  LinearOp op(randn(rng, {dim, dim}), Tensor{});
  Tensor x = randn(rng, {32, dim});
  const auto params = make_activation_params(DType::kE4M3, absmax(x));
  for (auto _ : state) {
    Tensor xq = apply_quant(x, params);
    std::vector<Tensor> in;
    in.push_back(std::move(xq));
    benchmark::DoNotOptimize(op.forward(in).data());
  }
  state.SetItemsProcessed(state.iterations() * 32 * dim * dim);
}
BENCHMARK(BM_QuantizedLinearForward)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
