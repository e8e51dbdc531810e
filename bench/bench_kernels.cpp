// Hot-path kernel performance snapshot (docs/PERFORMANCE.md). Measures:
//
//   * fake-quant cast throughput, the scalar reference loop vs the
//     batched branch-free kernel, per FP8 format, pinned to one thread;
//   * blocked matmul throughput in GFLOP/s;
//   * packed FP8 GEMM (decode-in-register, docs/KERNELS.md) vs the
//     dequantize-then-matmul baseline, per FP8 format, at the dispatched
//     ISA tier (recorded in the row and the top-level "isa" field);
//   * FP32 Conv2d on the model zoo's conv shapes, scalar tier vs native
//     tier, in GFLOP/s;
//   * accuracy-tuner wall time with the quantized-weight cache off vs on
//     (embedding-heavy workload, where weight quantization dominates).
//
// Writes BENCH_kernels.json (override with --out=<path>). `--smoke` runs a
// reduced configuration that skips the long tuner sweep; the CI perf gate
// is `fp8q_report check-bench` / `fp8q_report diff` over the written JSON
// with explicit thresholds (tools/ci.sh, docs/PERFORMANCE.md).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/cpu_dispatch.h"
#include "core/parallel.h"
#include "fp8/cast.h"
#include "fp8/cast_fast.h"
#include "fp8/packed.h"
#include "nn/conv.h"
#include "nn/matmul.h"
#include "nn/packed_gemm.h"
#include "obs/trace.h"
#include "quant/weight_cache.h"
#include "tensor/rng.h"
#include "tune/tuner.h"
#include "workloads/registry.h"

#include "bench_report.h"

namespace {

using namespace fp8q;

double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(obs_now_ns() - t0_ns) / 1e9;
}

struct CastResult {
  const char* format;
  double scalar_elems_per_sec;
  double batched_elems_per_sec;
};

/// The cast row: the reference loop fp8_quantize(x * scale) * inv (the
/// scalar oracle, fp8/cast.h) against the batched kernel, then one
/// untimed call of the counted bulk entry point on the same input, so the
/// run report carries real per-format event totals for the CI diffs.
CastResult measure_cast(Fp8Kind kind, std::int64_t n, int iters, int reps) {
  const FormatSpec& ref_spec = format_spec(kind);
  const FastCastSpec& spec = fast_cast_spec(kind);
  Rng rng(17);
  Tensor data = randn(rng, {n});
  Tensor out(data.shape());
  const float scale = spec.max_value / 17.0f;
  const float inv = 1.0f / scale;
  const auto in = data.flat();
  auto dst = out.flat();

  double scalar_best = 0.0;
  double batched_best = 0.0;
  volatile float sink = 0.0f;
  for (int r = 0; r < reps; ++r) {
    std::uint64_t t0 = obs_now_ns();
    for (int it = 0; it < iters; ++it) {
      for (std::size_t i = 0; i < in.size(); ++i) {
        dst[i] = fp8_quantize(in[i] * scale, ref_spec) * inv;
      }
      sink = dst[0];
    }
    const double scalar_rate =
        static_cast<double>(n) * iters / seconds_since(t0);

    t0 = obs_now_ns();
    for (int it = 0; it < iters; ++it) {
      fp8_quantize_batch(in, dst, spec, scale);
      sink = dst[0];
    }
    const double batched_rate =
        static_cast<double>(n) * iters / seconds_since(t0);

    if (scalar_rate > scalar_best) scalar_best = scalar_rate;
    if (batched_rate > batched_best) batched_best = batched_rate;
  }
  (void)sink;
  // At the process's default thread count (FP8Q_NUM_THREADS), not the
  // pinned one: the totals must match across thread counts and ISA tiers.
  set_num_threads(0);
  fp8_quantize_scaled(in, dst, spec, scale);
  set_num_threads(1);
  return {to_string(kind).data(), scalar_best, batched_best};
}

struct MatmulResult {
  std::int64_t m, k, n;
  double gflops;
};

MatmulResult measure_matmul(std::int64_t m, std::int64_t k, std::int64_t n, int iters,
                            int reps) {
  Rng rng(23);
  Tensor a = randn(rng, {m, k});
  Tensor b = randn(rng, {k, n});
  MatMulOp op(false, false);
  const std::vector<Tensor> in = {a, b};
  double best = 0.0;
  volatile float sink = 0.0f;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = obs_now_ns();
    for (int it = 0; it < iters; ++it) {
      const Tensor y = op.forward(in);
      sink = y[0];
    }
    const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
                         static_cast<double>(n) * iters;
    const double rate = flops / seconds_since(t0) / 1e9;
    if (rate > best) best = rate;
  }
  (void)sink;
  return {m, k, n, best};
}

struct PackedGemmResult {
  std::int64_t m, k, n;
  const char* format;
  double packed_gflops;
  double dequant_gflops;
  double speedup;
  std::int64_t packed_bytes;
  std::int64_t fp32_bytes;
};

/// Packed FP8 GEMM (decode codes in-register, nn/packed_gemm.h) against
/// the baseline a deployment would otherwise run: dequantize the stored
/// codes to an FP32 weight, then the blocked FP32 matmul. Both paths
/// produce bit-identical outputs (the packed kernels' contract), so the
/// comparison is pure throughput. The weight is [n, k] row-major like
/// LinearOp's, and the baseline's unpack() is inside the timed loop --
/// that materialization cost is exactly what the packed path deletes.
PackedGemmResult measure_packed_gemm(Fp8Kind kind, std::int64_t m, std::int64_t k,
                                     std::int64_t n, int iters, int reps) {
  Rng rng(29);
  const Tensor a = randn(rng, {m, k});
  Tensor b = randn(rng, {n, k});
  const PackedFp8Tensor packed = PackedFp8Tensor::pack_per_channel(b, kind);
  const PackedWeightMatrix w = pack_gemm_weight(packed);
  MatMulOp op(false, /*transpose_b=*/true);
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
                       static_cast<double>(n) * iters;
  double packed_best = 0.0;
  double dequant_best = 0.0;
  volatile float sink = 0.0f;
  for (int r = 0; r < reps; ++r) {
    std::uint64_t t0 = obs_now_ns();
    for (int it = 0; it < iters; ++it) {
      Tensor y({m, n});
      packed_gemm_forward(a.data(), w, nullptr, y.data(), m);
      sink = y[0];
    }
    const double packed_rate = flops / seconds_since(t0) / 1e9;

    t0 = obs_now_ns();
    for (int it = 0; it < iters; ++it) {
      const Tensor wt = packed.unpack();
      const std::vector<Tensor> in = {a, wt};
      const Tensor y = op.forward(in);
      sink = y[0];
    }
    const double dequant_rate = flops / seconds_since(t0) / 1e9;

    if (packed_rate > packed_best) packed_best = packed_rate;
    if (dequant_rate > dequant_best) dequant_best = dequant_rate;
  }
  (void)sink;
  return {m,
          k,
          n,
          to_string(kind).data(),
          packed_best,
          dequant_best,
          dequant_best > 0.0 ? packed_best / dequant_best : 0.0,
          static_cast<std::int64_t>(w.storage_bytes()),
          static_cast<std::int64_t>(b.numel() * sizeof(float))};
}

struct ConvShape {
  const char* name;
  std::int64_t ic, oc, hw, k, pad, groups;
};

/// The stride-1 conv shapes of the model zoo (models/zoo.cpp): CNN stem,
/// residual 3x3 at two widths, depthwise + pointwise pair, U-Net encoder.
constexpr ConvShape kZooConvShapes[] = {
    {"stem", 3, 12, 10, 3, 1, 1},
    {"conv3x3-c12", 12, 12, 10, 3, 1, 1},
    {"conv3x3-c24", 24, 24, 10, 3, 1, 1},
    {"depthwise-c12", 12, 12, 10, 3, 1, 12},
    {"pointwise-c12", 12, 12, 10, 1, 0, 1},
    {"unet-enc2-c8", 8, 16, 6, 3, 1, 1},
};

struct ConvResult {
  ConvShape shape;
  std::int64_t batch;
  double scalar_gflops;
  double native_gflops;
  double speedup;
  const char* native_tier;
};

double conv_gflops(Conv2dOp& op, const Tensor& x, double flops, int iters, int reps) {
  double best = 0.0;
  volatile float sink = 0.0f;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = obs_now_ns();
    for (int it = 0; it < iters; ++it) {
      const Tensor y = op.forward({&x, 1});
      sink = y[0];
    }
    const double rate = flops * iters / seconds_since(t0) / 1e9;
    if (rate > best) best = rate;
  }
  (void)sink;
  return best;
}

/// FP32 Conv2dOp at the scalar tier (the clamped tap loop) and at the
/// native tier. Both produce bit-identical outputs (docs/KERNELS.md), so
/// the ratio is pure throughput. FLOPs count every tap of the window,
/// including the ones the padding skips.
ConvResult measure_conv(const ConvShape& s, std::int64_t batch, int iters, int reps) {
  Rng rng(31);
  const Tensor x = randn(rng, {batch, s.ic, s.hw, s.hw});
  Conv2dOp op(randn(rng, {s.oc, s.ic / s.groups, s.k, s.k}), randn(rng, {s.oc}), 1,
              static_cast<int>(s.pad), static_cast<int>(s.groups));
  const std::int64_t out_hw = s.hw + 2 * s.pad - s.k + 1;
  const double flops = 2.0 * static_cast<double>(batch * s.oc * out_hw * out_hw) *
                       static_cast<double>(s.ic / s.groups * s.k * s.k);
  set_isa_tier(IsaTier::kScalar);
  const double scalar = conv_gflops(op, x, flops, iters, reps);
  set_isa_tier(IsaTier::kNative);
  const char* native_tier = isa_label();
  const double native = conv_gflops(op, x, flops, iters, reps);
  reset_isa_tier();
  return {s, batch, scalar, native, scalar > 0.0 ? native / scalar : 0.0, native_tier};
}

struct TunerResult {
  std::string workload;
  int trials_off = 0;
  int trials_on = 0;
  double wall_ms_off = 0.0;
  double wall_ms_on = 0.0;
  double reduction_pct = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

/// Times `rounds` autotune sweeps on one workload with the weight cache
/// disabled, then enabled. Embedding-heavy workloads spend most of each
/// trial quantizing the same large tables, which is exactly what the cache
/// elides; forward-dominated workloads see little change (the caveat is
/// documented in docs/PERFORMANCE.md). Multiple rounds amortize timer
/// noise and match the suite-sweep usage where one process tunes many
/// configurations against the same models.
TunerResult measure_tuner(const Workload& w, const EvalProtocol& protocol, int rounds) {
  TunerResult r;
  r.workload = w.name;
  TuneOptions options;
  options.accuracy_criterion = -1.0;  // never met: every arm runs

  set_weight_cache_capacity_bytes(0);
  weight_cache_clear();
  std::uint64_t t0 = obs_now_ns();
  for (int round = 0; round < rounds; ++round) {
    const TuneResult off = autotune(w, DType::kE4M3, protocol, options);
    r.trials_off = off.trials();
  }
  r.wall_ms_off = seconds_since(t0) * 1e3;

  set_weight_cache_capacity_bytes(256ll << 20);
  weight_cache_clear();
  const auto stats_before = weight_cache_stats();
  t0 = obs_now_ns();
  for (int round = 0; round < rounds; ++round) {
    const TuneResult on = autotune(w, DType::kE4M3, protocol, options);
    r.trials_on = on.trials();
  }
  r.wall_ms_on = seconds_since(t0) * 1e3;
  const auto stats_after = weight_cache_stats();
  r.cache_hits = stats_after.hits - stats_before.hits;
  r.cache_misses = stats_after.misses - stats_before.misses;

  set_weight_cache_capacity_bytes(-1);
  weight_cache_clear();
  r.reduction_pct =
      r.wall_ms_off > 0.0 ? (r.wall_ms_off - r.wall_ms_on) / r.wall_ms_off * 100.0 : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  fp8q::BenchReport bench_report("bench_kernels");
  bool smoke = false;
  std::string out_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }

  // One thread: the numbers measure the kernels, not the parallel runtime
  // (bench_parallel_scaling covers scaling).
  set_num_threads(1);

  const std::int64_t cast_n = smoke ? 65536 : 1 << 20;
  const int cast_iters = smoke ? 8 : 32;
  const int reps = smoke ? 2 : 3;

  std::vector<CastResult> casts;
  {
    ScopedStage stage("kernels/cast");
    for (Fp8Kind kind : {Fp8Kind::E5M2, Fp8Kind::E4M3, Fp8Kind::E3M4}) {
      casts.push_back(measure_cast(kind, cast_n, cast_iters, reps));
    }
  }

  std::vector<MatmulResult> matmuls;
  {
    ScopedStage stage("kernels/matmul");
    matmuls.push_back(measure_matmul(64, 256, 256, smoke ? 4 : 16, reps));
    if (!smoke) matmuls.push_back(measure_matmul(128, 512, 512, 8, reps));
  }

  std::vector<PackedGemmResult> packed_gemms;
  {
    ScopedStage stage("kernels/packed-gemm");
    for (Fp8Kind kind : {Fp8Kind::E5M2, Fp8Kind::E4M3, Fp8Kind::E3M4}) {
      packed_gemms.push_back(measure_packed_gemm(kind, 64, 256, 256, smoke ? 4 : 16, reps));
    }
    if (!smoke) {
      packed_gemms.push_back(measure_packed_gemm(Fp8Kind::E4M3, 128, 512, 512, 8, reps));
    }
  }

  std::vector<ConvResult> convs;
  {
    ScopedStage stage("kernels/conv");
    for (const ConvShape& shape : kZooConvShapes) {
      convs.push_back(measure_conv(shape, 128, smoke ? 1 : 4, reps));
    }
  }

  std::vector<TunerResult> tuners;
  if (!smoke) {
    ScopedStage stage("kernels/tuner-cache");
    const auto suite = build_suite();
    EvalProtocol protocol;  // trimmed: weight quantization dominates
    protocol.calib_batches = 1;
    protocol.calib_batch_size = 4;
    protocol.eval_batches = 1;
    protocol.eval_batch_size = 8;
    protocol.bn_calibration_batches = 0;
    // The cache's target population: weight-quantization-dominated models
    // (large embedding tables, cheap forwards). Compute-dominated models
    // spend their trials in matmuls, not weight quantization, so they are
    // measured by the cast/matmul sections above instead.
    for (const char* name : {"dlrm-ish"}) {
      tuners.push_back(measure_tuner(find_workload(suite, name), protocol, 10));
    }
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_kernels: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"version\": 1,\n  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"isa\": \"%s\",\n", isa_label());
  std::fprintf(f, "  \"cast\": [\n");
  for (std::size_t i = 0; i < casts.size(); ++i) {
    const auto& c = casts[i];
    std::fprintf(f,
                 "    {\"format\": \"%s\", \"scalar_elems_per_sec\": %.3e, "
                 "\"batched_elems_per_sec\": %.3e, \"speedup\": %.2f}%s\n",
                 c.format, c.scalar_elems_per_sec, c.batched_elems_per_sec,
                 c.batched_elems_per_sec / c.scalar_elems_per_sec,
                 i + 1 < casts.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"matmul\": [\n");
  for (std::size_t i = 0; i < matmuls.size(); ++i) {
    const auto& m = matmuls[i];
    std::fprintf(f,
                 "    {\"m\": %lld, \"k\": %lld, \"n\": %lld, \"gflops\": %.2f}%s\n",
                 static_cast<long long>(m.m), static_cast<long long>(m.k),
                 static_cast<long long>(m.n), m.gflops,
                 i + 1 < matmuls.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"packed_gemm\": [\n");
  for (std::size_t i = 0; i < packed_gemms.size(); ++i) {
    const auto& p = packed_gemms[i];
    std::fprintf(f,
                 "    {\"m\": %lld, \"k\": %lld, \"n\": %lld, \"format\": \"%s\", "
                 "\"packed_gflops\": %.2f, \"dequant_gflops\": %.2f, "
                 "\"speedup\": %.2f, \"packed_bytes\": %lld, \"fp32_bytes\": %lld}%s\n",
                 static_cast<long long>(p.m), static_cast<long long>(p.k),
                 static_cast<long long>(p.n), p.format, p.packed_gflops, p.dequant_gflops,
                 p.speedup, static_cast<long long>(p.packed_bytes),
                 static_cast<long long>(p.fp32_bytes),
                 i + 1 < packed_gemms.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"conv\": [\n");
  for (std::size_t i = 0; i < convs.size(); ++i) {
    const auto& c = convs[i];
    std::fprintf(f,
                 "    {\"shape\": \"%s\", \"n\": %lld, \"ic\": %lld, \"oc\": %lld, "
                 "\"hw\": %lld, \"k\": %lld, \"pad\": %lld, \"groups\": %lld, "
                 "\"native_tier\": \"%s\", \"scalar_gflops\": %.2f, "
                 "\"native_gflops\": %.2f, \"speedup\": %.2f}%s\n",
                 c.shape.name, static_cast<long long>(c.batch),
                 static_cast<long long>(c.shape.ic), static_cast<long long>(c.shape.oc),
                 static_cast<long long>(c.shape.hw), static_cast<long long>(c.shape.k),
                 static_cast<long long>(c.shape.pad), static_cast<long long>(c.shape.groups),
                 c.native_tier, c.scalar_gflops, c.native_gflops, c.speedup,
                 i + 1 < convs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"tuner\": [\n");
  for (std::size_t i = 0; i < tuners.size(); ++i) {
    const auto& t = tuners[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"trials\": %d, "
                 "\"wall_ms_cache_off\": %.1f, \"wall_ms_cache_on\": %.1f, "
                 "\"reduction_pct\": %.1f, \"cache_hits\": %llu, "
                 "\"cache_misses\": %llu}%s\n",
                 t.workload.c_str(), t.trials_on, t.wall_ms_off, t.wall_ms_on,
                 t.reduction_pct, static_cast<unsigned long long>(t.cache_hits),
                 static_cast<unsigned long long>(t.cache_misses),
                 i + 1 < tuners.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);

  std::printf("bench_kernels (%s) -> %s\n", smoke ? "smoke" : "full", out_path.c_str());
  for (const auto& c : casts) {
    std::printf("  cast %-5s scalar %.3e elem/s  batched %.3e elem/s  (%.2fx)\n",
                c.format, c.scalar_elems_per_sec, c.batched_elems_per_sec,
                c.batched_elems_per_sec / c.scalar_elems_per_sec);
  }
  for (const auto& m : matmuls) {
    std::printf("  matmul %lldx%lldx%lld: %.2f GFLOP/s\n", static_cast<long long>(m.m),
                static_cast<long long>(m.k), static_cast<long long>(m.n), m.gflops);
  }
  for (const auto& p : packed_gemms) {
    std::printf("  packed_gemm %lldx%lldx%lld %-5s [%s]: packed %.2f GFLOP/s  dequant %.2f "
                "GFLOP/s  (%.2fx)\n",
                static_cast<long long>(p.m), static_cast<long long>(p.k),
                static_cast<long long>(p.n), p.format, isa_label(), p.packed_gflops,
                p.dequant_gflops, p.speedup);
  }
  for (const auto& c : convs) {
    std::printf("  conv %-14s n=%lld [%s]: native %.2f GFLOP/s  scalar %.2f GFLOP/s  "
                "(%.2fx)\n",
                c.shape.name, static_cast<long long>(c.batch), c.native_tier,
                c.native_gflops, c.scalar_gflops, c.speedup);
  }
  for (const auto& t : tuners) {
    std::printf("  tuner %-16s off %.0f ms  on %.0f ms  (-%.1f%%, %llu hits)\n",
                t.workload.c_str(), t.wall_ms_off, t.wall_ms_on, t.reduction_pct,
                static_cast<unsigned long long>(t.cache_hits));
  }

  // The perf gate itself lives in `fp8q_report check-bench` (tools/ci.sh),
  // which reads the JSON written above and applies explicit thresholds;
  // this binary only measures.
  return 0;
}
