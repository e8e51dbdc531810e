// Threading-model determinism contract (docs/THREADING.md): every metric
// the runtime produces must be bit-identical at any thread count. Run once
// normally and once under ctest with FP8Q_NUM_THREADS=1 (see
// tests/CMakeLists.txt); the in-process set_num_threads() sweep below
// compares 1-thread and 8-thread results directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "fp8q_lint_lib.h"
#include "fp8/cast_fast.h"
#include "nn/conv.h"
#include "nn/matmul.h"
#include "obs/counters.h"
#include "obs/histogram.h"
#include "tensor/rng.h"
#include "workloads/registry.h"

namespace fp8q {
namespace {

struct ThreadCountGuard {
  ~ThreadCountGuard() { set_num_threads(0); }
};

EvalProtocol quick_protocol() {
  EvalProtocol p;
  p.calib_batches = 2;
  p.calib_batch_size = 8;
  p.eval_batches = 2;
  p.eval_batch_size = 32;
  p.bn_calibration_batches = 2;
  return p;
}

/// A small cross-section of the suite: one CNN, one transformer encoder,
/// one decoder LM (cheap but exercises conv, matmul and cast paths).
std::vector<Workload> sample_workloads() {
  auto suite = build_suite();
  std::vector<Workload> picked;
  picked.push_back(find_workload(suite, "resnet50-ish"));
  picked.push_back(find_workload(suite, "distilbert-mrpc-ish"));
  picked.push_back(find_workload(suite, "nlp/lm-ish-0"));
  return picked;
}

TEST(Determinism, BulkCastBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(42);
  std::vector<float> in(1 << 18);
  for (float& v : in) v = rng.normal(0.0f, 3.0f);

  set_num_threads(1);
  std::vector<float> serial(in.size());
  fp8_quantize_scaled(in, serial, fast_cast_spec(Fp8Kind::E4M3), 0.37f);

  for (int threads : {2, 8}) {
    set_num_threads(threads);
    std::vector<float> parallel(in.size());
    fp8_quantize_scaled(in, parallel, fast_cast_spec(Fp8Kind::E4M3), 0.37f);
    for (size_t i = 0; i < in.size(); ++i) {
      ASSERT_EQ(serial[i], parallel[i]) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(Determinism, MatMulAndConvBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(7);
  const Tensor a = randn(rng, {3, 17, 24});
  const Tensor b = randn(rng, {3, 24, 19});
  const Tensor x = randn(rng, {2, 6, 12, 12});
  const Tensor w = randn(rng, {8, 6, 3, 3});
  MatMulOp mm(true, false);
  Conv2dOp conv(w, Tensor{}, 1, 1, 1);
  const std::vector<Tensor> mm_in = {a, b};
  const std::vector<Tensor> conv_in = {x};

  set_num_threads(1);
  const Tensor y1 = mm.forward(mm_in);
  const Tensor c1 = conv.forward(conv_in);
  set_num_threads(8);
  const Tensor y8 = mm.forward(mm_in);
  const Tensor c8 = conv.forward(conv_in);

  ASSERT_EQ(y1.numel(), y8.numel());
  for (std::int64_t i = 0; i < y1.numel(); ++i) ASSERT_EQ(y1.flat()[i], y8.flat()[i]);
  ASSERT_EQ(c1.numel(), c8.numel());
  for (std::int64_t i = 0; i < c1.numel(); ++i) ASSERT_EQ(c1.flat()[i], c8.flat()[i]);
}

TEST(Determinism, AccuracyRecordsIdenticalAt1And8Threads) {
  ThreadCountGuard guard;
  const auto workloads = sample_workloads();
  const EvalProtocol protocol = quick_protocol();
  const std::vector<SchemeConfig> schemes = {standard_fp8_scheme(DType::kE4M3),
                                             standard_fp8_scheme(DType::kE3M4)};

  set_num_threads(1);
  const auto serial = evaluate_suite(workloads, schemes, protocol);
  set_num_threads(8);
  const auto parallel = evaluate_suite(workloads, schemes, protocol);

  ASSERT_EQ(serial.size(), workloads.size() * schemes.size());
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    // Same pair order as the serial double loop...
    EXPECT_EQ(serial[i].workload, parallel[i].workload) << i;
    EXPECT_EQ(serial[i].config, parallel[i].config) << i;
    // ...and bit-identical metrics (exact double equality, no tolerance).
    EXPECT_EQ(serial[i].fp32_accuracy, parallel[i].fp32_accuracy) << serial[i].workload;
    EXPECT_EQ(serial[i].quant_accuracy, parallel[i].quant_accuracy) << serial[i].workload;
    EXPECT_EQ(serial[i].model_size_mb, parallel[i].model_size_mb) << serial[i].workload;
  }
}

TEST(Determinism, CastMagnitudeHistogramInvariantAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(91);
  std::vector<float> in(1 << 18);
  for (float& v : in) v = rng.normal(0.0f, 3.0f);
  std::vector<float> out(in.size());

  // Histograms on, tracing off: the cast_mag/* channels classify each
  // element's pre-quantization |x*scale| (fp8/cast_fast.cpp), so the merged
  // bucket counts -- and every quantile -- must be bitwise-identical no
  // matter how parallel_for chunked the range.
  set_histograms_enabled(true);
  auto run_at = [&](int threads) {
    histograms_reset();
    set_num_threads(threads);
    fp8_quantize_scaled(in, out, fast_cast_spec(Fp8Kind::E4M3), 0.37f);
    return histogram_snapshot(HistChannel::kCastMagE4M3);
  };
  const HistogramSnapshot serial = run_at(1);
  const HistogramSnapshot parallel4 = run_at(4);
  const HistogramSnapshot parallel8 = run_at(8);
  set_histograms_enabled(false);
  histograms_reset();

  EXPECT_EQ(serial.total, in.size());
  EXPECT_TRUE(serial == parallel4);
  EXPECT_TRUE(serial == parallel8);
  for (double q : {0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(serial.quantile(q), parallel8.quantile(q)) << "q=" << q;
  }
}

TEST(Determinism, HistogramsDoNotPerturbCastOutputs) {
  ThreadCountGuard guard;
  set_num_threads(4);
  Rng rng(5);
  std::vector<float> in(65536);
  for (float& v : in) v = rng.normal(0.0f, 2.0f);
  std::vector<float> plain(in.size());
  std::vector<float> histed(in.size());

  set_histograms_enabled(false);
  fp8_quantize_scaled(in, plain, fast_cast_spec(Fp8Kind::E3M4), 1.7f);
  set_histograms_enabled(true);
  histograms_reset();
  fp8_quantize_scaled(in, histed, fast_cast_spec(Fp8Kind::E3M4), 1.7f);
  set_histograms_enabled(false);
  histograms_reset();

  for (size_t i = 0; i < in.size(); ++i) ASSERT_EQ(plain[i], histed[i]) << i;
}

TEST(Determinism, CountersDoNotPerturbAccuracyRecords) {
  ThreadCountGuard guard;
  set_num_threads(8);
  const auto workloads = sample_workloads();
  const EvalProtocol protocol = quick_protocol();
  const std::vector<SchemeConfig> schemes = {standard_fp8_scheme(DType::kE4M3)};

  // Event counting classifies from values the cast computes anyway and
  // never feeds back into outputs (obs/counters.h) -- the records must be
  // bit-identical with counting on and off.
  set_counters_enabled(false);
  const auto plain = evaluate_suite(workloads, schemes, protocol);
  set_counters_enabled(true);
  counters_reset();
  const auto counted = evaluate_suite(workloads, schemes, protocol);
  const CounterSnapshot totals = counters_snapshot();
  set_counters_enabled(false);

  ASSERT_EQ(plain.size(), counted.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].fp32_accuracy, counted[i].fp32_accuracy) << plain[i].workload;
    EXPECT_EQ(plain[i].quant_accuracy, counted[i].quant_accuracy) << plain[i].workload;
    EXPECT_EQ(plain[i].model_size_mb, counted[i].model_size_mb) << plain[i].workload;
  }
  // ...and the counted run actually counted: an E4M3 evaluation pushes
  // every weight and activation through the instrumented casts.
  EXPECT_GT(totals.get(ObsFormat::kE4M3, ObsEvent::kQuantized), 0u);
}

// --- evaluate_suite shares one plan per workload ---------------------------
//
// Each (workload, scheme) record must equal a standalone
// evaluate_workload on a fresh plan, whatever the thread count and
// whether the suite runs on the pool or inline inside another task.

std::vector<SchemeConfig> suite_schemes() {
  return {standard_fp8_scheme(DType::kE5M2), standard_fp8_scheme(DType::kE4M3, true),
          standard_fp8_scheme(DType::kE3M4, false), int8_scheme(true)};
}

/// evaluate_workload for every pair, in serial double-loop order.
std::vector<AccuracyRecord> per_pair_records(const std::vector<Workload>& workloads,
                                             const std::vector<SchemeConfig>& schemes,
                                             const EvalProtocol& protocol) {
  std::vector<AccuracyRecord> out;
  for (const auto& w : workloads) {
    for (const auto& scheme : schemes) out.push_back(evaluate_workload(w, scheme, protocol));
  }
  return out;
}

void expect_same_records(const std::vector<AccuracyRecord>& want,
                         const std::vector<AccuracyRecord>& got, const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].workload, got[i].workload) << label << " pair " << i;
    EXPECT_EQ(want[i].domain, got[i].domain) << label << " pair " << i;
    EXPECT_EQ(want[i].config, got[i].config) << label << " pair " << i;
    EXPECT_EQ(want[i].fp32_accuracy, got[i].fp32_accuracy) << label << " pair " << i;
    EXPECT_EQ(want[i].quant_accuracy, got[i].quant_accuracy) << label << " pair " << i;
    EXPECT_EQ(want[i].model_size_mb, got[i].model_size_mb) << label << " pair " << i;
  }
}

TEST(SuitePlanSharing, RecordsMatchPerPairEvaluationAt1And4Threads) {
  ThreadCountGuard guard;
  const auto workloads = sample_workloads();
  const auto schemes = suite_schemes();
  const EvalProtocol protocol = quick_protocol();
  const auto want = per_pair_records(workloads, schemes, protocol);
  for (int threads : {1, 4}) {
    set_num_threads(threads);
    expect_same_records(want, evaluate_suite(workloads, schemes, protocol),
                        "threads=" + std::to_string(threads));
  }
}

TEST(SuitePlanSharing, RecordsMatchWhenCalledFromInsideAParallelTask) {
  ThreadCountGuard guard;
  set_num_threads(4);
  const auto workloads = sample_workloads();
  const auto schemes = suite_schemes();
  const EvalProtocol protocol = quick_protocol();
  const auto want = per_pair_records(workloads, schemes, protocol);
  // Inside a task the suite takes the nested inline path.
  const auto nested = parallel_map(2, [&](std::int64_t) {
    EXPECT_TRUE(in_parallel_region());
    return evaluate_suite(workloads, schemes, protocol);
  });
  for (size_t t = 0; t < nested.size(); ++t) {
    expect_same_records(want, nested[t], "task " + std::to_string(t));
  }
}

TEST(SuitePlanSharing, ProgressOncePerPairAndOnePlanPerWorkload) {
  ThreadCountGuard guard;
  set_num_threads(4);
  auto workloads = sample_workloads();
  const auto schemes = suite_schemes();
  // Every plan build calls the workload's builder exactly once.
  std::atomic<int> builds{0};
  for (auto& w : workloads) {
    w.build = [inner = w.build, &builds] {
      builds.fetch_add(1, std::memory_order_relaxed);
      return inner();
    };
  }
  std::mutex mu;
  std::vector<int> seen;
  const auto records = evaluate_suite(workloads, schemes, quick_protocol(), [&](int done) {
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back(done);
  });
  const size_t pairs = workloads.size() * schemes.size();
  ASSERT_EQ(records.size(), pairs);
  EXPECT_EQ(builds.load(), static_cast<int>(workloads.size()));
  // Exactly one call per pair, carrying each running count once.
  ASSERT_EQ(seen.size(), pairs);
  std::sort(seen.begin(), seen.end());
  for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], static_cast<int>(i) + 1);
}

TEST(SuitePlanSharing, BuildFailureRethrowsAndPoolSurvives) {
  ThreadCountGuard guard;
  set_num_threads(4);
  auto workloads = sample_workloads();
  workloads[1].build = []() -> Graph { throw std::runtime_error("build failed"); };
  EXPECT_THROW((void)evaluate_suite(workloads, suite_schemes(), quick_protocol()),
               std::runtime_error);
  // The next parallel region still runs every index.
  const auto squares = parallel_map(64, [](std::int64_t i) { return i * i; });
  for (std::int64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(squares[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(Determinism, NoUnorderedIterationInLibrarySources) {
  // Regression lock for the structural side of this contract: range-for
  // over an unordered container is iteration in hash/address order — a
  // determinism leak the moment it reaches any output. The 2026-08 sweep
  // left src/ free of them (every emitter sorts or uses std::map); the
  // fp8q_lint unordered-iteration rule keeps it that way, and this assert
  // keeps the failure inside the determinism suite where the contract
  // lives (docs/STATIC_ANALYSIS.md).
  std::string errors;
  const auto findings = lint::lint_tree(FP8Q_LINT_SRC_ROOT, &errors);
  ASSERT_TRUE(errors.empty()) << errors;
  for (const auto& f : findings) {
    if (f.rule == "unordered-iteration") {
      ADD_FAILURE() << lint::format_finding(f);
    }
  }
}

}  // namespace
}  // namespace fp8q
