// Scaling study of the parallel quantization runtime (docs/THREADING.md):
// wall-clock and speedup at 1/2/4/N threads for the three parallelized
// layers -- bulk FP8 casts, the matmul/conv kernels, and the suite-level
// workload sweep -- plus a bit-identity check of every result against the
// 1-thread run.
//
// Usage: bench_parallel_scaling [--full]
//   --full  sweep a 15-workload subset instead of 5 (slower, more stable)
//
// Observability (docs/OBSERVABILITY.md): FP8Q_REPORT=<path> writes a run
// report with one stage per (section, thread count) measurement.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "fp8/cast_fast.h"
#include "nn/matmul.h"
#include "obs/trace.h"
#include "tensor/rng.h"
#include "workloads/registry.h"

#include "bench_report.h"

namespace {

using fp8q::num_threads;
using fp8q::obs_now_ns;
using fp8q::set_num_threads;

// All timing goes through the obs-owned clock (obs_now_ns), the same
// domain the latency histograms and trace exports use.
double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(obs_now_ns() - t0_ns) / 1e9;
}

/// Best-of-`reps` wall time of fn().
template <class Fn>
double time_best(int reps, Fn&& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = obs_now_ns();
    fn();
    const double s = seconds_since(t0);
    if (s < best) best = s;
  }
  return best;
}

std::vector<int> thread_points() {
  std::vector<int> pts = {1, 2, 4};
  const int hw = fp8q::hardware_threads();
  if (hw > 4) pts.push_back(hw);
  return pts;
}

void print_row(const char* name, int threads, double secs, double serial_secs,
               bool identical) {
  std::printf("%-24s %3d threads  %9.4f s  speedup %5.2fx  bit-identical: %s\n", name,
              threads, secs, serial_secs / secs, identical ? "yes" : "NO");
  fp8q::report_add_stage(std::string(name) + "@" + std::to_string(threads) + "t",
                         secs * 1e3);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fp8q;
  BenchReport bench_report("bench_parallel_scaling");
  bool full = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) full = true;
  }
  std::printf("parallel scaling (hardware_concurrency = %d)\n\n", hardware_threads());

  // ------------------------------------------------------------- bulk cast
  {
    Rng rng(1);
    std::vector<float> in(1 << 22);
    for (float& v : in) v = rng.normal(0.0f, 2.0f);
    std::vector<float> out(in.size());
    const FastCastSpec& spec = fast_cast_spec(Fp8Kind::E4M3);

    set_num_threads(1);
    const double serial =
        time_best(3, [&] { fp8_quantize_scaled(in, out, spec, 0.41f); });
    const std::vector<float> reference = out;
    for (int t : thread_points()) {
      set_num_threads(t);
      const double secs =
          time_best(3, [&] { fp8_quantize_scaled(in, out, spec, 0.41f); });
      print_row("cast 4M floats E4M3", t, secs, serial, out == reference);
    }
    std::printf("\n");
  }

  // ---------------------------------------------------------------- matmul
  {
    Rng rng(2);
    const Tensor a = randn(rng, {8, 96, 192});
    const Tensor b = randn(rng, {8, 192, 96});
    MatMulOp mm(true, false);
    const std::vector<Tensor> in = {a, b};

    set_num_threads(1);
    Tensor y = mm.forward(in);
    const double serial = time_best(3, [&] { y = mm.forward(in); });
    const Tensor reference = y;
    for (int t : thread_points()) {
      set_num_threads(t);
      const double secs = time_best(3, [&] { y = mm.forward(in); });
      bool same = y.numel() == reference.numel();
      for (std::int64_t i = 0; same && i < y.numel(); ++i) {
        same = y.flat()[i] == reference.flat()[i];
      }
      print_row("matmul 8x[96x192x96]", t, secs, serial, same);
    }
    std::printf("\n");
  }

  // ------------------------------------------------- workload-suite sweep
  {
    auto suite = build_suite();
    std::vector<Workload> subset;
    const size_t stride = full ? 5 : 15;
    for (size_t i = 0; i < suite.size(); i += stride) subset.push_back(suite[i]);
    const std::vector<SchemeConfig> schemes = {standard_fp8_scheme(DType::kE4M3),
                                               standard_fp8_scheme(DType::kE3M4)};
    EvalProtocol protocol;
    std::printf("suite sweep: %zu workloads x %zu schemes\n", subset.size(),
                schemes.size());

    set_num_threads(1);
    std::uint64_t t0 = obs_now_ns();
    const auto reference = evaluate_suite(subset, schemes, protocol);
    const double serial = seconds_since(t0);
    for (int t : thread_points()) {
      set_num_threads(t);
      t0 = obs_now_ns();
      const auto records = evaluate_suite(subset, schemes, protocol);
      const double secs = seconds_since(t0);
      bool same = records.size() == reference.size();
      for (size_t i = 0; same && i < records.size(); ++i) {
        same = records[i].workload == reference[i].workload &&
               records[i].fp32_accuracy == reference[i].fp32_accuracy &&
               records[i].quant_accuracy == reference[i].quant_accuracy;
      }
      print_row("workload sweep", t, secs, serial, same);
    }
  }

  set_num_threads(0);
  return 0;
}
