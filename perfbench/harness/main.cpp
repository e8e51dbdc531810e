// fp8q_perfbench: the end-to-end benchmark harness (perfbench/README.md).
//
//   fp8q_perfbench --workload sweep|tune|serve --seed N --seconds S --trace 0|1
//                  [--root DIR]
//   fp8q_perfbench --write-references DIR
//
// Runs from the repository root (or --root): reads the references under
// perfbench/reference and writes its results and the serve socket under
// .bench_build/. Prints a human-readable summary, then one JSON line
//
//   {"correct":..., "attempted":..., "failed":..., "metrics":{name:{value,unit}}}
//
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Exits 1 when any output differs from its reference, 2 when
// the run could not be made at all (no result line then).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cpu_dispatch.h"
#include "core/parallel.h"
#include "io/json.h"
#include "obs/counters.h"
#include "obs/memory.h"
#include "obs/trace.h"
#include "compare.h"
#include "service/protocol.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace {

using perfbench::SpanTree;
using perfbench::Window;
using perfbench::named;

/// The benchmark never uses more compute threads than this.
constexpr int kMaxThreads = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string root = ".";
  std::string write_references;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value after " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
    } else if (flag == "--root") {
      a.root = value;
    } else if (flag == "--write-references") {
      a.write_references = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload && a.write_references.empty()) {
    throw std::invalid_argument("--workload sweep|tune|serve is required");
  }
  if (!(a.seconds > 0 && a.seconds <= 3600)) {
    throw std::invalid_argument("--seconds must be in (0, 3600]");
  }
  return a;
}

/// One reported figure.
struct Metric {
  double value = 0.0;
  std::uint64_t samples = 0;  ///< observations behind the value
  std::string note;           ///< how it was derived, or why it does not apply
};

/// A metric's declaration: name, unit, and what it moves (per-layer only).
struct MetricSpec {
  const char* name;
  const char* unit;
  const char* moves;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s", ""},
    {"evals_per_s", "1/s", ""},
    {"tune_wall_s", "s", ""},
    {"jobs_per_s", "1/s", ""},
    {"latency_p50_ms", "ms", ""},
    {"latency_tail_ms", "ms", ""},
    {"peak_rss_mb", "MB", ""},
};

constexpr const char* kSweepMoves = "evals_per_s on sweep";
constexpr const char* kQuantMoves =
    "evals_per_s on sweep, tune_wall_s on tune, latency_p50_ms on serve (quantize jobs)";
constexpr const char* kForwardMoves = "evals_per_s on sweep, tune_wall_s on tune";
constexpr const char* kCacheMoves = "tune_wall_s on tune, latency_p50_ms on serve";
constexpr const char* kNnMoves = "evals_per_s on sweep, tune_wall_s on tune; not serve";
constexpr const char* kTuneMoves = "tune_wall_s on tune";
constexpr const char* kServiceMoves =
    "jobs_per_s, latency_p50_ms, latency_tail_ms on serve; not sweep or tune";

constexpr MetricSpec kPerLayer[] = {
    {"workloads.plan_ms", "ms", kSweepMoves},
    {"workloads.eval_self_ms", "ms", kSweepMoves},
    {"quant.prepare_ms", "ms", kQuantMoves},
    {"quant.smoothquant_ms", "ms", kQuantMoves},
    {"quant.quantize_weights_ms", "ms", kQuantMoves},
    {"quant.calibrate_ms", "ms", kQuantMoves},
    {"quant.bn_calibrate_ms", "ms", kQuantMoves},
    {"quant.probe_prepare_ms", "ms", kQuantMoves},
    {"quant.forward_ms", "ms", kForwardMoves},
    {"quant.input_fq_ms", "ms", kForwardMoves},
    {"quant.input_fq_self_ms", "ms", kForwardMoves},
    {"quant.probe_forward_ms", "ms", kForwardMoves},
    {"quant.apply_ms", "ms", kQuantMoves},
    {"quant.weight_cache_ms", "ms", kCacheMoves},
    {"quant.weight_cache_hits", "count", kCacheMoves},
    {"quant.weight_cache_misses", "count", kCacheMoves},
    {"quant.weight_cache_lookups", "count", kCacheMoves},
    {"quant.weight_cache_hit_ratio", "ratio", kCacheMoves},
    {"nn.packed_linear_ms", "ms", kNnMoves},
    {"nn.packed_matmul_ms", "ms", kNnMoves},
    {"nn.packed_conv_ms", "ms", kNnMoves},
    {"nn.fp32_conv_ms", "ms", kNnMoves},
    {"nn.kernel_calls_packed", "count", kNnMoves},
    {"nn.kernel_calls_fp32", "count", kNnMoves},
    {"nn.fp32_forward_ms", "ms", kNnMoves},
    {"nn.unspanned_forward_ms", "ms", kNnMoves},
    {"fp8.elems_quantized", "count", "exact count of the work done"},
    {"fp8.saturated", "count", "exact count of the work done"},
    {"fp8.flushed_to_zero", "count", "exact count of the work done"},
    {"tensor.alloc_gib", "GiB", "peak_rss_mb on all, evals_per_s on sweep"},
    {"tensor.allocs", "count", "peak_rss_mb on all, evals_per_s on sweep"},
    {"tune.trials", "count", kTuneMoves},
    {"tune.trial_ms_p50", "ms", kTuneMoves},
    {"tune.sensitivity_ms", "ms", kTuneMoves},
    {"tune.ladder_ms", "ms", kTuneMoves},
    {"tune.fallback_ms", "ms", kTuneMoves},
    {"core.parallel_tasks", "count", kSweepMoves},
    {"core.busy_fraction", "ratio", kSweepMoves},
    {"service.queue_wait_ms_p50", "ms", kServiceMoves},
    {"service.queue_wait_ms_p99", "ms", kServiceMoves},
    {"service.job_wall_ms_p50", "ms", kServiceMoves},
    {"service.job_wall_ms_p99", "ms", kServiceMoves},
    {"service.worker_busy_fraction", "ratio", kServiceMoves},
    {"service.overhead_ms_p50", "ms", kServiceMoves},
    {"service.rejected", "count", kServiceMoves},
    {"obs.trace_overhead_pct", "%", "the cost of tracing itself; no end-to-end metric"},
    {"obs.spans", "count", "the cost of tracing itself; no end-to-end metric"},
    {"obs.spans_dropped", "count", "the cost of tracing itself; no end-to-end metric"},
};

using MetricMap = std::map<std::string, Metric>;

Metric span_metric(const perfbench::SpanSum& s) { return {s.ms, s.count, ""}; }

Metric not_applicable(const char* why) { return {0.0, 0, std::string("not applicable: ") + why}; }

double cost_per_op(const Window& w) {
  return w.ops > 0 ? w.wall_s / static_cast<double>(w.ops) : w.wall_s;
}

MetricMap end_to_end(const std::string& workload, const Window& w,
                     const std::vector<double>& setups) {
  MetricMap m;
  m["setup_s"] = {perfbench::median(setups), setups.size(), "median of the setups"};
  const double rate_wall_s =
      w.identical_passes ? perfbench::median(w.pass_s) * static_cast<double>(w.pass_s.size())
                         : w.wall_s;
  m["evals_per_s"] = {static_cast<double>(w.evals) / rate_wall_s, w.evals,
                      "quantized-model evaluations completed per second"};
  m["tune_wall_s"] = {perfbench::median(w.pass_s), w.pass_s.size(),
                      "median wall time of one pass over the workload's input set"};
  const auto completed = static_cast<double>(w.ops - w.failed);
  const char* op = workload == "sweep" ? "evaluations" : workload == "tune" ? "autotune sessions"
                                                                              : "fp8qd jobs";
  m["jobs_per_s"] = {completed / rate_wall_s, w.ops - w.failed,
                     std::string(op) + " completed per second"};
  m["latency_p50_ms"] = {perfbench::median(w.latency_ms), w.latency_ms.size(), ""};
  const perfbench::Tail tail = perfbench::pick_tail(w.latency_ms);
  m["latency_tail_ms"] = {tail.value, w.latency_ms.size(),
                          tail.label + ", " + std::to_string(tail.beyond) + " of " +
                              std::to_string(w.latency_ms.size()) + " samples beyond" +
                              (tail.supported ? "" : " (fewer than 10)")};
  m["peak_rss_mb"] = {static_cast<double>(fp8q::peak_rss_bytes()) / 1e6, 1, ""};
  return m;
}

/// Counter deltas over the traced window.
struct Deltas {
  fp8q::CounterSnapshot counters;
  fp8q::CacheCounterSnapshot cache;
  fp8q::KernelCounterSnapshot kernels;
  fp8q::AllocCounterSnapshot allocs;
};

struct Snapshots {
  fp8q::CounterSnapshot counters = fp8q::counters_snapshot();
  fp8q::CacheCounterSnapshot cache = fp8q::cache_counters_snapshot();
  fp8q::KernelCounterSnapshot kernels = fp8q::kernel_counters_snapshot();
  fp8q::AllocCounterSnapshot allocs = fp8q::alloc_counters_snapshot();

  [[nodiscard]] Deltas since(const Snapshots& before) const {
    return {counters.since(before.counters), cache.since(before.cache),
            kernels.since(before.kernels), allocs.since(before.allocs)};
  }
};

/// What the traced run's cost per operation is compared with.
struct Baseline {
  double cost_per_op_s = 0.0;
  std::uint64_t runs = 0;  ///< untraced runs behind it
};

/// The median cost per operation of this workload's correct untraced runs
/// whose results files sit in `dir`; runs = 0 when there are none.
Baseline untraced_baseline(const std::filesystem::path& dir, const std::string& workload) {
  std::vector<double> costs;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with(workload + "-seed") || name.ends_with("-trace.json")) continue;
    try {
      const fp8q::json::Value doc = perfbench::read_json_file(entry.path().string());
      const fp8q::json::Value* correct = doc.find("correct");
      const fp8q::json::Value* w = doc.find("window");
      if (correct == nullptr || !correct->boolean || w == nullptr) continue;
      if (w->number_or("ops") > 0) costs.push_back(w->number_or("wall_s") / w->number_or("ops"));
    } catch (const std::exception&) {
      // An unreadable file is no baseline.
    }
  }
  return {perfbench::median(costs), costs.size()};
}

MetricMap per_layer(const perfbench::BenchWorkload& workload, const Baseline& untraced,
                    const Window& traced, const SpanTree& tree, const Deltas& d,
                    const perfbench::ProbeResult& probe) {
  using fp8q::ObsKernelPath;
  MetricMap m;
  const auto probe_note = std::to_string(probe.cases) + " probe cases, " +
                          std::to_string(probe.batches) + " batches";
  const auto probe_metric = [&](double ms) {
    return Metric{ms, static_cast<std::uint64_t>(probe.cases), probe_note};
  };
  // Layer spans: everything but the parallel runtime's per-task spans.
  const perfbench::NamePred layer = [](std::string_view n) { return n != "parallel/task"; };

  m["workloads.plan_ms"] = probe_metric(probe.plan_ms);
  m["workloads.eval_self_ms"] = span_metric(workload.eval_self(tree, traced));

  m["quant.prepare_ms"] = span_metric(tree.total(named("qgraph/prepare")));
  m["quant.smoothquant_ms"] = span_metric(tree.total(named("qgraph/smoothquant")));
  m["quant.quantize_weights_ms"] = span_metric(tree.total(named("qgraph/quantize-weights")));
  m["quant.calibrate_ms"] = span_metric(tree.total(named("qgraph/calibrate-activations")));
  m["quant.bn_calibrate_ms"] = span_metric(tree.total(named("qgraph/calibrate-batchnorm")));
  m["quant.probe_prepare_ms"] = probe_metric(probe.prepare_ms);
  m["quant.forward_ms"] = span_metric(tree.total(named("qgraph/forward")));
  m["quant.input_fq_ms"] = span_metric(tree.total(named("qgraph/input:*")));
  m["quant.input_fq_self_ms"] = span_metric(tree.self_time(named("qgraph/input:*"), layer));
  m["quant.probe_forward_ms"] = probe_metric(probe.forward_ms);
  m["quant.apply_ms"] = span_metric(tree.total(named("quant/apply-*"), true));
  m["quant.weight_cache_ms"] = span_metric(tree.total(named("quant/weight-cache")));
  const std::uint64_t hits = d.cache.get(fp8q::ObsCacheEvent::kHit);
  const std::uint64_t misses = d.cache.get(fp8q::ObsCacheEvent::kMiss);
  m["quant.weight_cache_hits"] = {static_cast<double>(hits), 1, ""};
  m["quant.weight_cache_misses"] = {static_cast<double>(misses), 1, ""};
  m["quant.weight_cache_lookups"] = {static_cast<double>(hits + misses), 1, "hits + misses"};
  m["quant.weight_cache_hit_ratio"] = {
      hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0,
      hits + misses, "hits / (hits + misses); samples = lookups"};

  m["nn.packed_linear_ms"] = span_metric(tree.total(named("linear_packed")));
  m["nn.packed_matmul_ms"] = span_metric(tree.total(named("matmul_packed")));
  m["nn.packed_conv_ms"] = span_metric(tree.total(named("conv_packed")));
  m["nn.fp32_conv_ms"] = span_metric(tree.total(named("conv_fp32")));
  const auto kernel = [&](ObsKernelPath p) { return d.kernels.get(p); };
  m["nn.kernel_calls_packed"] = {
      static_cast<double>(kernel(ObsKernelPath::kLinearPacked) +
                          kernel(ObsKernelPath::kConvPacked) +
                          kernel(ObsKernelPath::kMatmulPacked)),
      1, "linear + conv + matmul forwards on packed codes"};
  m["nn.kernel_calls_fp32"] = {
      static_cast<double>(kernel(ObsKernelPath::kLinearFp32) + kernel(ObsKernelPath::kConvFp32) +
                          kernel(ObsKernelPath::kMatmulFp32)),
      1, "linear + conv + matmul forwards on FP32 weights"};
  m["nn.fp32_forward_ms"] = probe_metric(probe.fp32_forward_ms);
  m["nn.unspanned_forward_ms"] = span_metric(tree.self_time(named("qgraph/forward"), layer));

  using fp8q::ObsEvent;
  m["fp8.elems_quantized"] = {static_cast<double>(d.counters.total(ObsEvent::kQuantized)), 1, ""};
  m["fp8.saturated"] = {static_cast<double>(d.counters.total(ObsEvent::kSaturated)), 1, ""};
  m["fp8.flushed_to_zero"] = {static_cast<double>(d.counters.total(ObsEvent::kFlushedToZero)),
                              1, ""};
  m["tensor.alloc_gib"] = {static_cast<double>(d.allocs.bytes) / (1024.0 * 1024.0 * 1024.0),
                           d.allocs.allocs, ""};
  m["tensor.allocs"] = {static_cast<double>(d.allocs.allocs), 1, ""};

  if (traced.trial_ms.empty()) {
    for (const char* n : {"tune.trials", "tune.trial_ms_p50", "tune.sensitivity_ms",
                          "tune.ladder_ms", "tune.fallback_ms"}) {
      m[n] = not_applicable("this workload runs no tuner");
    }
  } else {
    m["tune.trials"] = {static_cast<double>(traced.trial_ms.size()), 1, ""};
    m["tune.trial_ms_p50"] = {perfbench::median(traced.trial_ms), traced.trial_ms.size(), ""};
    m["tune.sensitivity_ms"] = span_metric(tree.total(named("tune/sensitivity")));
    m["tune.ladder_ms"] = span_metric(tree.total(named("tune/ladder")));
    m["tune.fallback_ms"] = span_metric(tree.total(named("tune/fallback-*")));
  }

  const perfbench::SpanSum tasks = tree.total(named("parallel/task"));
  const perfbench::SpanSum top_tasks = tree.total(named("parallel/task"), true);
  m["core.parallel_tasks"] = {static_cast<double>(tasks.count), 1, ""};
  m["core.busy_fraction"] = {
      top_tasks.ms / (traced.wall_s * 1e3 * static_cast<double>(fp8q::num_threads())),
      top_tasks.count, "outermost parallel-task time / (wall x threads)"};

  if (!traced.service) {
    for (const char* n : {"service.queue_wait_ms_p50", "service.queue_wait_ms_p99",
                          "service.job_wall_ms_p50", "service.job_wall_ms_p99",
                          "service.worker_busy_fraction", "service.overhead_ms_p50",
                          "service.rejected"}) {
      m[n] = not_applicable("this workload runs no server");
    }
  } else {
    const fp8q::service::ServiceStats& s = *traced.service;
    const auto hist_ms = [](const fp8q::HistogramSnapshot& h, double q) {
      return Metric{h.quantile(q) / 1e6, h.total, "Server::stats_snapshot histogram"};
    };
    m["service.queue_wait_ms_p50"] = hist_ms(s.queue_wait_ns, 0.50);
    m["service.queue_wait_ms_p99"] = hist_ms(s.queue_wait_ns, 0.99);
    m["service.job_wall_ms_p50"] = hist_ms(s.job_wall_ns, 0.50);
    m["service.job_wall_ms_p99"] = hist_ms(s.job_wall_ns, 0.99);
    double busy = 0.0;
    for (const auto& w : s.per_worker) busy += w.busy_fraction;
    m["service.worker_busy_fraction"] = {
        s.per_worker.empty() ? 0.0 : busy / static_cast<double>(s.per_worker.size()),
        s.per_worker.size(), "mean over workers"};
    m["service.overhead_ms_p50"] = {perfbench::median(traced.overhead_ms),
                                    traced.overhead_ms.size(),
                                    "client round trip minus queue wait and executor wall"};
    m["service.rejected"] = {static_cast<double>(s.rejected), 1, ""};
  }

  m["obs.trace_overhead_pct"] = {
      (cost_per_op(traced) / untraced.cost_per_op_s - 1.0) * 100.0, untraced.runs,
      "traced vs untraced wall per operation; samples = untraced runs"};
  m["obs.spans"] = {static_cast<double>(tree.spans().size()), 1, ""};
  m["obs.spans_dropped"] = {static_cast<double>(fp8q::trace_dropped()), 1, ""};
  return m;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out;
  fp8q::service::append_json_string(out, s);
  return out;
}

std::string window_json(const Window& w) {
  const perfbench::Tail tail = perfbench::pick_tail(w.latency_ms);
  return "{\"wall_s\":" + number(w.wall_s) + ",\"ops\":" + std::to_string(w.ops) +
         ",\"failed\":" + std::to_string(w.failed) + ",\"evals\":" + std::to_string(w.evals) +
         ",\"passes\":" + std::to_string(w.pass_s.size()) +
         ",\"latency_samples\":" + std::to_string(w.latency_ms.size()) +
         ",\"latency_tail\":{\"percentile\":" + quoted(tail.label) +
         ",\"beyond\":" + std::to_string(tail.beyond) + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
    if (!args.write_references.empty()) {
      perfbench::write_references(args.write_references);
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fp8q_perfbench: %s\n", e.what());
    return 2;
  }

  // Tracing is off unless this run is the traced one, whatever FP8Q_TRACE says.
  fp8q::set_trace_enabled(false);
  fp8q::set_num_threads(std::min(kMaxThreads, fp8q::num_threads()));
  const std::filesystem::path root(args.root);
  const std::filesystem::path out_dir = root / ".bench_build";
  const std::filesystem::path results_dir = out_dir / "perfbench-results";

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  MetricMap metrics;
  std::string windows;
  try {
    std::filesystem::create_directories(out_dir);
    auto workload = perfbench::make_workload(args.workload, args.seed,
                                             (root / "perfbench" / "reference").string(),
                                             out_dir.string());
    std::vector<double> setups;
    const int repeats = args.trace ? 1 : workload->setup_repeats();
    for (int i = 0; i < repeats; ++i) {
      const std::uint64_t t0 = fp8q::obs_now_ns();
      workload->setup();
      setups.push_back(static_cast<double>(fp8q::obs_now_ns() - t0) / 1e9);
    }

    std::vector<const Window*> checked;
    Window base;
    Window traced;
    if (!args.trace) {
      base = workload->run(args.seconds);
      metrics = end_to_end(args.workload, base, setups);
      checked = {&base};
      windows = "\"window\":" + window_json(base);
    } else {
      // Tracing overhead is measured against the untraced runs already
      // made in this checkout; without any, half the time runs untraced.
      Baseline untraced = untraced_baseline(results_dir, args.workload);
      double seconds = args.seconds;
      if (untraced.runs == 0) {
        seconds /= 2;
        base = workload->run(seconds);
        untraced = {cost_per_op(base), 1};
        checked.push_back(&base);
        windows = "\"untraced_window\":" + window_json(base) + ",";
      } else {
        windows = "\"untraced_baseline\":{\"runs\":" + std::to_string(untraced.runs) +
                  ",\"cost_per_op_s\":" + number(untraced.cost_per_op_s) + "},";
      }
      fp8q::set_counters_enabled(true);
      fp8q::trace_reset();
      const Snapshots before;
      fp8q::set_trace_enabled(true);
      traced = workload->run(seconds);
      fp8q::set_trace_enabled(false);
      const Deltas deltas = Snapshots{}.since(before);
      const SpanTree tree(fp8q::trace_snapshot());
      const perfbench::ProbeResult probe = perfbench::run_probe(workload->probe_cases());
      metrics = per_layer(*workload, untraced, traced, tree, deltas, probe);
      fp8q::trace_reset();
      checked.push_back(&traced);
      windows += "\"traced_window\":" + window_json(traced);
      attempted += static_cast<std::uint64_t>(probe.cases);
      failed += probe.problems.size();
      problems.insert(problems.end(), probe.problems.begin(), probe.problems.end());
    }
    for (const Window* w : checked) {
      attempted += w->ops;
      failed += w->failed;
      problems.insert(problems.end(), w->problems.begin(), w->problems.end());
    }
    correct = failed == 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fp8q_perfbench: %s\n", e.what());
    return 2;
  }

  // Human-readable summary, then the per-metric results file, then the
  // one-line result.
  std::printf("perfbench %s seed=%llu trace=%d isa=%s threads=%d attempted=%llu failed=%llu "
              "error_rate=%.6g\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, fp8q::isa_label(), fp8q::num_threads(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0);
  for (const std::string& p : problems) std::printf("  MISMATCH %s\n", p.c_str());

  std::string json_metrics;
  std::string file_metrics;
  for (const MetricSpec& spec : args.trace ? std::span<const MetricSpec>(kPerLayer)
                                           : std::span<const MetricSpec>(kEndToEnd)) {
    const auto it = metrics.find(spec.name);
    if (it == metrics.end()) {
      std::fprintf(stderr, "fp8q_perfbench: metric %s was not computed\n", spec.name);
      return 2;
    }
    const Metric& m = it->second;
    std::printf("  %-30s %16.6f %-6s %s\n", spec.name, m.value, spec.unit, m.note.c_str());
    json_metrics += std::string(json_metrics.empty() ? "" : ",") + quoted(spec.name) +
                    ":{\"value\":" + number(m.value) + ",\"unit\":" + quoted(spec.unit) + "}";
    file_metrics += std::string(file_metrics.empty() ? "" : ",\n  ") + "{\"name\":" +
                    quoted(spec.name) + ",\"value\":" + number(m.value) +
                    ",\"unit\":" + quoted(spec.unit) + ",\"samples\":" +
                    std::to_string(m.samples) + ",\"note\":" + quoted(m.note) +
                    (spec.moves[0] != '\0' ? ",\"moves\":" + quoted(spec.moves) : "") + "}";
  }
  const std::string head = "{\"correct\":" + std::string(correct ? "true" : "false") +
                           ",\"attempted\":" + std::to_string(attempted) +
                           ",\"failed\":" + std::to_string(failed);

  std::string problem_list;
  for (const std::string& p : problems) {
    if (!problem_list.empty()) problem_list += ',';
    problem_list += quoted(p);
  }
  const std::filesystem::path results =
      results_dir / (args.workload + "-seed" + std::to_string(args.seed) + (args.trace ? "-trace" : "") +
       ".json");
  std::filesystem::create_directories(results.parent_path());
  std::ofstream(results) << head << ",\"workload\":" << quoted(args.workload)
                         << ",\"seed\":" << args.seed << ",\"seconds\":" << number(args.seconds)
                         << ",\"trace\":" << (args.trace ? 1 : 0)
                         << ",\"isa\":" << quoted(fp8q::isa_label())
                         << ",\"threads\":" << fp8q::num_threads() << "," << windows
                         << ",\"problems\":[" << problem_list << "],\n\"metrics\":[\n  "
                         << file_metrics << "\n]}\n";

  std::printf("%s,\"metrics\":{%s}}\n", head.c_str(), json_metrics.c_str());
  return correct ? 0 : 1;
}
