#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "compare.h"
#include "core/parallel.h"
#include "io/json.h"
#include "io/serialize.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "quant/weight_cache.h"
#include "service/net.h"
#include "service/protocol.h"
#include "stats.h"
#include "tensor/rng.h"
#include "tune/tuner.h"
#include "workloads/registry.h"

namespace perfbench {

namespace {

using fp8q::AccuracyRecord;
using fp8q::EvalProtocol;
using fp8q::Workload;

/// At most this many problem descriptions are kept per window.
constexpr std::size_t kMaxProblems = 20;

/// The sweep evaluates every kSliceStride-th suite entry (bench_table2 --quick).
constexpr std::size_t kSliceStride = 5;

/// The tune set: four workloads that stop at different depths of the
/// ladder (whole ladder + fallbacks and failure; 5, 4 and 3 trials).
constexpr const char* kTuneSet[] = {"nlp/lm-extreme-3", "nlp/longformer-ish-0",
                                    "nlp/marian-ish-1", "bloom176b-ish"};

/// Small and medium workloads the serve clients submit quick jobs on.
constexpr const char* kServeModels[] = {"dlrm-ish", "hubert-ish", "nlp/distil-mlp-0",
                                        "cv/resnet-ish-c8-b2", "nlp/bert-ish-0"};
constexpr const char* kServeFormats[] = {"E4M3", "E3M4", "E5M2", "INT8"};
constexpr int kServeConnections = 4;
constexpr int kServeWorkers = 2;
/// Completions per serve "pass" (the serve reading of tune_wall_s).
constexpr std::size_t kServePassJobs = 256;

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(fp8q::obs_now_ns() - t0) / 1e9;
}

std::string record_key(const std::string& workload, const std::string& config) {
  return workload + "|" + config;
}

/// Deterministic Fisher-Yates shuffle driven by the library's RNG.
template <class T>
void seeded_shuffle(std::vector<T>& v, std::uint64_t seed) {
  fp8q::Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng.next() % i)]);
  }
}

/// Another pass fits if the passes so far say it ends by the deadline.
bool another_pass_fits(const Window& w, double elapsed_s, double seconds) {
  return elapsed_s + median(w.pass_s) <= seconds;
}

std::vector<Workload> sweep_slice(const std::vector<Workload>& suite) {
  std::vector<Workload> slice;
  for (std::size_t i = 0; i < suite.size(); i += kSliceStride) slice.push_back(suite[i]);
  return slice;
}

/// The probe's configuration for a workload: the standard scheme in the
/// paper's recommended format (E3M4 on CV, E4M3 on NLP), static.
fp8q::ModelQuantConfig probe_config(const Workload& w, const EvalProtocol& protocol) {
  return fp8q::default_model_config(
      w, fp8q::standard_fp8_scheme(fp8q::recommended_format(w.domain)), protocol);
}

/// The service's quick job protocol (service/server.cpp protocol_for_spec).
EvalProtocol quick_protocol() {
  EvalProtocol p;
  p.calib_batches = 2;
  p.calib_batch_size = 8;
  p.eval_batches = 2;
  p.eval_batch_size = 32;
  p.bn_calibration_batches = 2;
  return p;
}

fp8q::RunReport through_json(const fp8q::RunReport& report) {
  std::istringstream in(report.to_json());
  return fp8q::report_from_json(in);
}

/// The Table-2 slice: five FP8 schemes through evaluate_suite, then INT8
/// (static on CV, dynamic on NLP) per workload, like bench_table2_passrate.
/// `latency` receives each evaluation's wall time in ms.
std::vector<AccuracyRecord> table2_pass(const std::vector<Workload>& slice,
                                        const std::vector<fp8q::SchemeConfig>& schemes,
                                        std::vector<double>* latency) {
  const EvalProtocol protocol;
  std::mutex mu;
  // evaluate_suite calls `progress` on the pool thread that just finished
  // a pair, and each pool thread runs its pairs back to back, so the time
  // since that thread's previous completion (or the pass start) is the
  // pair's latency.
  static std::atomic<std::uint64_t> generation{0};
  const std::uint64_t gen = ++generation;
  const std::uint64_t t0 = fp8q::obs_now_ns();
  auto progress = [&](int) {
    struct Last {
      std::uint64_t gen = 0;
      std::uint64_t ns = 0;
    };
    thread_local Last last;
    const std::uint64_t now = fp8q::obs_now_ns();
    const std::uint64_t begin = last.gen == gen ? last.ns : t0;
    last = {gen, now};
    if (latency == nullptr) return;
    std::lock_guard<std::mutex> lock(mu);
    latency->push_back(static_cast<double>(now - begin) / 1e6);
  };
  std::vector<AccuracyRecord> records;
  {
    fp8q::TraceSpan span("perfbench/table2-fp8");
    records = fp8q::evaluate_suite(slice, schemes, protocol, progress);
  }
  fp8q::TraceSpan span("perfbench/table2-int8");
  const auto int8 = fp8q::parallel_map(
      static_cast<std::int64_t>(slice.size()), [&](std::int64_t i) {
        const Workload& w = slice[static_cast<std::size_t>(i)];
        const std::uint64_t begin = fp8q::obs_now_ns();
        AccuracyRecord rec = fp8q::evaluate_workload(w, fp8q::int8_scheme(w.domain != "CV"),
                                                     protocol);
        if (latency != nullptr) {
          std::lock_guard<std::mutex> lock(mu);
          latency->push_back(static_cast<double>(fp8q::obs_now_ns() - begin) / 1e6);
        }
        return rec;
      });
  records.insert(records.end(), int8.begin(), int8.end());
  return records;
}

/// Builds the workload's model, as every evaluation will, and checks its
/// size against the reference record: the setup step that proves the
/// inputs are the ones the references were made from.
void check_model(const Workload& w, const AccuracyRecord& ref) {
  const double mb = w.build().size_mb();
  if (mb != ref.model_size_mb) {
    throw std::runtime_error(w.name + ": model is " + std::to_string(mb) + " MB, reference " +
                             std::to_string(ref.model_size_mb) + " MB");
  }
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

const fp8q::json::Value& array_field(const fp8q::json::Value& doc, const char* key,
                                     const std::string& path) {
  const fp8q::json::Value* v = doc.find(key);
  if (v == nullptr || !v->is_array()) {
    throw std::runtime_error(path + " has no \"" + key + "\" array");
  }
  return *v;
}

// ---------------------------------------------------------------------------

class Sweep final : public BenchWorkload {
 public:
  Sweep(std::uint64_t seed, std::string reference_dir)
      : seed_(seed), reference_dir_(std::move(reference_dir)) {}

  void setup() override {
    suite_ = fp8q::build_suite();
    slice_ = sweep_slice(suite_);
    // The seed permutes the scheme order; records are checked by
    // (workload, config), and the cost of a pass does not depend on it.
    schemes_ = fp8q::table2_fp8_schemes();
    seeded_shuffle(schemes_, seed_);
    const std::string path = reference_dir_ + "/sweep.json";
    const fp8q::json::Value doc = read_json_file(path);
    refs_.clear();
    for (const auto& v : array_field(doc, "records", path).array) {
      const AccuracyRecord r = record_from_json(v);
      refs_[record_key(r.workload, r.config)] = r;
    }
    if (refs_.size() != slice_.size() * (schemes_.size() + 1)) {
      throw std::runtime_error(path + " does not cover the sweep slice");
    }
    for (const Workload& w : slice_) {
      check_model(w, refs_.at(record_key(w.name, probe_config(w, {}).scheme.label())));
    }
  }

  Window run(double seconds) override {
    Window w;
    w.identical_passes = true;
    const std::uint64_t start = fp8q::obs_now_ns();
    do {
      // A fresh bench_table2_passrate starts with a cold weight cache.
      fp8q::weight_cache_clear();
      const std::uint64_t t0 = fp8q::obs_now_ns();
      const auto records = table2_pass(slice_, schemes_, &w.latency_ms);
      w.pass_s.push_back(seconds_since(t0));
      for (const AccuracyRecord& r : records) {
        ++w.ops;
        const auto it = refs_.find(record_key(r.workload, r.config));
        if (it == refs_.end()) {
          w.fail("sweep: no reference for " + r.workload + " " + r.config);
          continue;
        }
        if (const std::string d = diff_record(r, it->second); !d.empty()) {
          w.fail("sweep: " + d);
          continue;
        }
        ++w.evals;
      }
    } while (another_pass_fits(w, seconds_since(start), seconds));
    w.wall_s = seconds_since(start);
    return w;
  }

  std::vector<ProbeCase> probe_cases() const override {
    std::vector<ProbeCase> cases;
    for (const Workload& w : slice_) {
      ProbeCase c;
      c.workload = &w;
      c.config = probe_config(w, c.protocol);
      c.expected = refs_.at(record_key(w.name, c.config.scheme.label()));
      cases.push_back(std::move(c));
    }
    return cases;
  }

  SpanSum eval_self(const SpanTree& tree, const Window&) const override {
    // Each evaluation is one top-level parallel task of the pass.
    return tree.self_time(named("parallel/task"), named("qgraph/*"), /*outermost_only=*/true);
  }

 private:
  std::uint64_t seed_;
  std::string reference_dir_;
  std::vector<Workload> suite_;
  std::vector<Workload> slice_;
  std::vector<fp8q::SchemeConfig> schemes_;
  std::map<std::string, AccuracyRecord> refs_;
};

// ---------------------------------------------------------------------------

class Tune final : public BenchWorkload {
 public:
  Tune(std::uint64_t seed, std::string reference_dir)
      : seed_(seed), reference_dir_(std::move(reference_dir)) {}

  void setup() override {
    suite_ = fp8q::build_suite();
    // The seed orders the sessions; each session's work does not depend
    // on what ran before it in the pass.
    order_.clear();
    for (const char* name : kTuneSet) order_.push_back(&fp8q::find_workload(suite_, name));
    seeded_shuffle(order_, seed_);
    const std::string path = reference_dir_ + "/tune.json";
    const fp8q::json::Value doc = read_json_file(path);
    refs_.clear();
    for (const auto& v : array_field(doc, "sessions", path).array) {
      const TuneOutcome t = tune_outcome_from_json(v);
      refs_[t.workload] = t;
    }
    probe_refs_.clear();
    for (const auto& v : array_field(doc, "probe_records", path).array) {
      const AccuracyRecord r = record_from_json(v);
      probe_refs_[r.workload] = r;
    }
    for (const Workload* w : order_) {
      if (!refs_.contains(w->name) || !probe_refs_.contains(w->name)) {
        throw std::runtime_error(path + " has no reference for " + w->name);
      }
      check_model(*w, probe_refs_.at(w->name));
    }
  }

  Window run(double seconds) override {
    Window w;
    w.identical_passes = true;
    const std::uint64_t start = fp8q::obs_now_ns();
    do {
      // A fresh `fp8q_cli tune` starts with a cold weight cache.
      fp8q::weight_cache_clear();
      const std::uint64_t t0 = fp8q::obs_now_ns();
      for (const Workload* wl : order_) {
        fp8q::TuneResult result;
        {
          fp8q::TraceSpan span("perfbench/autotune");
          result = fp8q::autotune(*wl, fp8q::recommended_format(wl->domain));
        }
        ++w.ops;
        for (const fp8q::TuneStep& step : result.history) {
          w.latency_ms.push_back(step.eval_ms);
          w.trial_ms.push_back(step.eval_ms);
        }
        w.evals += static_cast<std::uint64_t>(result.trials());
        if (const std::string d = diff_tune(tune_outcome(wl->name, result), refs_.at(wl->name));
            !d.empty()) {
          w.fail(d);
        }
      }
      w.pass_s.push_back(seconds_since(t0));
    } while (another_pass_fits(w, seconds_since(start), seconds));
    w.wall_s = seconds_since(start);
    return w;
  }

  std::vector<ProbeCase> probe_cases() const override {
    std::vector<ProbeCase> cases;
    for (const Workload* w : order_) {
      ProbeCase c;
      c.workload = w;
      c.config = probe_config(*w, c.protocol);
      c.expected = probe_refs_.at(w->name);
      cases.push_back(std::move(c));
    }
    return cases;
  }

  SpanSum eval_self(const SpanTree& tree, const Window&) const override {
    return tree.self_time(named("tune/trial:*"), named("qgraph/*"));
  }

 private:
  std::uint64_t seed_;
  std::string reference_dir_;
  std::vector<Workload> suite_;
  std::vector<const Workload*> order_;
  std::map<std::string, TuneOutcome> refs_;
  std::map<std::string, AccuracyRecord> probe_refs_;
};

// ---------------------------------------------------------------------------

class Serve final : public BenchWorkload {
 public:
  // The socket path is made relative to the working directory when it can
  // be: a Unix socket path holds at most 107 bytes.
  Serve(std::uint64_t seed, const std::string& scratch_dir)
      : seed_(seed),
        socket_path_(std::filesystem::proximate(std::filesystem::path(scratch_dir) /
                                                ("perfbench-" + std::to_string(::getpid()) +
                                                 ".sock"))
                         .string()) {}

  ~Serve() override { stop_server(); }

  /// References for every job in the pool, computed one-shot; this also
  /// warms the weight cache, as a resident daemon's would be. Then the
  /// server starts.
  void setup() override {
    stop_server();
    // The server counts unconditionally, so its one-shot references must
    // be made with counters on too.
    fp8q::set_counters_enabled(true);
    fp8q::weight_cache_clear();
    suite_ = fp8q::build_suite();
    pool_.clear();
    for (const char* model : kServeModels) {
      for (const char* format : kServeFormats) {
        for (const auto kind : {fp8q::service::JobKind::kEval, fp8q::service::JobKind::kQuantize}) {
          PoolJob job;
          job.spec.kind = kind;
          job.spec.workload = model;
          job.spec.format = format;
          job.spec.quick = true;
          job.payload = "{\"cmd\":\"submit\",\"kind\":";
          fp8q::service::append_json_string(job.payload, fp8q::service::to_string(kind));
          job.payload += ",\"workload\":";
          fp8q::service::append_json_string(job.payload, model);
          job.payload += ",\"format\":";
          fp8q::service::append_json_string(job.payload, format);
          job.payload += ",\"quick\":true}";
          job.reference = through_json(fp8q::service::run_job_oneshot(suite_, job.spec));
          pool_.push_back(std::move(job));
        }
      }
    }
    start_server();
  }

  int setup_repeats() const override { return 3; }

  Window run(double seconds) override {
    // One server per window, so its stats describe this window only.
    if (windows_++ > 0) {
      stop_server();
      start_server();
    }
    std::vector<ClientLog> logs(kServeConnections);
    const std::uint64_t start = fp8q::obs_now_ns();
    const auto deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
    std::vector<std::thread> clients;
    try {
      for (int i = 0; i < kServeConnections; ++i) {
        clients.emplace_back([this, i, deadline, &logs] { client(i, deadline, logs[i]); });
      }
    } catch (...) {
      for (std::thread& t : clients) t.join();
      throw;
    }
    for (std::thread& t : clients) t.join();

    Window w;
    std::vector<std::uint64_t> done_ns;
    for (ClientLog& log : logs) {
      w.ops += log.attempted;
      w.evals += log.evals;
      w.latency_ms.insert(w.latency_ms.end(), log.latency_ms.begin(), log.latency_ms.end());
      w.job_wall_ms.insert(w.job_wall_ms.end(), log.job_wall_ms.begin(), log.job_wall_ms.end());
      w.overhead_ms.insert(w.overhead_ms.end(), log.overhead_ms.begin(), log.overhead_ms.end());
      done_ns.insert(done_ns.end(), log.done_ns.begin(), log.done_ns.end());
      for (std::string& p : log.problems) w.fail(std::move(p));
      w.failed += log.failed - log.problems.size();
    }
    std::sort(done_ns.begin(), done_ns.end());
    w.wall_s = done_ns.empty() ? seconds_since(start)
                               : static_cast<double>(done_ns.back() - start) / 1e9;
    std::uint64_t pass_start = start;
    for (std::size_t i = kServePassJobs; i <= done_ns.size(); i += kServePassJobs) {
      w.pass_s.push_back(static_cast<double>(done_ns[i - 1] - pass_start) / 1e9);
      pass_start = done_ns[i - 1];
    }
    w.service = server_->stats_snapshot();
    return w;
  }

  std::vector<ProbeCase> probe_cases() const override {
    std::vector<ProbeCase> cases;
    for (const PoolJob& job : pool_) {
      if (job.spec.kind != fp8q::service::JobKind::kEval || job.spec.format != "E4M3") continue;
      ProbeCase c;
      c.workload = &fp8q::find_workload(suite_, job.spec.workload);
      c.protocol = quick_protocol();
      c.config = fp8q::default_model_config(
          *c.workload, fp8q::standard_fp8_scheme(fp8q::DType::kE4M3), c.protocol);
      c.expected = job.reference.records.at(0);
      cases.push_back(std::move(c));
    }
    return cases;
  }

  SpanSum eval_self(const SpanTree& tree, const Window& w) const override {
    // The executor opens no span per job; its wall comes from the results.
    double job_ms = 0.0;
    for (double ms : w.job_wall_ms) job_ms += ms;
    SpanSum sum;
    sum.ms = std::max(0.0, job_ms - tree.total(named("qgraph/*"), true).ms);
    sum.count = w.job_wall_ms.size();
    return sum;
  }

 private:
  struct PoolJob {
    fp8q::service::JobSpec spec;
    std::string payload;
    fp8q::RunReport reference;
  };

  struct ClientLog {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t evals = 0;
    std::vector<double> latency_ms;
    std::vector<double> job_wall_ms;
    std::vector<double> overhead_ms;
    std::vector<std::uint64_t> done_ns;
    std::vector<std::string> problems;

    void fail(std::string p) {
      ++failed;
      if (problems.size() < kMaxProblems) problems.push_back(std::move(p));
    }
  };

  void start_server() {
    fp8q::service::ServerOptions opts;
    opts.unix_path = socket_path_;
    opts.workers = kServeWorkers;
    server_ = std::make_unique<fp8q::service::Server>(opts);
    io_thread_ = std::thread([this] { server_->run(); });
  }

  void stop_server() {
    if (io_thread_.joinable()) {
      server_->request_shutdown();
      io_thread_.join();
    }
    server_.reset();
  }

  /// One closed-loop connection: submit, wait for the result, check it,
  /// repeat until the deadline.
  void client(int index, std::uint64_t deadline, ClientLog& log) const {
    try {
      fp8q::service::Connection conn = fp8q::service::connect_unix(socket_path_);
      fp8q::Rng rng(seed_ * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(index) + 1);
      while (fp8q::obs_now_ns() < deadline) {
        const PoolJob& job = pool_[static_cast<std::size_t>(rng.next() % pool_.size())];
        ++log.attempted;
        const std::uint64_t t0 = fp8q::obs_now_ns();
        conn.send_frame(job.payload);
        const fp8q::json::Value submitted = fp8q::json::parse(conn.recv_frame().value_or("null"));
        const fp8q::json::Value* ok = submitted.find("ok");
        if (ok == nullptr || !ok->boolean) {
          log.fail("serve: submit refused: " + submitted.string_or("code"));
          continue;
        }
        const auto id = static_cast<std::uint64_t>(submitted.number_or("job_id"));
        conn.send_frame("{\"cmd\":\"result\",\"job_id\":" + std::to_string(id) +
                        ",\"wait\":true}");
        const std::string frame = conn.recv_frame().value_or("null");
        const std::uint64_t t1 = fp8q::obs_now_ns();
        double wall_ms = 0.0;
        double queue_ms = 0.0;
        if (const std::string d = check_result(frame, job, wall_ms, queue_ms); !d.empty()) {
          log.fail("serve: " + job.payload + ": " + d);
          continue;
        }
        const double latency_ms = static_cast<double>(t1 - t0) / 1e6;
        log.latency_ms.push_back(latency_ms);
        log.job_wall_ms.push_back(wall_ms);
        log.overhead_ms.push_back(latency_ms - queue_ms - wall_ms);
        log.done_ns.push_back(t1);
        if (job.spec.kind == fp8q::service::JobKind::kEval) ++log.evals;
      }
    } catch (const std::exception& e) {
      // Count the job the failure interrupted, or the connection itself.
      if (log.attempted < log.failed + log.latency_ms.size() + 1) ++log.attempted;
      log.fail(std::string("serve: connection ") + std::to_string(index) + ": " + e.what());
    }
  }

  /// "" when the result frame is a finished job whose report matches the
  /// one-shot reference; `wall_ms` and `queue_ms` receive the job's
  /// executor wall time and queue wait.
  static std::string check_result(const std::string& frame, const PoolJob& job,
                                  double& wall_ms, double& queue_ms) {
    const fp8q::json::Value v = fp8q::json::parse(frame);
    if (v.string_or("state") != "done") {
      return "job ended " + v.string_or("state") + " " + v.string_or("error");
    }
    wall_ms = v.number_or("wall_ms");
    queue_ms = v.number_or("queue_wait_ms");
    const auto pos = frame.find("\"report\":");
    if (pos == std::string::npos || frame.back() != '}') return "result carries no report";
    std::istringstream in(frame.substr(pos + 9, frame.size() - pos - 10));
    return diff_job_report(fp8q::report_from_json(in), job.reference);
  }

  std::uint64_t seed_;
  std::string socket_path_;
  std::vector<Workload> suite_;
  std::vector<PoolJob> pool_;
  std::unique_ptr<fp8q::service::Server> server_;
  std::thread io_thread_;
  int windows_ = 0;
};

}  // namespace

void Window::fail(std::string problem) {
  ++failed;
  if (problems.size() < kMaxProblems) problems.push_back(std::move(problem));
}

std::unique_ptr<BenchWorkload> make_workload(const std::string& name, std::uint64_t seed,
                                             const std::string& reference_dir,
                                             const std::string& scratch_dir) {
  if (name == "sweep") return std::make_unique<Sweep>(seed, reference_dir);
  if (name == "tune") return std::make_unique<Tune>(seed, reference_dir);
  if (name == "serve") return std::make_unique<Serve>(seed, scratch_dir);
  throw std::invalid_argument("unknown workload \"" + name + "\" (sweep | tune | serve)");
}

void write_references(const std::string& dir) {
  const std::vector<Workload> suite = fp8q::build_suite();
  std::string sweep = "{\"records\":[\n";
  const auto records = table2_pass(sweep_slice(suite), fp8q::table2_fp8_schemes(), nullptr);
  for (std::size_t i = 0; i < records.size(); ++i) {
    sweep += (i ? ",\n" : "") + record_json(records[i]);
  }
  write_file(dir + "/sweep.json", sweep + "\n]}\n");

  std::string sessions;
  std::string probes;
  for (const char* name : kTuneSet) {
    const Workload& w = fp8q::find_workload(suite, name);
    fp8q::weight_cache_clear();
    const fp8q::TuneResult result = fp8q::autotune(w, fp8q::recommended_format(w.domain));
    sessions += (sessions.empty() ? "" : ",\n") + tune_outcome_json(tune_outcome(name, result));
    const AccuracyRecord probe =
        fp8q::evaluate_workload(w, fp8q::standard_fp8_scheme(fp8q::recommended_format(w.domain)));
    probes += (probes.empty() ? "" : ",\n") + record_json(probe);
  }
  write_file(dir + "/tune.json",
             "{\"sessions\":[\n" + sessions + "\n],\n\"probe_records\":[\n" + probes + "\n]}\n");
}

}  // namespace perfbench
