// The benchmark's three workloads (perfbench/README.md):
//
//   sweep  evaluate_suite over every fifth suite entry x the six Table-2
//          configurations (90 evaluations per pass)
//   tune   autotune from recommended_format on four workloads that stop at
//          different depths of the tuning ladder, weight cache cleared per pass
//   serve  an in-process fp8qd Server (2 workers) driven by 4 closed-loop
//          connections playing seeded quick eval/quantize jobs
//
// Each workload is set up (several times, for a steady setup_s), then runs
// windows of whole operations. Every output is checked against a reference
// inside the window; a difference counts as one failed operation.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "probe.h"
#include "service/server.h"
#include "spans.h"

namespace perfbench {

/// Everything one measurement window observed.
struct Window {
  double wall_s = 0.0;             ///< wall time of the window
  std::uint64_t ops = 0;           ///< operations attempted (the unit a user waits for)
  std::uint64_t failed = 0;        ///< failed, refused or wrong operations
  std::uint64_t evals = 0;         ///< quantized-model evaluations completed
  std::vector<double> pass_s;      ///< wall time of each pass over the input set
  /// Every pass repeats the same work (sweep, tune), so rates are taken
  /// over the median pass, which one disturbed pass cannot move.
  bool identical_passes = false;
  std::vector<double> latency_ms;  ///< per-operation latency samples
  std::vector<std::string> problems;

  // Layer detail some workloads fill in.
  std::vector<double> trial_ms;        ///< tune: TuneStep::eval_ms of every trial
  std::vector<double> job_wall_ms;     ///< serve: executor wall per job
  std::vector<double> overhead_ms;     ///< serve: round trip minus queue wait and wall
  std::optional<fp8q::service::ServiceStats> service;  ///< serve: server stats

  void fail(std::string problem);
};

class BenchWorkload {
 public:
  BenchWorkload() = default;
  virtual ~BenchWorkload() = default;
  BenchWorkload(const BenchWorkload&) = delete;
  BenchWorkload& operator=(const BenchWorkload&) = delete;

  /// Builds the inputs and references. Called several times; each call
  /// replaces the previous state.
  virtual void setup() = 0;
  /// Runs whole operations for about `seconds` (at least one pass).
  [[nodiscard]] virtual Window run(double seconds) = 0;
  /// The probe cases: this workload's models, each with one configuration
  /// and the record evaluate_with_plan gives for it.
  [[nodiscard]] virtual std::vector<ProbeCase> probe_cases() const = 0;
  /// Evaluation time outside any qgraph/* span in a traced window.
  [[nodiscard]] virtual SpanSum eval_self(const SpanTree& tree, const Window& w) const = 0;
  /// Setup repetitions whose median is setup_s.
  [[nodiscard]] virtual int setup_repeats() const { return 9; }
};

/// Throws std::invalid_argument for an unknown name. `reference_dir` holds
/// sweep.json and tune.json; `scratch_dir` is where serve puts its socket.
[[nodiscard]] std::unique_ptr<BenchWorkload> make_workload(const std::string& name,
                                                           std::uint64_t seed,
                                                           const std::string& reference_dir,
                                                           const std::string& scratch_dir);

/// Computes the reference files (sweep.json, tune.json) into `dir`.
void write_references(const std::string& dir);

}  // namespace perfbench
