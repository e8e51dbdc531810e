// The layer probe: direct, timed calls into the layers a workload's
// evaluations are made of, for the layers that record no span of their own.
//
// For each case it builds the plan (make_eval_plan), runs the FP32 graph on
// the plan's batches (Graph::forward), then quantizes a clone
// (QuantizedGraph::prepare) and runs it (QuantizedGraph::forward). It scores
// both forwards the way evaluate_with_plan does and requires the resulting
// record to equal the case's expected record, so the timed path is proven
// to be the one the workloads run.
#pragma once

#include <string>
#include <vector>

#include "metrics/passrate.h"
#include "quant/quantized_graph.h"
#include "workloads/workload.h"

namespace perfbench {

struct ProbeCase {
  const fp8q::Workload* workload = nullptr;
  fp8q::EvalProtocol protocol;
  fp8q::ModelQuantConfig config;
  fp8q::AccuracyRecord expected;
};

struct ProbeResult {
  double plan_ms = 0.0;         ///< make_eval_plan
  double fp32_forward_ms = 0.0; ///< Graph::forward on the plan's perturbed batches
  double prepare_ms = 0.0;      ///< QuantizedGraph::prepare
  double forward_ms = 0.0;      ///< QuantizedGraph::forward on the same batches
  int cases = 0;
  int batches = 0;
  std::vector<std::string> problems;
};

[[nodiscard]] ProbeResult run_probe(const std::vector<ProbeCase>& cases);

/// The fidelity score evaluate_with_plan gives outputs against the FP32
/// targets (workloads/workload.h): top-1 agreement over the rows above the
/// margin quantile, Pearson correlation, or 1 - NMSE.
[[nodiscard]] double score_outputs(fp8q::MetricKind metric, double margin_quantile,
                                   const std::vector<fp8q::Tensor>& targets,
                                   const std::vector<fp8q::Tensor>& outputs);

}  // namespace perfbench
