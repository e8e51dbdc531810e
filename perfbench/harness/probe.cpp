#include "probe.h"

#include <algorithm>
#include <limits>

#include "compare.h"
#include "metrics/metrics.h"
#include "obs/trace.h"

namespace perfbench {

namespace {

double ms_since(std::uint64_t t0) { return static_cast<double>(fp8q::obs_now_ns() - t0) / 1e6; }

/// Top-2 margin of one row.
float row_margin(std::span<const float> row) {
  float best = row[0];
  float second = -std::numeric_limits<float>::infinity();
  for (std::size_t c = 1; c < row.size(); ++c) {
    if (row[c] > best) {
      second = best;
      best = row[c];
    } else if (row[c] > second) {
      second = row[c];
    }
  }
  return best - second;
}

}  // namespace

double score_outputs(fp8q::MetricKind metric, double margin_quantile,
                     const std::vector<fp8q::Tensor>& targets,
                     const std::vector<fp8q::Tensor>& outputs) {
  if (metric != fp8q::MetricKind::kTop1) {
    std::vector<float> t;
    std::vector<float> o;
    for (std::size_t b = 0; b < targets.size(); ++b) {
      const auto tf = targets[b].flat();
      const auto of = outputs[b].flat();
      t.insert(t.end(), tf.begin(), tf.end());
      o.insert(o.end(), of.begin(), of.end());
    }
    return metric == fp8q::MetricKind::kPearson ? fp8q::pearson(t, o)
                                                : fp8q::nmse_accuracy(t, o);
  }
  // Top-1: the margin floor is a quantile of each batch's target margins.
  std::int64_t agree = 0;
  std::int64_t total = 0;
  for (std::size_t b = 0; b < targets.size(); ++b) {
    const std::int64_t classes = targets[b].size(-1);
    const auto rows = static_cast<std::size_t>(targets[b].numel() / classes);
    const auto tf = targets[b].flat();
    const auto of = outputs[b].flat();
    const auto row = [classes](std::span<const float> flat, std::size_t r) {
      return flat.subspan(r * static_cast<std::size_t>(classes), static_cast<std::size_t>(classes));
    };
    std::vector<float> margins;
    float threshold = -std::numeric_limits<float>::infinity();
    if (margin_quantile > 0.0) {
      for (std::size_t r = 0; r < rows; ++r) margins.push_back(row_margin(row(tf, r)));
      std::vector<float> sorted = margins;
      std::sort(sorted.begin(), sorted.end());
      threshold = sorted[static_cast<std::size_t>(margin_quantile *
                                                  static_cast<double>(sorted.size() - 1))];
    }
    for (std::size_t r = 0; r < rows; ++r) {
      if (!margins.empty() && margins[r] < threshold) continue;
      if (fp8q::argmax(row(of, r)) == fp8q::argmax(row(tf, r))) ++agree;
      ++total;
    }
  }
  return total > 0 ? static_cast<double>(agree) / static_cast<double>(total) : 0.0;
}

ProbeResult run_probe(const std::vector<ProbeCase>& cases) {
  ProbeResult result;
  for (const ProbeCase& c : cases) {
    std::uint64_t t0 = fp8q::obs_now_ns();
    const fp8q::EvalPlan plan = fp8q::make_eval_plan(*c.workload, c.protocol);
    result.plan_ms += ms_since(t0);

    std::vector<fp8q::Tensor> targets;
    std::vector<fp8q::Tensor> fp32_out;
    std::vector<fp8q::Tensor> quant_out;
    for (const auto& pb : plan.batches) targets.push_back(pb.clean_fp32_out);

    fp8q::Graph fp32 = plan.prototype.clone();
    t0 = fp8q::obs_now_ns();
    for (const auto& pb : plan.batches) fp32_out.push_back(fp32.forward(pb.perturbed));
    result.fp32_forward_ms += ms_since(t0);

    fp8q::Graph g = plan.prototype.clone();
    {
      fp8q::QuantizedGraph qg(&g, c.config);
      t0 = fp8q::obs_now_ns();
      qg.prepare(std::span<const std::vector<fp8q::Tensor>>(plan.calib));
      result.prepare_ms += ms_since(t0);
      t0 = fp8q::obs_now_ns();
      for (const auto& pb : plan.batches) quant_out.push_back(qg.forward(pb.perturbed));
      result.forward_ms += ms_since(t0);
    }

    fp8q::AccuracyRecord got;
    got.workload = plan.workload_name;
    got.domain = plan.domain;
    got.config = c.config.scheme.label();
    got.fp32_accuracy = score_outputs(plan.metric, plan.margin_quantile, targets, fp32_out);
    got.quant_accuracy = score_outputs(plan.metric, plan.margin_quantile, targets, quant_out);
    got.model_size_mb = plan.model_size_mb;
    if (const std::string d = diff_record(got, c.expected); !d.empty()) {
      result.problems.push_back("probe " + d);
    }
    ++result.cases;
    result.batches += static_cast<int>(plan.batches.size());
  }
  return result;
}

}  // namespace perfbench
