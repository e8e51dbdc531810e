// Accuracy-driven tuner: trial ordering, stopping, sensitivity analysis.
#include "tune/tuner.h"

#include <gtest/gtest.h>

#include "workloads/registry.h"

namespace fp8q {
namespace {

EvalProtocol quick_protocol() {
  EvalProtocol p;
  p.calib_batches = 2;
  p.calib_batch_size = 8;
  p.eval_batches = 2;
  p.eval_batch_size = 32;
  p.bn_calibration_batches = 2;
  return p;
}

TEST(RecommendedFormat, MatchesPaperSection5) {
  EXPECT_EQ(recommended_format("CV"), DType::kE3M4);
  EXPECT_EQ(recommended_format("NLP"), DType::kE4M3);
}

TEST(Autotune, EasyWorkloadStopsAtFirstTrial) {
  const auto suite = build_suite();
  const Workload& w = find_workload(suite, "distilbert-mrpc-ish");
  const TuneResult r = autotune(w, DType::kE4M3, quick_protocol());
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.trials(), 1);
  EXPECT_EQ(r.history.front().description, "standard E4M3/static");
  EXPECT_EQ(r.best.scheme.act_dtype, DType::kE4M3);
}

TEST(Autotune, SearchOrderFollowsPaperWorkflow) {
  // A range-extreme workload where E3M4 fails: the tuner must walk
  // dynamic -> mixed -> alternative formats.
  const auto suite = build_suite();
  const Workload& w = find_workload(suite, "nlp/lm-extreme-0");
  TuneOptions options;
  options.max_trials = 8;
  const TuneResult r = autotune(w, DType::kE3M4, quick_protocol(), options);
  ASSERT_GE(r.trials(), 2);
  EXPECT_EQ(r.history[0].description, "standard E3M4/static");
  EXPECT_EQ(r.history[1].description, "dynamic E3M4/dynamic");
  if (r.trials() >= 3) {
    EXPECT_EQ(r.history[2].description, "mixed E4M3wE3M4/static");
  }
  // Whatever happens, the best record is the minimum-loss trial.
  for (const auto& step : r.history) {
    EXPECT_GE(step.record.relative_loss(), r.best_record.relative_loss());
  }
}

TEST(Autotune, RespectsTrialBudget) {
  const auto suite = build_suite();
  const Workload& w = find_workload(suite, "nlp/lm-extreme-3");
  TuneOptions options;
  options.max_trials = 3;
  options.max_node_fallbacks = 0;
  const TuneResult r = autotune(w, DType::kE5M2, quick_protocol(), options);
  EXPECT_LE(r.trials(), 3);
}

TEST(Autotune, E5M2SkipsDynamicTrial) {
  const auto suite = build_suite();
  const Workload& w = find_workload(suite, "nlp/lm-extreme-3");
  TuneOptions options;
  options.max_trials = 2;
  options.max_node_fallbacks = 0;
  const TuneResult r = autotune(w, DType::kE5M2, quick_protocol(), options);
  for (const auto& step : r.history) {
    EXPECT_NE(step.description, "dynamic E5M2/direct");
  }
}

TEST(Autotune, QuantizedFractionMatchesAQuantizedClone) {
  // The tuner reads each trial's fraction off the pristine prototype; it
  // must equal the fraction a QuantizedGraph over a clone covers, bit for bit,
  // through the ladder and the kind fallbacks (lm-extreme-3 fails them).
  const auto suite = build_suite();
  const Workload& w = find_workload(suite, "nlp/lm-extreme-3");
  TuneOptions options;
  options.max_node_fallbacks = 0;
  const TuneResult r = autotune(w, DType::kE5M2, quick_protocol(), options);
  ASSERT_GT(r.trials(), 6);  // six ladder arms, then kind fallbacks
  const Graph prototype = w.build();
  for (const auto& step : r.history) {
    Graph g = prototype.clone();
    const QuantizedGraph qg(&g, step.config);
    EXPECT_EQ(quantized_node_set(prototype, step.config), qg.quantized_nodes())
        << step.description;
    EXPECT_EQ(step.quantized_fraction, quantized_compute_fraction(g, qg.quantized_nodes()))
        << step.description;
  }
}

TEST(NodeSensitivity, RanksAndCoversQuantizedNodes) {
  const auto suite = build_suite();
  const Workload& w = find_workload(suite, "nlp/bert-outlier-1");
  const auto sens = node_sensitivity(w, standard_fp8_scheme(DType::kE4M3), quick_protocol());
  ASSERT_FALSE(sens.empty());
  // Descending by loss.
  for (size_t i = 1; i < sens.size(); ++i) {
    EXPECT_GE(sens[i - 1].second, sens[i].second);
  }
  // Node ids must belong to the graph.
  Graph g = w.build();
  for (const auto& [id, loss] : sens) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, g.node_count());
    EXPECT_TRUE(is_quantizable_op(g.node(id).kind));
  }
}

}  // namespace
}  // namespace fp8q
