// Self-tests of the harness's own percentile, span self-time and
// result-comparison code. Exits non-zero when any check fails.
//
//   .bench_build/perfbench_selftest     (or: python3 perfbench/run.py --selftest)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "compare.h"
#include "io/json.h"
#include "obs/report.h"
#include "spans.h"
#include "stats.h"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest.cpp:%d: FAILED %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentile() {
  using perfbench::percentile;
  CHECK(percentile({}, 0.5) == 0.0);
  CHECK(percentile({7.0}, 0.99) == 7.0);
  // Linear interpolation between closest ranks, unsorted input.
  const std::vector<double> v = {4, 1, 3, 2};
  CHECK(near(percentile(v, 0.0), 1.0));
  CHECK(near(percentile(v, 1.0), 4.0));
  CHECK(near(percentile(v, 0.5), 2.5));
  CHECK(near(percentile(v, 0.25), 1.75));
  CHECK(near(perfbench::median({5, 1, 3}), 3.0));
  // Out-of-range q clamps.
  CHECK(near(percentile(v, 2.0), 4.0));
  CHECK(near(percentile(v, -1.0), 1.0));
}

void test_tail() {
  std::vector<double> small;
  for (int i = 1; i <= 90; ++i) small.push_back(i);
  // 90 samples: p99 and p90 have fewer than 10 samples beyond them.
  perfbench::Tail t = perfbench::pick_tail(small);
  CHECK(t.label == "p90");
  CHECK(!t.supported);
  CHECK(t.beyond == 9);

  std::vector<double> mid;
  for (int i = 1; i <= 200; ++i) mid.push_back(i);
  t = perfbench::pick_tail(mid);
  CHECK(t.label == "p90");
  CHECK(t.supported);
  CHECK(near(t.value, 180.1));
  CHECK(t.beyond == 20);

  std::vector<double> big;
  for (int i = 1; i <= 2000; ++i) big.push_back(i);
  t = perfbench::pick_tail(big);
  CHECK(t.label == "p99");
  CHECK(t.supported);
  CHECK(t.beyond == 20);
}

fp8q::SpanRecord span(std::int64_t id, std::int64_t parent, const char* name,
                      std::uint64_t start, std::uint64_t dur) {
  fp8q::SpanRecord s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_ns = start;
  s.duration_ns = dur;
  return s;
}

void test_spans() {
  using perfbench::named;
  CHECK(perfbench::covered_ns({}, 0, 10) == 0);
  CHECK(perfbench::covered_ns({{2, 4}, {3, 6}, {8, 20}}, 0, 10) == 6);  // [2,6) + [8,10)
  CHECK(perfbench::covered_ns({{0, 5}, {1, 2}}, 0, 10) == 5);

  // forward [0,100) with: input [10,30) holding apply [15,25); a parallel
  // task [40,80) (looked through) holding linear [45,70); and a pool task
  // on another thread [50,90) holding linear [55,85) that overlaps the first.
  const perfbench::SpanTree tree({
      span(1, -1, "qgraph/forward", 0, 100),
      span(2, 1, "qgraph/input:linear", 10, 20),
      span(3, 2, "quant/apply-tensor", 15, 10),
      span(4, 1, "parallel/task", 40, 40),
      span(5, 4, "linear_packed", 45, 25),
      span(6, 1, "parallel/task", 50, 40),
      span(7, 6, "linear_packed", 55, 30),
      span(8, 99, "orphan", 0, 5),  // parent not recorded: a root
  });
  const perfbench::NamePred layer = [](std::string_view n) { return n != "parallel/task"; };
  // Covered: [10,30) + union([45,70), [55,85)) = 20 + 40.
  perfbench::SpanSum self = tree.self_time(named("qgraph/forward"), layer);
  CHECK(self.count == 1);
  CHECK(near(self.ms, 40e-6));
  self = tree.self_time(named("qgraph/input:*"), layer);
  CHECK(near(self.ms, 10e-6));
  // Summed over threads: linear_packed is 25 + 30.
  perfbench::SpanSum sum = tree.total(named("linear_packed"));
  CHECK(sum.count == 2);
  CHECK(near(sum.ms, 55e-6));
  CHECK(tree.total(named("parallel/task"), true).count == 2);
  CHECK(tree.total(named("orphan")).count == 1);
  CHECK(tree.total(named("quant/apply-*")).count == 1);
  CHECK(tree.total(named("quant/apply")).count == 0);  // exact without '*'

  // Nested matches: outermost_only keeps the top one.
  const perfbench::SpanTree nested({
      span(1, -1, "parallel/task", 0, 100),
      span(2, 1, "parallel/task", 10, 50),
      span(3, 2, "qgraph/prepare", 20, 10),
  });
  CHECK(nested.total(named("parallel/task")).count == 2);
  sum = nested.total(named("parallel/task"), true);
  CHECK(sum.count == 1);
  CHECK(near(sum.ms, 100e-6));
  self = nested.self_time(named("parallel/task"), named("qgraph/*"), true);
  CHECK(near(self.ms, 90e-6));
}

fp8q::AccuracyRecord record() {
  fp8q::AccuracyRecord r;
  r.workload = "nlp/bert-ish-0";
  r.domain = "NLP";
  r.config = "E4M3/static";
  r.fp32_accuracy = 0.8421052631578947;
  r.quant_accuracy = 1.0 / 3.0;
  r.model_size_mb = 12.5;
  return r;
}

void test_compare() {
  const fp8q::AccuracyRecord r = record();
  CHECK(perfbench::diff_record(r, r).empty());
  // JSON round trip keeps every bit.
  const fp8q::AccuracyRecord back =
      perfbench::record_from_json(fp8q::json::parse(perfbench::record_json(r)));
  CHECK(perfbench::diff_record(back, r).empty());

  fp8q::AccuracyRecord off = r;
  off.quant_accuracy = std::nextafter(r.quant_accuracy, 1.0);  // one ulp
  CHECK(perfbench::diff_record(off, r).find("quant_accuracy") != std::string::npos);
  off = r;
  off.config = "E3M4/static";
  CHECK(!perfbench::diff_record(off, r).empty());

  perfbench::TuneOutcome t;
  t.workload = "bloom176b-ish";
  t.success = true;
  t.best_config = "E4M3wE3M4/static kinds=[] nodes=[]";
  t.best_record = r;
  t.trials = 3;
  const perfbench::TuneOutcome t2 =
      perfbench::tune_outcome_from_json(fp8q::json::parse(perfbench::tune_outcome_json(t)));
  CHECK(perfbench::diff_tune(t2, t).empty());
  perfbench::TuneOutcome more = t;
  more.trials = 4;
  CHECK(perfbench::diff_tune(more, t).find("trials") != std::string::npos);
  more = t;
  more.best_config = "E4M3/static kinds=[] nodes=[]";
  CHECK(perfbench::diff_tune(more, t).find("best config") != std::string::npos);

  fp8q::RunReport a;
  a.records = {r};
  a.counters.counts[1][0] = 42;
  fp8q::RunReport b = a;
  b.weight_cache.counts[0] = 7;  // cache warmth is outside the contract
  CHECK(perfbench::diff_job_report(b, a).empty());
  b.counters.counts[1][0] = 43;
  CHECK(!perfbench::diff_job_report(b, a).empty());
  b = a;
  b.records.clear();
  CHECK(!perfbench::diff_job_report(b, a).empty());

  bool threw = false;
  try {
    (void)perfbench::record_from_json(fp8q::json::parse("{\"workload\":\"x\"}"));
  } catch (const std::exception&) {
    threw = true;
  }
  CHECK(threw);
}

}  // namespace

int main() {
  test_percentile();
  test_tail();
  test_spans();
  test_compare();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
