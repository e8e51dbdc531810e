// Output checks: every result the benchmark measures is compared with a
// reference, and each difference is reported as one failed operation.
//
// Records and quantization counters are bit-identical across thread counts,
// ISA tiers and worker counts by the library's determinism contract, so
// every comparison here is exact.
#pragma once

#include <string>
#include <vector>

#include "io/json.h"
#include "metrics/passrate.h"
#include "obs/report.h"
#include "quant/quantized_graph.h"
#include "tune/tuner.h"

namespace perfbench {

/// "" when `got` equals `want` field for field (doubles bit for bit),
/// else a one-line description of the first difference.
[[nodiscard]] std::string diff_record(const fp8q::AccuracyRecord& got,
                                      const fp8q::AccuracyRecord& want);

/// A record as a JSON object; doubles carry 17 significant digits, so
/// reading one back gives the same bits.
[[nodiscard]] std::string record_json(const fp8q::AccuracyRecord& r);
/// Inverse of record_json; throws std::runtime_error on a missing field.
[[nodiscard]] fp8q::AccuracyRecord record_from_json(const fp8q::json::Value& v);

/// A deterministic description of a tuned configuration: the scheme label
/// plus the fallback kinds and nodes, e.g. "E4M3/static kinds=[] nodes=[4,9]".
[[nodiscard]] std::string config_label(const fp8q::ModelQuantConfig& config);

/// What the reference pins down about one autotune session.
struct TuneOutcome {
  std::string workload;
  bool success = false;
  std::string best_config;
  fp8q::AccuracyRecord best_record;
  int trials = 0;
};

[[nodiscard]] TuneOutcome tune_outcome(const std::string& workload,
                                       const fp8q::TuneResult& result);
[[nodiscard]] std::string diff_tune(const TuneOutcome& got, const TuneOutcome& want);
[[nodiscard]] std::string tune_outcome_json(const TuneOutcome& t);
[[nodiscard]] TuneOutcome tune_outcome_from_json(const fp8q::json::Value& v);

/// A served job's report against the one-shot report of the same spec:
/// the records and the quantization-event counters must match (the
/// service's bit-identity contract, docs/SERVICE.md). Both reports should
/// have been through JSON so doubles are formatted alike.
[[nodiscard]] std::string diff_job_report(const fp8q::RunReport& served,
                                          const fp8q::RunReport& oneshot);

/// Parses the file at `path` as JSON; throws std::runtime_error with the
/// path on a read or parse failure.
[[nodiscard]] fp8q::json::Value read_json_file(const std::string& path);

}  // namespace perfbench
