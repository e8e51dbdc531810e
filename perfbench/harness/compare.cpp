#include "compare.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "service/protocol.h"

namespace perfbench {

namespace {

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const fp8q::json::Value& field(const fp8q::json::Value& v, const char* key) {
  const fp8q::json::Value* f = v.find(key);
  if (f == nullptr) throw std::runtime_error(std::string("reference lacks field \"") + key + "\"");
  return *f;
}

}  // namespace

std::string diff_record(const fp8q::AccuracyRecord& got, const fp8q::AccuracyRecord& want) {
  const std::string who = want.workload + " " + want.config + ": ";
  if (got.workload != want.workload) return who + "workload " + got.workload;
  if (got.domain != want.domain) return who + "domain " + got.domain;
  if (got.config != want.config) return who + "config " + got.config;
  if (got.fp32_accuracy != want.fp32_accuracy) {
    return who + "fp32_accuracy " + exact(got.fp32_accuracy) + " != " + exact(want.fp32_accuracy);
  }
  if (got.quant_accuracy != want.quant_accuracy) {
    return who + "quant_accuracy " + exact(got.quant_accuracy) + " != " +
           exact(want.quant_accuracy);
  }
  if (got.model_size_mb != want.model_size_mb) {
    return who + "model_size_mb " + exact(got.model_size_mb) + " != " + exact(want.model_size_mb);
  }
  return "";
}

std::string record_json(const fp8q::AccuracyRecord& r) {
  std::string out = "{\"workload\":";
  fp8q::service::append_json_string(out, r.workload);
  out += ",\"domain\":";
  fp8q::service::append_json_string(out, r.domain);
  out += ",\"config\":";
  fp8q::service::append_json_string(out, r.config);
  out += ",\"fp32_accuracy\":" + exact(r.fp32_accuracy);
  out += ",\"quant_accuracy\":" + exact(r.quant_accuracy);
  out += ",\"model_size_mb\":" + exact(r.model_size_mb) + "}";
  return out;
}

fp8q::AccuracyRecord record_from_json(const fp8q::json::Value& v) {
  fp8q::AccuracyRecord r;
  r.workload = field(v, "workload").str;
  r.domain = field(v, "domain").str;
  r.config = field(v, "config").str;
  r.fp32_accuracy = field(v, "fp32_accuracy").number;
  r.quant_accuracy = field(v, "quant_accuracy").number;
  r.model_size_mb = field(v, "model_size_mb").number;
  return r;
}

std::string config_label(const fp8q::ModelQuantConfig& config) {
  std::string out = config.scheme.label() + " kinds=[";
  bool first = true;
  for (fp8q::OpKind kind : config.fallback_kinds) {
    if (!first) out += ",";
    out += fp8q::to_string(kind);
    first = false;
  }
  out += "] nodes=[";
  first = true;
  for (fp8q::Graph::NodeId id : config.fallback_nodes) {
    if (!first) out += ",";
    out += std::to_string(id);
    first = false;
  }
  return out + "]";
}

TuneOutcome tune_outcome(const std::string& workload, const fp8q::TuneResult& result) {
  TuneOutcome t;
  t.workload = workload;
  t.success = result.success;
  t.best_config = config_label(result.best);
  t.best_record = result.best_record;
  t.trials = result.trials();
  return t;
}

std::string diff_tune(const TuneOutcome& got, const TuneOutcome& want) {
  const std::string who = want.workload + " tune: ";
  if (got.workload != want.workload) return who + "workload " + got.workload;
  if (got.success != want.success) return who + "success " + (got.success ? "true" : "false");
  if (got.trials != want.trials) {
    return who + std::to_string(got.trials) + " trials, reference " + std::to_string(want.trials);
  }
  if (got.best_config != want.best_config) {
    return who + "best config " + got.best_config + ", reference " + want.best_config;
  }
  const std::string rec = diff_record(got.best_record, want.best_record);
  return rec.empty() ? "" : who + "best record " + rec;
}

std::string tune_outcome_json(const TuneOutcome& t) {
  std::string out = "{\"workload\":";
  fp8q::service::append_json_string(out, t.workload);
  out += std::string(",\"success\":") + (t.success ? "true" : "false");
  out += ",\"best_config\":";
  fp8q::service::append_json_string(out, t.best_config);
  out += ",\"trials\":" + std::to_string(t.trials);
  out += ",\"best_record\":" + record_json(t.best_record) + "}";
  return out;
}

TuneOutcome tune_outcome_from_json(const fp8q::json::Value& v) {
  TuneOutcome t;
  t.workload = field(v, "workload").str;
  t.success = field(v, "success").boolean;
  t.best_config = field(v, "best_config").str;
  t.trials = static_cast<int>(field(v, "trials").number);
  t.best_record = record_from_json(field(v, "best_record"));
  return t;
}

std::string diff_job_report(const fp8q::RunReport& served, const fp8q::RunReport& oneshot) {
  if (served.records.size() != oneshot.records.size()) {
    return "job carries " + std::to_string(served.records.size()) + " records, one-shot " +
           std::to_string(oneshot.records.size());
  }
  for (std::size_t i = 0; i < served.records.size(); ++i) {
    const std::string d = diff_record(served.records[i], oneshot.records[i]);
    if (!d.empty()) return d;
  }
  if (!(served.counters == oneshot.counters)) return "quantization counters differ from one-shot";
  return "";
}

fp8q::json::Value read_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return fp8q::json::parse(text.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace perfbench
