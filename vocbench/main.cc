// vocbench: the end-to-end VoC benchmark.
//
//   vocbench --workload calls|text|queries|cluster_queries
//            --seed N --seconds S --trace 0|1
//
// Prints one "metric" line per measurement (name, value, unit, sample
// count), then one JSON object as the last line of standard output.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones. Exits 1 when an output check fails, 2 on bad arguments.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/json.h"
#include "workloads.h"

namespace vocbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec>& EndToEndSpecs() {
  // The query_* metrics and batch_p95_ms are printed too, but on a
  // shared host they spread too far between runs to gate on (README).
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"docs_per_s", "1/s"},
      {"batch_p50_ms", "ms"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"asr.decode_ms_per_call", "ms"},
      {"asr.decode_ns_per_phoneme", "ns"},
      {"asr.decode_share", "ratio"},
      {"asr.straggler_ratio", "ratio"},
      {"asr.wer", "ratio"},
      {"pipeline.process_us.email", "us"},
      {"pipeline.process_us.sms", "us"},
      {"pipeline.process_us.call", "us"},
      {"pipeline.dropped_share", "ratio"},
      {"linking.link_us_per_doc", "us"},
      {"linking.share", "ratio"},
      {"linking.linked_share", "ratio"},
      {"linking.correct_share", "ratio"},
      {"linking.warehouse_rows", "count"},
      {"mining.index_us_per_doc", "us"},
      {"mining.publish_ms", "ms"},
      {"persist.append_us_per_doc", "us"},
      {"persist.sync_ms", "ms"},
      {"ingest.orchestration_ms", "ms"},
      {"serve.evaluate_us.concept_search", "us"},
      {"serve.evaluate_us.relevancy", "us"},
      {"serve.evaluate_us.association", "us"},
      {"serve.evaluate_us.trend", "us"},
      {"serve.evaluate_us.churn_drivers", "us"},
      {"serve.evaluate_us.drill_down", "us"},
      {"serve.cache_hit_share", "ratio"},
      {"serve.shed", "count"},
      {"net.query_roundtrip_us", "us"},
      {"net.wire_overhead_us", "us"},
      {"net.ingest_roundtrip_ms", "ms"},
      {"cluster.leg_us", "us"},
      {"cluster.merge_us", "us"},
      {"cluster.router_overhead_us", "us"},
      {"cluster.threads_peak", "count"},
      {"loadgen.late_p99_ms", "ms"},
      {"loadgen.achieved_over_offered", "ratio"},
      {"trace.overhead_share", "ratio"},
  };
  return specs;
}

bool ReadNumber(const bivoc::JsonValue& root, const char* key, double* out,
                std::string* err) {
  const bivoc::JsonValue* v = root.Find(key);
  if (v == nullptr || !v->is_number() || !(v->GetDouble() > 0)) {
    *err = std::string("config.json: ") + key + " must be a positive number";
    return false;
  }
  *out = v->GetDouble();
  return true;
}

bool LoadConfig(const std::string& path, BenchConfig* out, std::string* err) {
  std::ifstream in(path);
  if (!in) {
    *err = "cannot read " + path;
    return false;
  }
  std::stringstream text;
  text << in.rdbuf();
  bivoc::Result<bivoc::JsonValue> root = bivoc::ParseJson(text.str());
  if (!root.ok()) {
    *err = path + ": " + root.status().ToString();
    return false;
  }
  const bivoc::JsonValue* rates = root.value().Find("fixed_rates");
  if (rates == nullptr) {
    *err = path + ": missing fixed_rates";
    return false;
  }
  double docs = 0;
  if (!ReadNumber(*rates, "queries_query_rps", &out->queries_query_rps, err) ||
      !ReadNumber(*rates, "cluster_queries_query_rps", &out->cluster_query_rps,
                  err) ||
      !ReadNumber(*rates, "trickle_batches_per_s", &out->trickle_batches_per_s,
                  err) ||
      !ReadNumber(*rates, "trickle_batch_docs", &docs, err)) {
    return false;
  }
  out->trickle_batch_docs = static_cast<std::size_t>(docs);
  return true;
}

}  // namespace
}  // namespace vocbench

int main(int argc, char** argv) {
  using namespace vocbench;
  RunContext ctx;
  std::string err;
  if (!ParseArgs(argc, argv, &ctx.args, &err) ||
      !LoadConfig(VOCBENCH_CONFIG, &ctx.config, &err)) {
    std::fprintf(stderr, "vocbench: %s\n", err.c_str());
    return 2;
  }
  ctx.nproc = std::max(2u, std::thread::hardware_concurrency());
  ctx.work_dir = VOCBENCH_WORK_DIR;
  std::filesystem::create_directories(ctx.work_dir);

  const std::string& w = ctx.args.workload;
  ctx.report.Note("workload " + w + " seed " + std::to_string(ctx.args.seed) +
                  " seconds " + std::to_string(ctx.args.seconds) + " trace " +
                  (ctx.args.trace ? "1" : "0") + " nproc " +
                  std::to_string(ctx.nproc) + " compiler " VOCBENCH_COMPILER
                  " build " VOCBENCH_BUILD_TYPE);
  if (w == "calls") {
    RunCalls(&ctx);
  } else if (w == "text") {
    RunText(&ctx);
  } else if (w == "queries") {
    RunQueries(&ctx, /*cluster=*/false);
  } else if (w == "cluster_queries") {
    RunQueries(&ctx, /*cluster=*/true);
  } else {
    std::fprintf(stderr, "vocbench: unknown workload %s\n", w.c_str());
    return 2;
  }

  std::vector<std::pair<std::string, std::string>> json;
  for (const MetricSpec& m : ctx.args.trace ? PerLayerSpecs() : EndToEndSpecs()) {
    if (!ctx.report.Has(m.name)) ctx.report.Add(m.name, 0, m.unit, 0);
    json.emplace_back(m.name, m.unit);
  }
  ctx.report.Print(ctx.checks.ok(), ctx.attempted, ctx.failed, json);
  std::filesystem::remove_all(ctx.work_dir + "/wal-0");
  std::filesystem::remove_all(ctx.work_dir + "/wal-1");
  std::filesystem::remove_all(ctx.work_dir + "/wal-2");
  return ctx.checks.ok() ? 0 : 1;
}
