#ifndef VOCBENCH_WORKLOADS_H_
#define VOCBENCH_WORKLOADS_H_

// The four workloads and the pieces they share. Every workload:
//   1. generates its inputs from the seed (not timed, not in setup_s);
//   2. sets the system up several times and reports the median;
//   3. runs its measured phase through the engine's public APIs;
//   4. reads VmHWM, then verifies outputs outside the timed phase.
// With --trace 1 it instead runs a shorter untraced pass, then the same
// inputs again with spans around each call into a layer, and reports
// the per-layer metrics plus the tracing overhead.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/bivoc.h"
#include "harness.h"
#include "serve/query.h"

namespace vocbench {

using bivoc::BivocEngine;
using bivoc::IndexSnapshot;
using bivoc::QueryRequest;

// Fixed rates from config.json (measured once at the baseline commit,
// never recomputed per run).
struct BenchConfig {
  double queries_query_rps = 0;
  double cluster_query_rps = 0;
  double trickle_batches_per_s = 0;
  std::size_t trickle_batch_docs = 0;
};

struct RunContext {
  Args args;
  BenchConfig config;
  std::size_t nproc = 1;
  std::string work_dir;  // scratch space inside the checkout
  Report report;
  Checks checks;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

inline void Must(RunContext* ctx, const bivoc::Status& st,
                 const std::string& what) {
  ctx->checks.Expect(st.ok(), what + ": " + st.ToString());
}

void RunCalls(RunContext* ctx);
void RunText(RunContext* ctx);
void RunQueries(RunContext* ctx, bool cluster);

// Sets up at least 7 times and for at least 2 s (at most 41 times),
// keeps the last system and reports the median as setup_s.
template <typename SetUp>
auto TimedSetUp(RunContext* ctx, const SetUp& setup) -> decltype(setup()) {
  std::vector<double> seconds;
  decltype(setup()) sys;
  double total = 0;
  while (seconds.size() < 41 && (seconds.size() < 7 || total < 2.0)) {
    sys.reset();
    const int64_t t0 = NowNs();
    sys = setup();
    seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    total += seconds.back();
  }
  ctx->report.Add("setup_s", Median(seconds), "s", seconds.size());
  return sys;
}

// The distinct queries a query workload draws from, built from the
// snapshot's own concept keys so every class returns real rows, plus a
// Zipf-skewed request sequence over them.
struct QueryPopulation {
  std::vector<QueryRequest> queries;
  std::vector<std::string> bodies;  // JSON request bodies
  std::vector<uint32_t> sequence;   // request i asks queries[sequence[i]]
  // Share of the sequence whose query is among the 256 most recently
  // used distinct queries (what a 256-entry LRU could serve).
  double lru256_reuse_share = 0;
};
QueryPopulation BuildQueryPopulation(const IndexSnapshot& snapshot,
                                     uint64_t seed);

}  // namespace vocbench

#endif  // VOCBENCH_WORKLOADS_H_
