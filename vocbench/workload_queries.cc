// The two query workloads.
//
//   queries          one engine preloaded with a telecom corpus behind
//                    a Gateway on loopback: serve + net + the mining
//                    read/publish path, no decoder, no linker.
//   cluster_queries  the same corpus, queries and trickle through a
//                    router Gateway over three shard engines reached
//                    over loopback HTTP: scatter, per-attempt threads
//                    and merge.
//
// Both run an open loop at the fixed rate from config.json with a
// fixed-rate trickle of small POST /v1/ingest batches beside it (each
// publish bumps the snapshot generation and invalidates cached
// results), then a closed loop with nproc keep-alive connections, then
// closed-loop POST /v1/ingest of large batches.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/router.h"
#include "cluster/shard_handle.h"
#include "core/churn.h"
#include "net/gateway.h"
#include "net/http_client.h"
#include "net/json.h"
#include "net/wire.h"
#include "serve/merge.h"
#include "synth/corpora.h"
#include "util/string_util.h"
#include "inputs.h"
#include "workloads.h"

namespace vocbench {

using namespace bivoc;

namespace {

constexpr std::size_t kDistinctQueries = 1024;
constexpr std::size_t kSequenceLength = 1 << 18;
constexpr double kZipfExponent = 0.9;
constexpr std::size_t kCacheEntries = 256;  // ServeOptions default
constexpr std::size_t kMaxDimensionKeys = 64;
constexpr std::size_t kPreloadDocs = 20000;
constexpr std::size_t kPreloadBatch = 2000;
constexpr std::size_t kShards = 3;
// Share of --seconds in the open query loop, the closed query loop and
// the closed ingest loop of a query workload.
constexpr double kQueryOpenShare = 0.45;
constexpr double kQueryClosedShare = 0.25;
constexpr double kIngestShare = 0.3;
// The ingest phase hands in large batches, so its throughput and
// freshness are dominated by work rather than hand-offs.
constexpr std::size_t kIngestBatchDocs = 512;

const char* kHost = "127.0.0.1";

std::string Category(const std::string& key) {
  const std::size_t slash = key.find('/');
  return slash == std::string::npos ? std::string() : key.substr(0, slash + 1);
}

std::string ShardName(std::size_t s) {
  std::string name = "s";
  name += std::to_string(s);
  return name;
}

bool QueryOk(const Result<HttpResponse>& r, bool cluster) {
  if (!r.ok() || r.value().status != 200) return false;
  return !cluster || r.value().body.find("\"partial\":true") ==
                         std::string::npos;
}

}  // namespace

// --- query population ---------------------------------------------------

QueryPopulation BuildQueryPopulation(const IndexSnapshot& snapshot,
                                     uint64_t seed) {
  // The most frequent keys of each category ("outcome/", "churn
  // driver/", ...), so every query touches real postings.
  std::map<std::string, std::vector<std::string>> frequent;
  for (const std::string& key : snapshot.Keys()) {
    const std::string cat = Category(key);
    if (!cat.empty()) frequent[cat].push_back(key);
  }
  // Prefix queries group by the low-cardinality dimensions a dashboard
  // shows; a per-entity category such as "customer/" only supplies keys.
  std::vector<std::string> cats, dims;
  for (auto& [cat, keys] : frequent) {
    std::stable_sort(keys.begin(), keys.end(),
                     [&](const std::string& a, const std::string& b) {
                       return snapshot.Count(a) > snapshot.Count(b);
                     });
    if (keys.size() <= kMaxDimensionKeys) dims.push_back(cat);
    if (keys.size() > 12) keys.resize(12);
    cats.push_back(cat);
  }
  QueryPopulation pop;
  if (dims.empty()) return pop;
  Rng rng(seed ^ 0x9e7ULL);
  auto pick_cat = [&] { return rng.Choice(cats); };
  auto pick_dim = [&] { return rng.Choice(dims); };
  auto pick_keys = [&](const std::string& cat, std::size_t n) {
    std::vector<std::string> keys = frequent[cat];
    rng.Shuffle(&keys);
    keys.resize(std::min(n, keys.size()));
    return keys;
  };
  const std::size_t limits[] = {5, 10, 20, 50};
  std::set<uint64_t> seen;
  for (std::size_t attempt = 0;
       pop.queries.size() < kDistinctQueries && attempt < 50 * kDistinctQueries;
       ++attempt) {
    QueryRequest q;
    const std::size_t limit = limits[rng.Uniform(0, 3)];
    switch (attempt % kNumQueryClasses) {
      case 0:
        q = QueryRequest::ConceptSearch(pick_dim(), limit);
        break;
      case 1: {
        const std::string key = pick_keys(pick_cat(), 1).front();
        q = QueryRequest::Relevancy(key, pick_dim(), limit);
        break;
      }
      case 2: {
        const std::string rows = pick_cat();
        const std::string cols = pick_cat();
        std::vector<std::string> row_keys =
            pick_keys(rows, static_cast<std::size_t>(rng.Uniform(2, 4)));
        std::vector<std::string> col_keys =
            pick_keys(cols, static_cast<std::size_t>(rng.Uniform(2, 3)));
        q = QueryRequest::Association(std::move(row_keys),
                                      std::move(col_keys));
        break;
      }
      case 3:
        q = QueryRequest::Trend(pick_dim(), limit);
        break;
      case 4:
        q = QueryRequest::ChurnDrivers(limit);
        break;
      default:
        q = QueryRequest::DrillDown(pick_keys(pick_cat(), 2), limit);
        break;
    }
    q.min_count = static_cast<std::size_t>(rng.Uniform(1, 4));
    if (!ValidateQuery(q).ok() || !seen.insert(QueryFingerprint(q)).second) {
      continue;
    }
    pop.bodies.push_back(DumpJson(QueryRequestToJson(q)));
    pop.queries.push_back(std::move(q));
  }
  // Zipf-skewed popularity over a seeded permutation, so the hot
  // queries are spread across classes.
  std::vector<uint32_t> perm(pop.queries.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<uint32_t>(i);
  rng.Shuffle(&perm);
  pop.sequence.reserve(kSequenceLength);
  const auto n = static_cast<int64_t>(pop.queries.size());
  for (std::size_t i = 0; i < kSequenceLength; ++i) {
    pop.sequence.push_back(
        perm[static_cast<std::size_t>(rng.Zipf(n, kZipfExponent))]);
  }
  // How often the next request is among the last 256 distinct ones.
  std::list<uint32_t> lru;
  std::unordered_map<uint32_t, std::list<uint32_t>::iterator> where;
  std::size_t reuse = 0;
  for (uint32_t q : pop.sequence) {
    auto it = where.find(q);
    if (it != where.end()) {
      ++reuse;
      lru.erase(it->second);
    } else if (lru.size() == kCacheEntries) {
      where.erase(lru.back());
      lru.pop_back();
    }
    lru.push_front(q);
    where[q] = lru.begin();
  }
  pop.lru256_reuse_share =
      static_cast<double>(reuse) / static_cast<double>(pop.sequence.size());
  return pop;
}

namespace {

// Where queries go.
struct QueryTarget {
  uint16_t port = 0;
  bool cluster = false;
  // Engines whose serving stats count toward serve.* (the engine itself,
  // or every shard).
  std::vector<BivocEngine*> serving_engines;
};

// --- ingest over the wire --------------------------------------------------

// Batches handed in over POST /v1/ingest, in order: first by the
// trickle beside the open loop, then by the closed-loop ingest phase.
// The cluster check's reference engine replays exactly [0, sent).
struct IngestFeed {
  std::vector<std::vector<IngestItem>> batches;
  std::vector<std::string> bodies;
  bool cluster = false;
  // Batch i hands in batches[i % size] again once the feed wraps (the
  // engine indexes a resent document as a new one).
  bool wrap = false;
  std::size_t sent = 0;
  Tracer* tracer = nullptr;
  std::size_t Slot(std::size_t i) const { return i % batches.size(); }
};

struct FeedStats {
  std::size_t batches = 0;
  std::size_t docs = 0;
  std::size_t dead = 0;
  std::size_t failed = 0;  // batches with an error or bad accounting
  double elapsed_s = 0;
  double batch_s = 0;       // summed over batches
  LatencySamples batch_ms;  // POST until the publish returned
};

struct Trickle {
  IngestFeed* feed = nullptr;
  double batches_per_s = 0;
  FeedStats stats;
};

// Checks a batch's HealthReport accounting in a single-engine or
// router ingest response; false when it does not hold.
bool TallyIngest(const JsonValue& body, bool cluster, std::size_t expected,
                 FeedStats* stats) {
  std::vector<const JsonValue*> healths;
  if (cluster) {
    const JsonValue* shards = body.Find("shards");
    const JsonValue* partial = body.Find("partial");
    if (shards == nullptr || partial == nullptr || partial->GetBool()) {
      return false;
    }
    for (const JsonValue& s : shards->GetArray()) {
      const JsonValue* h = s.Find("health");
      if (h == nullptr) return false;
      healths.push_back(h);
    }
  } else {
    healths.push_back(&body);
  }
  std::size_t submitted = 0, processed = 0, dropped = 0, dead = 0;
  for (const JsonValue* h : healths) {
    const JsonValue* f[4] = {h->Find("submitted"), h->Find("processed"),
                             h->Find("dropped"), h->Find("dead_lettered")};
    for (const JsonValue* v : f) {
      if (v == nullptr) return false;
    }
    submitted += static_cast<std::size_t>(f[0]->GetInt64());
    processed += static_cast<std::size_t>(f[1]->GetInt64());
    dropped += static_cast<std::size_t>(f[2]->GetInt64());
    dead += static_cast<std::size_t>(f[3]->GetInt64());
  }
  stats->dead += dead;
  return submitted == expected && submitted == processed + dropped + dead &&
         dead == 0;
}

// Posts the feed's next batches on one connection, `batches_per_s`
// apart (0 = back to back), until `seconds` pass, `stop` is set or the
// batches run out.
FeedStats Feed(IngestFeed* feed, uint16_t port, double batches_per_s,
               double seconds, const std::atomic<bool>* stop) {
  FeedStats stats;
  HttpClient client(kHost, port);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  for (std::size_t i = 0; feed->wrap || feed->sent < feed->bodies.size();
       ++i) {
    if (batches_per_s > 0) {
      const int64_t due = start + static_cast<int64_t>(i * 1e9 / batches_per_s);
      while (NowNs() < due && !stop->load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    if (stop->load() || NowNs() >= deadline) break;
    const std::size_t b = feed->sent++;
    const std::size_t docs = feed->batches[feed->Slot(b)].size();
    const int64_t t0 = NowNs();
    Result<HttpResponse> r =
        client.Post("/v1/ingest", feed->bodies[feed->Slot(b)]);
    const int64_t t1 = NowNs();
    if (feed->tracer) feed->tracer->Add("net.ingest", t0, t1, -1, b);
    stats.batch_ms.Add(static_cast<double>(t1 - t0) / 1e6);
    stats.batch_s += static_cast<double>(t1 - t0) / 1e9;
    ++stats.batches;
    stats.docs += docs;
    bool ok = r.ok() && r.value().status == 200;
    if (ok) {
      Result<JsonValue> body = ParseJson(r.value().body);
      ok = body.ok() && TallyIngest(body.value(), feed->cluster, docs, &stats);
    }
    if (!ok) ++stats.failed;
  }
  stats.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  return stats;
}

// Samples the process thread count until destroyed.
class ThreadSampler {
 public:
  ThreadSampler()
      : thread_([this] {
          while (!stop_.load()) {
            peak_ = std::max(peak_.load(), ThreadCount());
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
        }) {}
  ~ThreadSampler() {
    stop_ = true;
    thread_.join();
  }
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;
  int peak() const { return peak_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{0};
  std::thread thread_;
};

// Serving counters summed over engines (cumulative).
ServeStats SumServing(const std::vector<BivocEngine*>& engines) {
  ServeStats sum;
  for (BivocEngine* e : engines) {
    const ServeStats s = e->Health().serving;
    sum.submitted += s.submitted;
    sum.completed += s.completed;
    sum.failed += s.failed;
    sum.shed += s.shed;
    sum.cache_hits += s.cache_hits;
    sum.cache_misses += s.cache_misses;
  }
  return sum;
}

// --- the read phase -------------------------------------------------------

// Open loop at `rate` on `open_senders` connections for `open_s`, then
// closed loop on nproc connections for `closed_s`. `trickle` posts
// ingest batches beside the open loop on its own connection.
// ReportQueryPhase adds the query_* metrics.
struct QueryPhaseResult {
  OpenLoopResult open;
  ClosedLoopResult closed;
  std::size_t failed = 0;
  std::size_t attempted = 0;
};

QueryPhaseResult RunQueryPhase(RunContext* ctx, const QueryTarget& target,
                               const QueryPopulation& population, double rate,
                               std::size_t open_senders, double open_s,
                               double closed_s, Trickle* trickle) {
  QueryPhaseResult out;
  const std::size_t conns = std::max(open_senders, ctx->nproc);
  std::vector<std::unique_ptr<HttpClient>> clients;
  for (std::size_t c = 0; c < conns; ++c) {
    clients.push_back(std::make_unique<HttpClient>(kHost, target.port));
  }
  auto issue = [&](std::size_t slot, std::size_t c) {
    const uint32_t q = population.sequence[slot % population.sequence.size()];
    return QueryOk(clients[c]->Post("/v1/query", population.bodies[q]),
                   target.cluster);
  };
  const ServeStats before = SumServing(target.serving_engines);
  {
    std::atomic<bool> stop{false};
    std::thread trickle_thread([&] {
      trickle->stats = Feed(trickle->feed, target.port,
                            trickle->batches_per_s, open_s * 2, &stop);
    });
    out.open = RunOpenLoop(rate, open_s, open_senders, issue);
    stop = true;
    trickle_thread.join();
  }
  // The trickle's connection is closed now, so nproc query connections
  // never exceed the gateway's workers.
  const std::size_t offset = out.open.sent;
  out.closed = RunClosedLoop(closed_s, ctx->nproc,
                             [&](std::size_t slot, std::size_t c) {
                               return issue(offset + slot, c);
                             });
  const ServeStats after = SumServing(target.serving_engines);
  out.attempted = out.open.scheduled + out.closed.completed;
  out.failed = out.open.failed + out.closed.failed;
  const std::size_t hits = after.cache_hits - before.cache_hits;
  const std::size_t lookups =
      hits + (after.cache_misses - before.cache_misses);
  ctx->report.Note("serve cache hits " + std::to_string(hits) + " of " +
                   std::to_string(lookups) + ", shed " +
                   std::to_string(after.shed - before.shed) +
                   "; inputs repeat within 256 distinct queries " +
                   FormatDouble(population.lru256_reuse_share, 3));
  return out;
}

void ReportQueryPhase(RunContext* ctx, const QueryPhaseResult& result) {
  Report& r = ctx->report;
  const LatencySamples& lat = result.open.latency_ms;
  r.Add("query_p50_ms", lat.Quantile(0.50), "ms", lat.count());
  r.Add("query_p99_ms", lat.Quantile(0.99), "ms", lat.count());
  r.Add("query_peak_rps", result.closed.Rps(), "1/s", result.closed.completed);
  r.Note("open loop offered " + FormatDouble(result.open.offered_rps, 0) +
         "/s, achieved/offered " +
         FormatDouble(result.open.AchievedOverOffered(), 4) + ", late p99 " +
         FormatDouble(result.open.late_ms.Quantile(0.99), 3) + " ms, " +
         std::to_string(lat.CountAbove(0.99)) + " samples beyond p99");
  r.Note("query failed_share " +
         FormatDouble(result.attempted ? static_cast<double>(result.failed) /
                                             static_cast<double>(result.attempted)
                                       : 0.0,
                      6));
  ctx->attempted += result.attempted;
  ctx->failed += result.failed;
}

// Compares each distinct query's HTTP answer with `expected` evaluated
// in process; for a cluster target, generation and drill-down doc ids
// are topology-specific and compared by shape only.
void CheckQueryAnswers(RunContext* ctx, const QueryTarget& target,
                       const QueryPopulation& population,
                       const IndexSnapshot& expected) {
  HttpClient client(kHost, target.port);
  std::size_t mismatches = 0;
  std::string first;
  for (std::size_t i = 0; i < population.queries.size(); ++i) {
    const QueryRequest& q = population.queries[i];
    Result<HttpResponse> r = client.Post("/v1/query", population.bodies[i]);
    std::string why;
    Result<JsonValue> got = Status::Internal("no response");
    if (!r.ok() || r.value().status != 200) {
      why = r.ok() ? "HTTP " + std::to_string(r.value().status)
                   : r.status().ToString();
    } else {
      got = ParseJson(r.value().body);
      if (!got.ok()) why = "unparseable body";
    }
    if (why.empty()) {
      const JsonValue want =
          ReportResultToJson(EvaluateQuery(q, expected), false);
      if (target.cluster) {
        const JsonValue* partial = got.value().Find("partial");
        if (partial == nullptr || partial->GetBool()) why = "partial answer";
      }
      for (const JsonMember& m : want.GetObject()) {
        if (!why.empty()) break;
        if (m.key == "from_cache") continue;
        // Generations and drill-down doc ids are per shard in a cluster.
        if (target.cluster && m.key == "generation") continue;
        const JsonValue* g = got.value().Find(m.key);
        if (g == nullptr) {
          why = "missing " + m.key;
        } else if (target.cluster && m.key == "drill") {
          if (g->GetArray().size() != m.value.GetArray().size()) {
            why = "drill-down hit count differs";
          }
        } else if (DumpJson(*g) != DumpJson(m.value)) {
          why = m.key + " differs";
        }
      }
    }
    if (!why.empty()) {
      if (mismatches++ == 0) {
        first = std::string(QueryClassName(q.cls)) + " query " +
                std::to_string(i) + ": " + why;
      }
    }
  }
  ctx->checks.Expect(mismatches == 0,
                     std::to_string(mismatches) +
                         " HTTP answers differ from EvaluateQuery; first: " +
                         first);
  ctx->report.Note("verified " + std::to_string(population.queries.size()) +
                   " distinct query answers against EvaluateQuery");
}

// --- the query workloads --------------------------------------------------

// Clean/annotate/extract configured as for the telecom world, with no
// warehouse and so no linking.
void ConfigureTelecomEngine(BivocEngine* engine,
                            const std::vector<std::string>& vocabulary,
                            std::size_t nproc) {
  std::vector<std::string> gazetteer = FirstNames();
  gazetteer.insert(gazetteer.end(), LastNames().begin(), LastNames().end());
  engine->ConfigureAnnotators(gazetteer, {});
  ConfigureChurnExtractor(engine->extractor());
  engine->pipeline()->mutable_language_filter()->AddVocabulary(vocabulary);
  engine->pipeline()->mutable_sms_normalizer()->SetSpellingDictionary(
      vocabulary);
  IngestOptions ingest;
  ingest.num_threads = nproc;
  engine->ConfigureIngest(ingest);
}

std::vector<std::vector<IngestItem>> Chunk(const std::vector<IngestItem>& items,
                                           std::size_t begin, std::size_t end,
                                           std::size_t size) {
  std::vector<std::vector<IngestItem>> out;
  for (std::size_t i = begin; i < end; i += size) {
    out.emplace_back(items.begin() + static_cast<std::ptrdiff_t>(i),
                     items.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(end, i + size)));
  }
  return out;
}

// One engine, or a router over shards, behind a gateway. Members are
// destroyed gateway first, then router, then engines.
struct QuerySystem {
  std::vector<std::shared_ptr<BivocEngine>> engines;  // shards or the one
  std::vector<uint16_t> shard_ports;
  std::unique_ptr<ShardRouter> router;
  std::unique_ptr<Gateway> router_gateway;
  QueryTarget target;
};

std::unique_ptr<QuerySystem> SetUpQueries(
    RunContext* ctx, bool cluster, const std::vector<IngestItem>& corpus,
    const std::vector<std::string>& vocabulary) {
  auto sys = std::make_unique<QuerySystem>();
  const std::size_t n = cluster ? kShards : 1;
  for (std::size_t s = 0; s < n; ++s) {
    auto engine = std::make_shared<BivocEngine>();
    ConfigureTelecomEngine(engine.get(), vocabulary, ctx->nproc);
    GatewayOptions options;
    // Router legs, hedges and the traced direct legs each hold a
    // connection, and a connection holds a worker until it closes.
    if (cluster) options.server.num_workers = 8;
    Result<uint16_t> port = engine->StartGateway(options);
    Must(ctx, port.status(), "gateway");
    sys->shard_ports.push_back(port.ok() ? port.value() : 0);
    sys->target.serving_engines.push_back(engine.get());
    sys->engines.push_back(std::move(engine));
  }
  sys->target.cluster = cluster;
  const auto batches = Chunk(corpus, 0, corpus.size(), kPreloadBatch);
  if (!cluster) {
    sys->target.port = sys->shard_ports[0];
    for (const auto& batch : batches) {
      const HealthReport h = sys->engines[0]->IngestBatch(batch);
      ctx->checks.Expect(h.dead_lettered == 0, "preload dead letters");
    }
    return sys;
  }
  std::vector<std::shared_ptr<ShardHandle>> handles;
  for (std::size_t s = 0; s < n; ++s) {
    handles.push_back(std::make_shared<HttpShardHandle>(
        ShardName(s), kHost, sys->shard_ports[s]));
  }
  sys->router = std::make_unique<ShardRouter>(std::move(handles));
  sys->router_gateway =
      std::make_unique<Gateway>(sys->router.get(), GatewayOptions{});
  Must(ctx, sys->router_gateway->Start(), "router gateway");
  sys->target.port = sys->router_gateway->port();
  for (const auto& batch : batches) {
    Result<JsonValue> r = sys->router->ExecuteIngest(batch);
    Must(ctx, r.status(), "preload through the router");
  }
  return sys;
}

IngestFeed MakeFeed(const std::vector<IngestItem>& items, std::size_t begin,
                    std::size_t end, std::size_t batch_docs, bool cluster) {
  IngestFeed feed;
  feed.cluster = cluster;
  feed.batches = Chunk(items, begin, end, batch_docs);
  for (const auto& b : feed.batches) {
    feed.bodies.push_back(DumpJson(IngestItemsToJson(b)));
  }
  return feed;
}

void CountFeed(RunContext* ctx, const FeedStats& stats) {
  ctx->attempted += stats.docs;
  ctx->failed += stats.dead + stats.failed;
}

// A single engine holding exactly the documents the cluster admitted.
std::unique_ptr<BivocEngine> ReferenceEngine(
    RunContext* ctx, const std::vector<IngestItem>& corpus,
    const std::vector<std::string>& vocabulary,
    const std::vector<const IngestFeed*>& feeds) {
  auto engine = std::make_unique<BivocEngine>();
  ConfigureTelecomEngine(engine.get(), vocabulary, ctx->nproc);
  for (const auto& batch : Chunk(corpus, 0, corpus.size(), kPreloadBatch)) {
    engine->IngestBatch(batch);
  }
  for (const IngestFeed* feed : feeds) {
    for (std::size_t b = 0; b < feed->sent; ++b) {
      engine->IngestBatch(feed->batches[feed->Slot(b)]);
    }
  }
  return engine;
}

// Traced open loop: each request's HTTP round trip, then the same
// request replayed in process under the same id — ReportServer::Execute
// with the same cache outcome, EvaluateQuery, and for a cluster the
// direct shard legs and MergeShardReports on their partials.
OpenLoopResult RunTracedQueries(RunContext* ctx, QuerySystem* sys,
                               const QueryPopulation& population, double rate,
                               double seconds, Tracer* tracer) {
  const bool cluster = sys->target.cluster;
  const std::size_t senders = ctx->nproc - 1;
  std::vector<std::unique_ptr<HttpClient>> clients;
  std::vector<std::vector<std::shared_ptr<HttpShardHandle>>> legs(senders);
  for (std::size_t c = 0; c < senders; ++c) {
    clients.push_back(std::make_unique<HttpClient>(kHost, sys->target.port));
    for (std::size_t s = 0; cluster && s < sys->shard_ports.size(); ++s) {
      legs[c].push_back(std::make_shared<HttpShardHandle>(
          ShardName(s), kHost, sys->shard_ports[s]));
    }
  }
  BivocEngine& engine = *sys->engines[0];
  ServeOptions uncached;
  uncached.cache_capacity = 0;
  uncached.num_threads = 1;
  ReportServer no_cache([&engine] { return engine.index().snapshot(); },
                        uncached);
  return RunOpenLoop(rate, seconds, senders, [&](std::size_t slot,
                                                 std::size_t c) {
    const uint32_t qi = population.sequence[slot % population.sequence.size()];
    const QueryRequest& q = population.queries[qi];
    const int64_t root = tracer->Begin("query", -1, slot);
    Result<HttpResponse> r = Status::Internal("not sent");
    {
      ScopedSpan span(tracer, "net.query", root, slot);
      r = clients[c]->Post("/v1/query", population.bodies[qi]);
    }
    const bool ok = QueryOk(r, cluster);
    const std::string evaluate =
        std::string("serve.evaluate.") + QueryClassName(q.cls);
    if (!cluster) {
      const bool hit =
          ok && r.value().body.find("\"from_cache\":true") != std::string::npos;
      {
        ScopedSpan span(tracer, "serve.execute", root, slot);
        (hit ? engine.serve() : &no_cache)->Execute(q);
      }
      std::shared_ptr<const IndexSnapshot> snap = engine.index().snapshot();
      ScopedSpan span(tracer, evaluate, root, slot);
      EvaluateQuery(q, *snap);
    } else {
      QueryRequest shard_q = q;
      shard_q.shard_mode = true;
      std::vector<ReportResult> partials;
      for (auto& leg : legs[c]) {
        ScopedSpan span(tracer, "cluster.leg", root, slot);
        Result<WireReport> w = leg->Query(shard_q);
        if (w.ok()) partials.push_back(std::move(w.value().report));
      }
      if (partials.size() == legs[c].size()) {
        ScopedSpan span(tracer, "cluster.merge", root, slot);
        (void)MergeShardReports(q, partials);
      }
      std::shared_ptr<const IndexSnapshot> snap =
          sys->engines[0]->index().snapshot();
      ScopedSpan span(tracer, evaluate, root, slot);
      EvaluateQuery(shard_q, *snap);
    }
    tracer->End(root);
    return ok;
  });
}

void ReportQueryLayers(RunContext* ctx, const std::vector<Span>& spans,
                       bool cluster) {
  Report& r = ctx->report;
  std::map<std::string, LatencySamples> dur;
  // Per request: round trip, in-process execute, slowest leg, merge.
  struct PerRequest {
    double roundtrip = -1, execute = -1, slowest_leg = 0, merge = -1;
  };
  std::map<uint64_t, PerRequest> req;
  for (const Span& s : spans) {
    dur[s.name].Add(s.DurationUs());
    if (s.parent < 0) continue;
    PerRequest& p = req[s.id];
    if (s.name == "net.query") p.roundtrip = s.DurationUs();
    if (s.name == "serve.execute") p.execute = s.DurationUs();
    if (s.name == "cluster.leg") p.slowest_leg = std::max(p.slowest_leg, s.DurationUs());
    if (s.name == "cluster.merge") p.merge = s.DurationUs();
  }
  LatencySamples wire, router;
  for (const auto& [id, p] : req) {
    if (p.roundtrip >= 0 && p.execute >= 0) wire.Add(p.roundtrip - p.execute);
    if (p.roundtrip >= 0 && p.merge >= 0) {
      router.Add(p.roundtrip - p.slowest_leg - p.merge);
    }
  }
  for (std::size_t c = 0; c < kNumQueryClasses; ++c) {
    const std::string cls = QueryClassName(static_cast<QueryClass>(c));
    const LatencySamples& d = dur["serve.evaluate." + cls];
    r.Add("serve.evaluate_us." + cls, d.Mean(), "us", d.count());
  }
  r.Add("net.query_roundtrip_us", dur["net.query"].Mean(), "us",
        dur["net.query"].count());
  r.Add("net.wire_overhead_us", cluster ? 0 : wire.Mean(), "us", wire.count());
  r.Add("net.ingest_roundtrip_ms", dur["net.ingest"].Mean() / 1e3, "ms",
        dur["net.ingest"].count());
  r.Add("cluster.leg_us", dur["cluster.leg"].Mean(), "us",
        dur["cluster.leg"].count());
  r.Add("cluster.merge_us", dur["cluster.merge"].Mean(), "us",
        dur["cluster.merge"].count());
  r.Add("cluster.router_overhead_us", router.Mean(), "us", router.count());
}

}  // namespace

void RunQueries(RunContext* ctx, bool cluster) {
  const double S = ctx->args.seconds;
  const BenchConfig& cfg = ctx->config;
  // Disjoint slices after the preload: the trickle's small batches (the
  // whole run at its rate, at most) and the ingest phase's large ones,
  // which it resends in a loop.
  const auto trickle_docs = static_cast<std::size_t>(
      cfg.trickle_batches_per_s * cfg.trickle_batch_docs * S);
  const std::size_t ingest_docs = 16 * kIngestBatchDocs;
  const Corpus all = MakeQueryCorpus(
      ctx->args.seed, kPreloadDocs + trickle_docs + ingest_docs);
  const std::vector<IngestItem> corpus(all.items.begin(),
                                       all.items.begin() + kPreloadDocs);
  const double rate = cluster ? cfg.cluster_query_rps : cfg.queries_query_rps;
  const std::size_t senders = ctx->nproc - 1;  // one connection trickles

  auto setup = [&] {
    return SetUpQueries(ctx, cluster, corpus, all.vocabulary);
  };
  std::unique_ptr<QuerySystem> sys =
      ctx->args.trace ? setup() : TimedSetUp(ctx, setup);
  const QueryPopulation population =
      BuildQueryPopulation(*sys->engines[0]->Snapshot(), ctx->args.seed);
  IngestFeed feed = MakeFeed(all.items, kPreloadDocs,
                             kPreloadDocs + trickle_docs,
                             cfg.trickle_batch_docs, cluster);
  IngestFeed bulk =
      MakeFeed(all.items, kPreloadDocs + trickle_docs, all.items.size(),
               kIngestBatchDocs, cluster);
  bulk.wrap = true;
  Trickle trickle{&feed, cfg.trickle_batches_per_s, {}};

  if (!ctx->args.trace) {
    const QueryPhaseResult phase = RunQueryPhase(
        ctx, sys->target, population, rate, senders, S * kQueryOpenShare,
        S * kQueryClosedShare, &trickle);
    ReportQueryPhase(ctx, phase);
    CountFeed(ctx, trickle.stats);
    ctx->report.Note("trickle: " + std::to_string(trickle.stats.batches) +
                     " batches of " + std::to_string(cfg.trickle_batch_docs) +
                     " docs at " + FormatDouble(trickle.batches_per_s, 1) +
                     "/s beside the open loop, round trip p50 " +
                     FormatDouble(trickle.stats.batch_ms.Quantile(0.5), 3) +
                     " ms, p95 " +
                     FormatDouble(trickle.stats.batch_ms.Quantile(0.95), 3) +
                     " ms, " + std::to_string(trickle.stats.failed) +
                     " failed");
    // Closed-loop ingest over the wire: one batch in flight.
    const std::atomic<bool> never{false};
    const FeedStats ingest =
        Feed(&bulk, sys->target.port, 0, S * kIngestShare, &never);
    CountFeed(ctx, ingest);
    Report& r = ctx->report;
    r.Add("docs_per_s",
          ingest.batch_s > 0 ? static_cast<double>(ingest.docs) / ingest.batch_s
                             : 0,
          "1/s", ingest.docs);
    r.Add("batch_p50_ms", ingest.batch_ms.Quantile(0.50), "ms",
          ingest.batch_ms.count());
    r.Add("batch_p95_ms", ingest.batch_ms.Quantile(0.95), "ms",
          ingest.batch_ms.count());
    r.Note("ingest over HTTP: " + std::to_string(ingest.batches) +
           " batches of " + std::to_string(kIngestBatchDocs) +
           " docs, " + std::to_string(ingest.batch_ms.CountAbove(0.95)) +
           " beyond p95, " + std::to_string(ingest.failed) + " failed");
    r.Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    // Untraced half: the loop alone, with serving counters and threads.
    const ServeStats before = SumServing(sys->target.serving_engines);
    QueryPhaseResult plain;
    int threads_peak = 0;
    {
      ThreadSampler sampler;
      plain = RunQueryPhase(ctx, sys->target, population, rate, senders,
                            S / 2, 0.0, &trickle);
      threads_peak = sampler.peak();
    }
    const ServeStats after = SumServing(sys->target.serving_engines);
    ctx->attempted += plain.attempted;
    ctx->failed += plain.failed;
    CountFeed(ctx, trickle.stats);
    // Traced half: same schedule, spans around every public call.
    Tracer tracer;
    feed.tracer = &tracer;
    OpenLoopResult traced;
    {
      std::atomic<bool> stop{false};
      std::thread t([&] {
        trickle.stats = Feed(&feed, sys->target.port, trickle.batches_per_s,
                             S, &stop);
      });
      traced = RunTracedQueries(ctx, sys.get(), population, rate, S / 2,
                                &tracer);
      stop = true;
      t.join();
    }
    ctx->attempted += traced.scheduled;
    ctx->failed += traced.failed;
    CountFeed(ctx, trickle.stats);
    const std::vector<Span> spans = tracer.spans();
    ReportQueryLayers(ctx, spans, cluster);
    const std::size_t hits = after.cache_hits - before.cache_hits;
    const std::size_t lookups =
        hits + after.cache_misses - before.cache_misses;
    Report& r = ctx->report;
    r.Add("serve.cache_hit_share",
          lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0,
          "ratio", lookups);
    r.Add("serve.shed", static_cast<double>(after.shed - before.shed), "count");
    r.Add("cluster.threads_peak", threads_peak, "count");
    r.Add("loadgen.late_p99_ms", plain.open.late_ms.Quantile(0.99), "ms",
          plain.open.late_ms.count());
    r.Add("loadgen.achieved_over_offered", plain.open.AchievedOverOffered(),
          "ratio", plain.open.sent);
    const double p50_plain = plain.open.latency_ms.Quantile(0.5);
    // Traced latency is the round trip alone: the in-process replays
    // that follow it are the tracing's own work, not the request's.
    LatencySamples roundtrip;
    for (const Span& span : spans) {
      if (span.name == "net.query") roundtrip.Add(span.DurationMs());
    }
    const double p50_traced = roundtrip.Quantile(0.5);
    r.Add("trace.overhead_share",
          p50_plain > 0 ? (p50_traced - p50_plain) / p50_plain : 0, "ratio",
          traced.sent);
    r.Note("tracing overhead: query_p50_ms untraced " +
           FormatDouble(p50_plain, 4) + ", traced " +
           FormatDouble(p50_traced, 4));
    const std::string path = ctx->work_dir + "/trace-" + ctx->args.workload +
                             "-" + std::to_string(ctx->args.seed) + ".jsonl";
    ctx->checks.Expect(tracer.WriteFile(path), "write trace file " + path);
    ctx->report.Note("trace file: " + path + " (" +
                     std::to_string(spans.size()) + " spans)");
  }

  // Quiescent checks, outside the timed phases and after VmHWM.
  std::size_t indexed = 0;
  for (const auto& e : sys->engines) indexed += e->Snapshot()->num_documents();
  std::size_t processed = 0;
  for (const auto& e : sys->engines) processed += e->Health().processed;
  ctx->checks.Expect(indexed == processed,
                     "snapshots hold every processed document (" +
                         std::to_string(indexed) + " vs " +
                         std::to_string(processed) + ")");
  if (cluster) {
    std::unique_ptr<BivocEngine> reference =
        ReferenceEngine(ctx, corpus, all.vocabulary, {&feed, &bulk});
    CheckQueryAnswers(ctx, sys->target, population, *reference->Snapshot());
  } else {
    CheckQueryAnswers(ctx, sys->target, population,
                      *sys->engines[0]->Snapshot());
  }
}

}  // namespace vocbench
