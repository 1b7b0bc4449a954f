// The two ingest workloads.
//
//   calls  car-rental calls: acoustic observation -> Decoder::Decode on
//          at most nproc threads -> IngestBatch as kCall transcripts.
//          The decoder does nearly all the work; the warehouse is small.
//   text   telecom emails and SMS -> IngestBatch with the WAL on and a
//          warehouse an order of magnitude larger. Linking dominates;
//          no decoder runs.
//
// Both are closed loops: one batch in flight, the next handed in when
// the previous publish returns, for the whole of --seconds.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "asr/transcriber.h"
#include "asr/wer.h"
#include "core/bivoc.h"
#include "core/car_rental_insights.h"
#include "core/churn.h"
#include "synth/corpora.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "inputs.h"
#include "workloads.h"

namespace vocbench {
namespace {

using namespace bivoc;

constexpr std::size_t kDistractorNames = 4000;  // bench/bench_common.h
constexpr std::size_t kCheckedDecodes = 3;

// An engine plus, for calls, the ASR front end that feeds it.
struct System {
  std::unique_ptr<Transcriber> transcriber;
  std::unique_ptr<Decoder> decoder;
  std::unique_ptr<BivocEngine> engine;
};

using SetUpFn = std::function<std::unique_ptr<System>()>;

const char* ProcessSpanName(VocChannel channel) {
  switch (channel) {
    case VocChannel::kEmail:
      return "pipeline.process.email";
    case VocChannel::kSms:
      return "pipeline.process.sms";
    case VocChannel::kCall:
      return "pipeline.process.call";
  }
  return "pipeline.process";
}

// --- set-up ---------------------------------------------------------------

std::unique_ptr<System> SetUpCalls(RunContext* ctx,
                                   const CarRentalWorld& world) {
  auto sys = std::make_unique<System>();
  sys->transcriber = std::make_unique<Transcriber>(AsrOptions());
  Transcriber& asr = *sys->transcriber;
  asr.TrainLm(GeneralEnglishSentences(), world.DomainSentences());
  asr.AddWords(world.GeneralVocabulary(), WordClass::kGeneral);
  std::vector<std::string> names = world.NameVocabulary();
  const std::vector<std::string> distractors =
      DistractorNames(kDistractorNames, 1234);
  names.insert(names.end(), distractors.begin(), distractors.end());
  asr.AddWords(names, WordClass::kName);
  asr.Freeze();
  // The decoder Transcriber::Freeze builds, owned here so the benchmark
  // times Decode on its own.
  const InterpolatedLm* lm = &asr.lm();
  sys->decoder = std::make_unique<Decoder>(
      &asr.vocabulary(),
      [lm](const std::string& prev, const std::string& word) {
        return lm->BigramLogProb(prev, word);
      },
      AsrOptions().decoder);

  sys->engine = std::make_unique<BivocEngine>();
  BivocEngine& engine = *sys->engine;
  Must(ctx, world.BuildDatabase(engine.warehouse()), "car-rental warehouse");
  Must(ctx, engine.FinishWarehouse(), "car-rental linker");
  engine.ConfigureAnnotators(world.NameVocabulary(), Cities());
  ConfigureCarRentalExtractor(engine.extractor());
  IngestOptions ingest;
  ingest.num_threads = ctx->nproc;
  engine.ConfigureIngest(ingest);
  return sys;
}

std::unique_ptr<System> SetUpText(RunContext* ctx, const TelecomWorld& world,
                                  const std::string& wal_dir) {
  auto sys = std::make_unique<System>();
  sys->engine = std::make_unique<BivocEngine>();
  BivocEngine& engine = *sys->engine;
  Must(ctx, world.BuildDatabase(engine.warehouse()), "telecom warehouse");
  LinkerConfig linker;
  linker.min_score = 0.6;  // as bench_sec6_churn links the telecom world
  Must(ctx, engine.FinishWarehouse(linker), "telecom linker");
  // Configured the way ChurnPredictor configures its pipeline.
  std::vector<std::string> gazetteer = FirstNames();
  gazetteer.insert(gazetteer.end(), LastNames().begin(), LastNames().end());
  engine.ConfigureAnnotators(gazetteer, {});
  ConfigureChurnExtractor(engine.extractor());
  const std::vector<std::string> vocab = world.DomainVocabulary();
  engine.pipeline()->mutable_language_filter()->AddVocabulary(vocab);
  engine.pipeline()->mutable_sms_normalizer()->SetSpellingDictionary(vocab);
  IngestOptions ingest;
  ingest.num_threads = ctx->nproc;
  engine.ConfigureIngest(ingest);
  std::filesystem::remove_all(wal_dir);
  Must(ctx, engine.EnableDurability(wal_dir), "durability");
  return sys;
}

// --- the untraced ingest loop ----------------------------------------------

struct IngestRun {
  std::size_t batches = 0;
  std::size_t submitted = 0;
  std::size_t processed = 0;
  std::size_t dropped = 0;
  std::size_t dead_lettered = 0;
  double wall_s = 0;
  double batch_s = 0;  // summed over batches
  LatencySamples batch_ms;
  std::vector<std::string> decoded;  // calls: text per submitted item
  WerStats wer;
};

// Fills items' payloads by decoding the observations of submitted items
// [begin, begin+n) on the pool, with one span per call when traced.
void DecodeBatch(const Inputs& in, const Decoder& decoder, ThreadPool* pool,
                 std::size_t begin, std::vector<IngestItem>* items,
                 Tracer* tracer, int64_t root, uint64_t id) {
  pool->ParallelFor(items->size(), [&](std::size_t i) {
    ScopedSpan span(tracer, "asr.decode", root, id);
    (*items)[i].payload =
        decoder.Decode(in.observations[in.At(begin + i)]).Text();
  });
}

std::vector<IngestItem> BatchItems(const Inputs& in, std::size_t b) {
  std::vector<IngestItem> items;
  for (std::size_t k = b * in.batch; k < (b + 1) * in.batch; ++k) {
    items.push_back(in.items[in.At(k)]);
  }
  return items;
}

// Closed loop through BivocEngine::IngestBatch until `seconds` pass.
IngestRun RunIngest(RunContext* ctx, const Inputs& in, System* sys,
                    ThreadPool* pool, double seconds) {
  IngestRun run;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  for (std::size_t b = 0; NowNs() < deadline; ++b) {
    const int64_t t0 = NowNs();
    std::vector<IngestItem> items = BatchItems(in, b);
    if (sys->decoder) {
      DecodeBatch(in, *sys->decoder, pool, b * in.batch, &items, nullptr, -1,
                  b);
    }
    const HealthReport h = sys->engine->IngestBatch(items);
    const double batch_s = static_cast<double>(NowNs() - t0) / 1e9;
    run.batch_ms.Add(batch_s * 1e3);
    run.batch_s += batch_s;
    ++run.batches;
    run.submitted += h.submitted;
    run.processed += h.processed;
    run.dropped += h.dropped;
    run.dead_lettered += h.dead_lettered;
    ctx->checks.Expect(h.submitted == items.size() &&
                           h.submitted ==
                               h.processed + h.dropped + h.dead_lettered &&
                           h.dead_lettered == 0,
                       "batch " + std::to_string(b) +
                           " accounting: " + h.ToString());
    for (std::size_t i = 0; sys->decoder && i < items.size(); ++i) {
      run.decoded.push_back(items[i].payload);
      run.wer.Merge(ComputeWer(in.references[in.At(b * in.batch + i)],
                               SplitWhitespace(items[i].payload)));
    }
  }
  run.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  if (run.submitted > in.items.size()) {
    ctx->report.Note("the input pool was resent from its start");
  }
  return run;
}

void ReportIngest(RunContext* ctx, const IngestRun& run, bool calls) {
  Report& r = ctx->report;
  // Read before any check runs.
  r.Add("peak_rss_mb", PeakRssMb(), "MB");
  r.Add("docs_per_s",
        run.batch_s > 0 ? static_cast<double>(run.submitted) / run.batch_s : 0,
        "1/s", run.submitted);
  r.Add("batch_p50_ms", run.batch_ms.Quantile(0.50), "ms",
        run.batch_ms.count());
  r.Add("batch_p95_ms", run.batch_ms.Quantile(0.95), "ms", run.batch_ms.count());
  r.Note("batches of " + std::to_string(run.batches ? run.submitted / run.batches
                                                    : 0) +
         " docs; beyond p95: " + std::to_string(run.batch_ms.CountAbove(0.95)) +
         " of " + std::to_string(run.batch_ms.count()));
  if (calls) r.Add("wer", run.wer.Wer(), "ratio", run.wer.ref_words);
  ctx->attempted += run.submitted;
  ctx->failed += run.dead_lettered;
  ctx->report.Note("ingest failed_share " +
                   std::to_string(run.submitted
                                      ? static_cast<double>(run.dead_lettered) /
                                            static_cast<double>(run.submitted)
                                      : 0.0));
}

// --- the traced ingest loop -------------------------------------------------

struct Tally {
  std::atomic<std::size_t> docs{0};
  std::atomic<std::size_t> dropped{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> link_attempts{0};
  std::atomic<std::size_t> linked{0};
  std::atomic<std::size_t> with_truth{0};
  std::atomic<std::size_t> correct{0};
  std::size_t phonemes = 0;
};

bool LinkedTo(const BivocEngine& engine, const Document& doc,
              const Truth& truth) {
  if (!doc.link.linked || doc.link.table != truth.table) return false;
  Result<const Table*> table = engine.warehouse().GetTable(truth.table);
  if (!table.ok()) return false;
  Result<int64_t> id = table.value()->GetInt(doc.link.row, "id");
  return id.ok() && id.value() == truth.id;
}

// The stages IngestService runs, driven by the benchmark with a span
// around each public call: journal append + sync, then clean/annotate,
// link and index on the pool, then one publish.
void TracedIngestBatch(RunContext* ctx, System* sys, const Inputs& in,
                       std::size_t begin, const std::vector<IngestItem>& items,
                       ThreadPool* pool, Tracer* tracer, int64_t root,
                       uint64_t id, Tally* tally) {
  BivocEngine& engine = *sys->engine;
  if (IngestJournal* journal = engine.journal()) {
    for (const IngestItem& item : items) {
      ScopedSpan span(tracer, "persist.append", root, id);
      Must(ctx, journal->Append(item).status(), "journal append");
    }
    ScopedSpan span(tracer, "persist.sync", root, id);
    Must(ctx, journal->Sync(), "journal sync");
  }
  VocPipeline* pipeline = engine.pipeline();
  pool->ParallelFor(items.size(), [&](std::size_t i) {
    const IngestItem& item = items[i];
    tally->docs.fetch_add(1);
    Result<Document> doc_or = Status::Internal("not run");
    {
      ScopedSpan span(tracer, ProcessSpanName(item.channel), root, id);
      doc_or = pipeline->TryProcess(item.channel, item.payload,
                                    item.time_bucket);
    }
    if (!doc_or.ok()) {
      tally->failed.fetch_add(1);
      return;
    }
    Document doc = doc_or.MoveValue();
    if (doc.dropped) {
      tally->dropped.fetch_add(1);
      return;
    }
    if (pipeline->has_linker()) {
      Status st;
      {
        ScopedSpan span(tracer, "linking.link", root, id);
        st = pipeline->LinkDocument(&doc);
      }
      tally->link_attempts.fetch_add(1);
      if (st.ok() && doc.link.linked) tally->linked.fetch_add(1);
      const Truth& truth = in.truth[in.At(begin + i)];
      if (!truth.table.empty()) {
        tally->with_truth.fetch_add(1);
        if (LinkedTo(engine, doc, truth)) tally->correct.fetch_add(1);
      }
    }
    ScopedSpan span(tracer, "mining.index", root, id);
    if (!pipeline->TryIndexDocument(doc, item.structured_keys, item.tenant)
             .ok()) {
      tally->failed.fetch_add(1);
    }
  });
  ScopedSpan span(tracer, "mining.publish", root, id);
  pipeline->PublishIndex();
}

std::map<std::string, LatencySamples> DurationsUs(
    const std::vector<Span>& spans) {
  std::map<std::string, LatencySamples> out;
  for (const Span& s : spans) out[s.name].Add(s.DurationUs());
  return out;
}

void ReportIngestLayers(RunContext* ctx, const std::vector<Span>& spans,
                        const Tally& tally, std::size_t warehouse_rows) {
  Report& r = ctx->report;
  auto dur = DurationsUs(spans);
  auto mean_us = [&](const std::string& name) { return dur[name].Mean(); };
  auto n = [&](const std::string& name) { return dur[name].count(); };

  const std::map<std::string, double> wall = WallShareMs(spans, "ingest.batch");
  const double batch_ms = dur["ingest.batch"].Mean() *
                          static_cast<double>(n("ingest.batch")) / 1e3;
  auto share = [&](const std::string& name) {
    auto it = wall.find(name);
    return it == wall.end() || batch_ms <= 0 ? 0.0 : it->second / batch_ms;
  };
  const std::size_t batches = n("ingest.batch");

  // Decode: per call, per phoneme, share, and per-batch straggling.
  double decode_ns_total = 0;
  std::map<uint64_t, LatencySamples> decode_by_batch;
  for (const Span& s : spans) {
    if (s.name != "asr.decode") continue;
    decode_ns_total += static_cast<double>(s.end_ns - s.start_ns);
    decode_by_batch[s.id].Add(s.DurationUs());
  }
  LatencySamples straggler;
  for (const auto& [id, d] : decode_by_batch) {
    if (d.Mean() > 0) straggler.Add(d.Max() / d.Mean());
  }
  r.Add("asr.decode_ms_per_call", mean_us("asr.decode") / 1e3, "ms",
        n("asr.decode"));
  r.Add("asr.decode_ns_per_phoneme",
        tally.phonemes ? decode_ns_total / static_cast<double>(tally.phonemes)
                       : 0,
        "ns", tally.phonemes);
  r.Add("asr.decode_share", share("asr.decode"), "ratio", batches);
  r.Add("asr.straggler_ratio", straggler.Mean(), "ratio", straggler.count());

  r.Add("pipeline.process_us.email", mean_us("pipeline.process.email"), "us",
        n("pipeline.process.email"));
  r.Add("pipeline.process_us.sms", mean_us("pipeline.process.sms"), "us",
        n("pipeline.process.sms"));
  r.Add("pipeline.process_us.call", mean_us("pipeline.process.call"), "us",
        n("pipeline.process.call"));
  r.Add("pipeline.dropped_share",
        tally.docs ? static_cast<double>(tally.dropped) /
                         static_cast<double>(tally.docs)
                   : 0,
        "ratio", tally.docs);

  r.Add("linking.link_us_per_doc", mean_us("linking.link"), "us",
        n("linking.link"));
  r.Add("linking.share", share("linking.link"), "ratio", batches);
  r.Add("linking.linked_share",
        tally.link_attempts ? static_cast<double>(tally.linked) /
                                  static_cast<double>(tally.link_attempts)
                            : 0,
        "ratio", tally.link_attempts);
  r.Add("linking.correct_share",
        tally.with_truth ? static_cast<double>(tally.correct) /
                               static_cast<double>(tally.with_truth)
                         : 0,
        "ratio", tally.with_truth);
  r.Add("linking.warehouse_rows", static_cast<double>(warehouse_rows), "count");

  r.Add("mining.index_us_per_doc", mean_us("mining.index"), "us",
        n("mining.index"));
  r.Add("mining.publish_ms", mean_us("mining.publish") / 1e3, "ms",
        n("mining.publish"));
  r.Add("persist.append_us_per_doc", mean_us("persist.append"), "us",
        n("persist.append"));
  r.Add("persist.sync_ms", mean_us("persist.sync") / 1e3, "ms",
        n("persist.sync"));
  const auto own = wall.find("");
  const double orchestration = own == wall.end() ? 0 : own->second;
  r.Add("ingest.orchestration_ms",
        batches ? orchestration / static_cast<double>(batches) : 0, "ms",
        batches);

  // The breakdown: every instant of every batch goes to exactly one
  // bucket, so the shares add up to the batch span.
  double sum_ms = 0;
  for (const auto& [name, ms] : wall) {
    sum_ms += ms;
    r.Note("share of batch time " + (name.empty() ? "ingest.orchestration"
                                                  : name) +
           " = " + FormatDouble(batch_ms > 0 ? ms / batch_ms : 0, 4));
  }
  r.Note("stage shares + orchestration = " + FormatDouble(sum_ms, 3) +
         " ms; batch spans = " + FormatDouble(batch_ms, 3) + " ms");
  ctx->checks.Expect(std::abs(sum_ms - batch_ms) <= 1e-6 * batch_ms + 1e-3,
                     "stage shares add up to the batch span");
}

std::size_t WarehouseRows(const BivocEngine& engine) {
  std::size_t rows = 0;
  for (const std::string& name : engine.warehouse().TableNames()) {
    Result<const Table*> table = engine.warehouse().GetTable(name);
    if (table.ok()) rows += table.value()->num_rows();
  }
  return rows;
}

// Untraced pass for half the budget, then the same batches again on a
// fresh system with spans; both must end in the same index content.
void TraceIngest(RunContext* ctx, const Inputs& in, const SetUpFn& setup,
                 ThreadPool* pool) {
  std::unique_ptr<System> plain = setup();
  const IngestRun untraced =
      RunIngest(ctx, in, plain.get(), pool, ctx->args.seconds / 2);

  std::unique_ptr<System> sys = setup();
  Tracer tracer;
  Tally tally;
  std::vector<std::string> decoded;
  const int64_t t0 = NowNs();
  for (std::size_t b = 0; b < untraced.batches; ++b) {
    const int64_t root = tracer.Begin("ingest.batch", -1, b);
    std::vector<IngestItem> items = BatchItems(in, b);
    if (sys->decoder) {
      DecodeBatch(in, *sys->decoder, pool, b * in.batch, &items, &tracer, root,
                  b);
      for (std::size_t i = 0; i < items.size(); ++i) {
        decoded.push_back(items[i].payload);
        tally.phonemes +=
            in.observations[in.At(b * in.batch + i)].phonemes.size();
      }
    }
    TracedIngestBatch(ctx, sys.get(), in, b * in.batch, items, pool, &tracer,
                      root, b, &tally);
    tracer.End(root);
  }
  const double traced_s = static_cast<double>(NowNs() - t0) / 1e9;

  ctx->checks.Expect(decoded == untraced.decoded,
                     "decoded text identical in traced and untraced runs");
  const auto a = plain->engine->ContentChecksum();
  const auto b = sys->engine->ContentChecksum();
  ctx->checks.Expect(a.num_documents == b.num_documents &&
                         a.checksum == b.checksum,
                     "traced run indexes the same content (" +
                         std::to_string(a.num_documents) + " vs " +
                         std::to_string(b.num_documents) + " docs)");
  ctx->checks.Expect(tally.failed == 0, "traced stages failed");

  const std::vector<Span> spans = tracer.spans();
  ReportIngestLayers(ctx, spans, tally, WarehouseRows(*sys->engine));
  if (sys->decoder) {
    ctx->report.Add("asr.wer", untraced.wer.Wer(), "ratio",
                    untraced.wer.ref_words);
  }
  const double plain_dps =
      static_cast<double>(untraced.submitted) / untraced.wall_s;
  const double traced_dps = static_cast<double>(untraced.submitted) / traced_s;
  ctx->report.Add("trace.overhead_share",
                  plain_dps > 0 ? (plain_dps - traced_dps) / plain_dps : 0,
                  "ratio", untraced.batches);
  ctx->report.Note("tracing overhead: docs_per_s untraced " +
                   FormatDouble(plain_dps, 1) + ", traced " +
                   FormatDouble(traced_dps, 1));
  const std::string path = ctx->work_dir + "/trace-" + ctx->args.workload +
                           "-" + std::to_string(ctx->args.seed) + ".jsonl";
  ctx->checks.Expect(tracer.WriteFile(path), "write trace file " + path);
  ctx->report.Note("trace file: " + path + " (" +
                   std::to_string(spans.size()) + " spans)");
  ctx->attempted += untraced.submitted * 2;
  ctx->failed += untraced.dead_lettered + tally.failed;
}

}  // namespace

void RunCalls(RunContext* ctx) {
  const CarRentalWorld world = MakeCarWorld(ctx->args.seed);
  const Inputs in = MakeCallInputs(world, ctx->args.seed, ctx->nproc);
  ThreadPool pool(ctx->nproc);
  const SetUpFn setup = [&] { return SetUpCalls(ctx, world); };
  if (ctx->args.trace) {
    TraceIngest(ctx, in, setup, &pool);
    return;
  }
  std::unique_ptr<System> sys = TimedSetUp(ctx, setup);
  const IngestRun run = RunIngest(ctx, in, sys.get(), &pool, ctx->args.seconds);
  ReportIngest(ctx, run, /*calls=*/true);

  ctx->checks.Expect(sys->engine->Snapshot()->num_documents() == run.processed,
                     "snapshot holds every processed call");
  for (std::size_t i = 0; i < kCheckedDecodes && i < run.decoded.size(); ++i) {
    Rng rng(in.channel_seeds[i]);
    const Transcriber::Transcript t =
        sys->transcriber->Transcribe(in.references[i], &rng);
    ctx->checks.Expect(t.first_pass.Text() == run.decoded[i],
                       "Decode matches Transcriber::Transcribe for call " +
                           std::to_string(i));
  }
}

void RunText(RunContext* ctx) {
  const TelecomWorld world = MakeTelecomWorld(ctx->args.seed);
  const Inputs in = MakeTextInputs(world, ctx->args.seed);
  ThreadPool pool(ctx->nproc);
  int attempt = 0;
  const SetUpFn setup = [&] {
    return SetUpText(ctx, world,
                     ctx->work_dir + "/wal-" + std::to_string(attempt++ % 2));
  };
  if (ctx->args.trace) {
    TraceIngest(ctx, in, setup, &pool);
    return;
  }
  std::unique_ptr<System> sys = TimedSetUp(ctx, setup);
  const IngestRun run = RunIngest(ctx, in, sys.get(), &pool, ctx->args.seconds);
  ReportIngest(ctx, run, /*calls=*/false);
  ctx->checks.Expect(sys->engine->Snapshot()->num_documents() == run.processed,
                     "snapshot holds every processed document");
}

}  // namespace vocbench
