// Self-tests of the measurement code: exact quantiles at microsecond
// resolution, no coordinated omission in the open loop, span
// arithmetic, and byte-identical inputs for a seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "core/bivoc.h"
#include "harness.h"
#include "inputs.h"
#include "util/random.h"
#include "workloads.h"

namespace vocbench {
namespace {

double ExactQuantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

TEST(LatencySamplesTest, QuantilesMatchExactSortedSamples) {
  bivoc::Rng rng(7);
  LatencySamples samples;
  std::vector<double> raw;
  for (int i = 0; i < 20000; ++i) {
    // Log-normal around 7 us, as fast in-process calls are.
    const double ms = 0.001 * std::exp(rng.Normal(2.0, 1.0));
    samples.Add(ms);
    raw.push_back(ms);
  }
  for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    const double exact = ExactQuantile(raw, q);
    EXPECT_LE(std::abs(samples.Quantile(q) - exact), 1e-12) << "q=" << q;
  }
}

TEST(LatencySamplesTest, ResolvesSingleMicroseconds) {
  LatencySamples samples;
  for (int i = 0; i < 98; ++i) samples.Add(0.003);
  samples.Add(0.007);
  samples.Add(0.009);
  EXPECT_DOUBLE_EQ(samples.Quantile(0.50), 0.003);
  EXPECT_DOUBLE_EQ(samples.Quantile(0.99), 0.007);
  EXPECT_DOUBLE_EQ(samples.Quantile(1.00), 0.009);
  EXPECT_EQ(samples.CountAbove(0.50), 2u);
}

// A server that stalls once, driven open loop: every request scheduled
// during the stall is measured from when it was due, so the stall shows
// in all of them, not just in the one request that hit it.
TEST(OpenLoopTest, StallDelaysEveryRequestScheduledBehindIt) {
  const OpenLoopResult r =
      RunOpenLoop(1000, 0.3, 1, [](std::size_t slot, std::size_t) {
        if (slot == 20) std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return true;
      });
  ASSERT_EQ(r.sent, 300u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GE(r.latency_by_slot_ms[20], 50.0);
  EXPECT_GE(r.latency_by_slot_ms[21], 45.0);
  std::size_t delayed = 0;
  for (std::size_t i = 21; i < 70; ++i) {
    if (r.latency_by_slot_ms[i] >= 20.0) ++delayed;
  }
  EXPECT_GE(delayed, 25u);
  EXPECT_GE(r.latency_ms.Quantile(0.99), 45.0);
  EXPECT_GE(r.late_ms.Max(), 45.0);
}

TEST(OpenLoopTest, SlotsNeverSentCountAsFailed) {
  const OpenLoopResult r =
      RunOpenLoop(1000, 0.1, 1, [](std::size_t, std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        return true;
      });
  EXPECT_EQ(r.scheduled, 100u);
  EXPECT_LT(r.sent, 10u);
  EXPECT_EQ(r.sent + r.failed, r.scheduled);
}

TEST(ClosedLoopTest, CountsEveryIssuedRequest) {
  std::atomic<std::size_t> issued{0};
  const ClosedLoopResult r =
      RunClosedLoop(0.05, 2, [&](std::size_t slot, std::size_t) {
        issued.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return slot % 2 == 0;
      });
  EXPECT_EQ(r.completed, issued.load());
  EXPECT_EQ(r.failed, r.completed / 2);
  EXPECT_GE(r.elapsed_s, 0.05);
  EXPECT_DOUBLE_EQ(r.Rps(), static_cast<double>(r.completed) / r.elapsed_s);
}

TEST(TracerTest, WallSharesAddUpToTheRootSpan) {
  const std::vector<Span> spans = {
      {"batch", 0, 100, -1, 7},
      {"a", 10, 50, 0, 7},
      {"b", 30, 70, 0, 7},
  };
  const auto share = WallShareMs(spans, "batch");
  EXPECT_DOUBLE_EQ(share.at("a") * 1e6, 30.0);   // 20 alone + 20 shared / 2
  EXPECT_DOUBLE_EQ(share.at("b") * 1e6, 30.0);
  EXPECT_DOUBLE_EQ(share.at("") * 1e6, 40.0);    // self time: 0-10, 70-100
}

std::string Serialize(const Inputs& in) {
  std::string out;
  for (std::size_t i = 0; i < in.items.size(); ++i) {
    const IngestItem& item = in.items[i];
    out += std::to_string(static_cast<int>(item.channel)) + "|" +
           item.payload + "|" + std::to_string(item.time_bucket) + "|";
    for (const auto& k : item.structured_keys) out += k + ",";
    out += in.truth[i].table + ":" + std::to_string(in.truth[i].id) + "\n";
  }
  for (const auto& obs : in.observations) {
    for (bivoc::Phoneme p : obs.phonemes) out += std::to_string(p) + " ";
    out += "\n";
  }
  return out;
}

TEST(InputsTest, SameSeedGivesByteIdenticalCallInputs) {
  const std::string a = Serialize(MakeCallInputs(MakeCarWorld(5), 5, 4));
  const std::string b = Serialize(MakeCallInputs(MakeCarWorld(5), 5, 4));
  const std::string c = Serialize(MakeCallInputs(MakeCarWorld(6), 6, 4));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(InputsTest, SameSeedGivesByteIdenticalTextInputs) {
  const std::string a = Serialize(MakeTextInputs(MakeTelecomWorld(5), 5));
  const std::string b = Serialize(MakeTextInputs(MakeTelecomWorld(5), 5));
  const std::string c = Serialize(MakeTextInputs(MakeTelecomWorld(6), 6));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(InputsTest, SameSeedGivesByteIdenticalQueryInputs) {
  auto population = [](uint64_t seed) {
    const Corpus corpus = MakeQueryCorpus(seed, 2000);
    bivoc::BivocEngine engine;
    engine.IngestBatch(corpus.items);
    const QueryPopulation pop = BuildQueryPopulation(*engine.Snapshot(), seed);
    std::string out;
    for (const auto& item : corpus.items) out += item.payload + "\n";
    for (const auto& body : pop.bodies) out += body + "\n";
    for (uint32_t q : pop.sequence) out += std::to_string(q) + " ";
    return out;
  };
  const std::string a = population(5);
  EXPECT_EQ(a, population(5));
  EXPECT_NE(a, population(6));
}

}  // namespace
}  // namespace vocbench
