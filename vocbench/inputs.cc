#include "inputs.h"

#include <algorithm>

#include "synth/corpora.h"
#include "util/random.h"

namespace vocbench {

using namespace bivoc;

namespace {

uint64_t CallSeed(uint64_t seed, int call_id) {
  return seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(call_id) + 1;
}

}  // namespace

Transcriber::Options AsrOptions() {
  Transcriber::Options opts;
  opts.channel.noise_level = kCalibratedNoise;
  return opts;
}

CarRentalWorld MakeCarWorld(uint64_t seed) {
  CarRentalConfig config;
  config.num_agents = 90;
  config.num_customers = 3000;
  config.num_calls = kCalls;
  config.seed = seed;
  return CarRentalWorld::Generate(config);
}

Inputs MakeCallInputs(const CarRentalWorld& world, uint64_t seed,
                      std::size_t batch) {
  Inputs in;
  in.batch = batch;
  // Same lexicon and channel configuration as the Transcriber's, so a
  // Transcribe from the same Rng state sees the same observation.
  Lexicon lexicon;
  AcousticChannel channel(&lexicon, AsrOptions().channel);
  for (const CallRecord& call : world.calls()) {
    in.references.push_back(call.ReferenceWords());
    in.channel_seeds.push_back(CallSeed(seed, call.call_id));
    Rng rng(in.channel_seeds.back());
    in.observations.push_back(channel.Transmit(in.references.back(), &rng));
    IngestItem item;
    item.channel = VocChannel::kCall;
    item.time_bucket = call.day_index;
    // The outcome and agent the warehouse calls table holds.
    const RentalAgent& agent =
        world.agents()[static_cast<std::size_t>(call.agent_id)];
    item.structured_keys = {
        std::string("outcome/") +
            (call.is_service_call ? "service"
                                  : (call.reserved ? "reservation"
                                                   : "unbooked")),
        "agent/" + agent.name};
    in.items.push_back(std::move(item));
    in.truth.push_back(Truth{"customers", call.customer_id});
  }
  return in;
}

TelecomWorld MakeTelecomWorld(uint64_t seed) {
  TelecomConfig config;
  config.num_customers = kTelecomCustomers;
  // The corpus's own email:SMS proportion.
  config.num_emails = kTextDocs * 4746 / (4746 + 28931);
  config.num_sms = kTextDocs - config.num_emails;
  config.seed = seed;
  return TelecomWorld::Generate(config);
}

Inputs MakeTextInputs(const TelecomWorld& world, uint64_t seed) {
  std::vector<const VocDocument*> docs;
  for (const auto& d : world.emails()) docs.push_back(&d);
  for (const auto& d : world.sms()) docs.push_back(&d);
  Rng rng(seed ^ 0x7e47ULL);
  rng.Shuffle(&docs);
  Inputs in;
  in.batch = kTextBatch;
  for (const VocDocument* d : docs) {
    IngestItem item;
    item.channel = d->channel;
    item.payload = d->raw_text;
    item.time_bucket = d->day_index;
    item.structured_keys = {d->channel == VocChannel::kEmail ? "channel/email"
                                                             : "channel/sms"};
    in.items.push_back(std::move(item));
    if (d->payment_id >= 0) {
      in.truth.push_back(Truth{"payments", d->payment_id});
    } else if (d->customer_id >= 0) {
      in.truth.push_back(Truth{"telecom_customers", d->customer_id});
    } else {
      in.truth.push_back(Truth{});
    }
  }
  return in;
}

Corpus MakeQueryCorpus(uint64_t seed, std::size_t docs) {
  TelecomConfig config;
  config.num_customers = 8000;
  config.num_emails = static_cast<int>(docs * 4746 / (4746 + 28931)) + 1;
  config.num_sms = static_cast<int>(docs) - config.num_emails + 1;
  config.seed = seed;
  const TelecomWorld world = TelecomWorld::Generate(config);
  std::vector<const VocDocument*> all;
  for (const auto& d : world.emails()) all.push_back(&d);
  for (const auto& d : world.sms()) all.push_back(&d);
  Rng rng(seed ^ 0x51ULL);
  rng.Shuffle(&all);
  Corpus corpus;
  corpus.vocabulary = world.DomainVocabulary();
  std::vector<IngestItem>& items = corpus.items;
  for (const VocDocument* d : all) {
    IngestItem item;
    item.channel = d->channel;
    item.payload = d->raw_text;
    item.time_bucket = d->day_index;
    if (d->customer_id >= 0) {
      const TelecomCustomer& c =
          world.customers()[static_cast<std::size_t>(d->customer_id)];
      item.structured_keys = {
          "customer/" + std::to_string(c.id),
          c.prepaid ? "plan/prepaid" : "plan/postpaid",
          "region/" + std::to_string(c.region),
          c.churner ? "churn status/churned" : "churn status/active"};
    }
    items.push_back(std::move(item));
  }
  items.resize(std::min(items.size(), docs));
  return corpus;
}

}  // namespace vocbench
