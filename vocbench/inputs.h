#ifndef VOCBENCH_INPUTS_H_
#define VOCBENCH_INPUTS_H_

// Input generation: everything a workload feeds the system, made from
// the seed before any timing. The same seed gives byte-identical
// inputs (harness_test.cc checks this).

#include <cstdint>
#include <string>
#include <vector>

#include "asr/acoustic_channel.h"
#include "asr/transcriber.h"
#include "core/ingest.h"
#include "synth/car_rental.h"
#include "synth/telecom.h"

namespace vocbench {

using bivoc::AcousticObservation;
using bivoc::CarRentalWorld;
using bivoc::IngestItem;
using bivoc::TelecomWorld;

// The car-rental benches' calibrated operating point (~45% WER).
inline constexpr double kCalibratedNoise = 2.75;
inline constexpr int kCalls = 1800;              // one day of the paper's calls
inline constexpr int kTelecomCustomers = 20000;  // "tens of thousands" of rows
// More documents than a 16 s run ingests; a longer run resends them.
inline constexpr int kTextDocs = 48000;
inline constexpr std::size_t kTextBatch = 64;

// The transcriber configuration at the calibrated noise level; the
// benchmark's channel and decoder use the same one.
bivoc::Transcriber::Options AsrOptions();

// Ground truth an ingest item should link to (table "" = none).
struct Truth {
  std::string table;
  int64_t id = -1;
};

// One ingest workload's inputs: items in submission order with their
// ground truth. Calls also carry acoustic observations; decoding fills
// in the item payload. The pool depends on the seed alone; a run that
// gets through it starts over from the first item.
struct Inputs {
  std::vector<IngestItem> items;
  std::vector<Truth> truth;
  std::size_t batch = 0;
  std::vector<AcousticObservation> observations;      // calls only
  std::vector<std::vector<std::string>> references;  // calls only
  std::vector<uint64_t> channel_seeds;                // calls only
  // The pool index of the k-th item a run submits.
  std::size_t At(std::size_t k) const { return k % items.size(); }
};

// calls: the car-rental world (90 agents, 3000 customers, one day of
// calls) and each call's observation from AcousticChannel::Transmit
// with its own seeded Rng, as kCall items carrying the warehouse's
// outcome and agent keys.
CarRentalWorld MakeCarWorld(uint64_t seed);
Inputs MakeCallInputs(const CarRentalWorld& world, uint64_t seed,
                      std::size_t batch);

// text: the telecom world (kTelecomCustomers rows) and kTextDocs
// documents of its email/SMS mix, shuffled.
TelecomWorld MakeTelecomWorld(uint64_t seed);
Inputs MakeTextInputs(const TelecomWorld& world, uint64_t seed);

// queries: a telecom corpus whose items carry the sender's customer id
// (the cluster routing key), plan, region and churn status.
struct Corpus {
  std::vector<IngestItem> items;
  std::vector<std::string> vocabulary;  // language filter / SMS speller
};
Corpus MakeQueryCorpus(uint64_t seed, std::size_t docs);

}  // namespace vocbench

#endif  // VOCBENCH_INPUTS_H_
