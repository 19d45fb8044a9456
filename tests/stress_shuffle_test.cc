// Randomized soak (ctest label: stress): 200 word-count jobs across random
// codec x runJob-or-oracle x fault-plan combinations, each asserting
// bit-identical output and equal segment byte counts against a no-fault
// serial-oracle baseline. Every job derives from SCISHUFFLE_PROP_SEED, so a
// failure replays exactly.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "hadoop/runtime.h"
#include "job_identity.h"
#include "testing/fault_injector.h"
#include "testing_support.h"

namespace scishuffle::hadoop {
namespace {

using scishuffle::testing::FaultKind;
using scishuffle::testing::FaultPlan;
using scishuffle::testing::FaultRule;
namespace site = scishuffle::testing::site;

using scishuffle::testing::toBytes;
using scishuffle::testing::encodeI64;
using scishuffle::testing::decodeI64;

/// A corpus plus the fixed job shape that must match between baseline and
/// faulted runs for outputs to be comparable byte for byte.
struct Workload {
  std::vector<std::vector<std::string>> docs;
  int num_reducers = 1;
  std::size_t spill_buffer = 16u << 20;
};

Workload makeWorkload(std::mt19937_64& rng) {
  const std::vector<std::string> vocab = {"the",  "windspeed", "grid", "key",   "value",
                                          "map",  "reduce",    "sci",  "curve", "shuffle"};
  Workload w;
  w.num_reducers = 1 + static_cast<int>(rng() % 4);
  if (rng() % 3 == 0) w.spill_buffer = 512;  // force several spills per task
  const int maps = 2 + static_cast<int>(rng() % 3);
  const int words = 40 + static_cast<int>(rng() % 80);
  w.docs.resize(static_cast<std::size_t>(maps));
  for (auto& doc : w.docs) {
    doc.reserve(static_cast<std::size_t>(words));
    for (int i = 0; i < words; ++i) doc.push_back(vocab[rng() % vocab.size()]);
  }
  return w;
}

JobResult runWordCount(const Workload& w, JobConfig config, bool serial = false) {
  config.num_reducers = w.num_reducers;
  config.spill_buffer_bytes = w.spill_buffer;
  config.codec_threads = 2;  // keep 200 pool spin-ups cheap
  config.map_slots = 2;
  config.reduce_slots = 2;
  std::vector<MapTask> tasks;
  for (const auto& doc : w.docs) {
    tasks.push_back(MapTask{[&doc](const EmitFn& emit) {
      for (const auto& word : doc) emit(toBytes(word), encodeI64(1));
    }});
  }
  const ReduceFn reduce = [](const Bytes& key, std::vector<Bytes>& values, const EmitFn& emit) {
    i64 sum = 0;
    for (const auto& v : values) sum += decodeI64(v);
    emit(key, encodeI64(sum));
  };
  return serial ? runJobSerial(config, tasks, reduce) : runJob(config, tasks, reduce);
}

/// Random plan over the pipelined path's injection sites. Trigger counts stay
/// below the retry budget so every job is recoverable by construction.
FaultPlan randomPlan(std::mt19937_64& rng) {
  FaultPlan plan;
  plan.seed = rng();
  const int rules = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < rules; ++i) {
    FaultRule rule;
    switch (rng() % 6) {
      case 0:
        rule = {site::kShuffleFetch, FaultKind::kThrowIo};
        break;
      case 1:
        rule = {site::kShuffleFetch, FaultKind::kCorruptBytes};
        break;
      case 2:
        rule = {site::kShuffleFetch, FaultKind::kTruncate};
        break;
      case 3:
        rule = {site::kShufflePublish, FaultKind::kThrowIo};
        break;
      case 4:
        rule = {site::kBlockDecode, FaultKind::kCorruptBytes};
        break;
      default:
        rule = {site::kShuffleFetch, FaultKind::kDelay};
        rule.delay_us = 200;
        break;
    }
    rule.max_triggers = 1 + rng() % 2;
    rule.skip_calls = rng() % 3;
    plan.rules.push_back(rule);
  }
  return plan;
}

TEST(StressShuffleTest, TwoHundredRandomizedJobsMatchSerialBaseline) {
  const u64 seed = scishuffle::testing::propertySeed();
  std::mt19937_64 rng(seed);
  const std::vector<std::string> codecs = {"null", "gzipish", "bzip2ish", "transform+gzipish"};

  // A handful of workloads, each with one serial no-fault baseline, reused
  // across the soak so 200 jobs cost ~208 runs.
  constexpr int kWorkloads = 8;
  std::vector<Workload> workloads;
  std::vector<std::map<std::string, JobResult>> baselines(kWorkloads);
  for (int i = 0; i < kWorkloads; ++i) workloads.push_back(makeWorkload(rng));

  for (int job = 0; job < 200; ++job) {
    const int w = static_cast<int>(rng() % kWorkloads);
    const std::string codec = codecs[rng() % codecs.size()];
    const bool pipelined = rng() % 2 == 0;

    auto& baselineSlot = baselines[static_cast<std::size_t>(w)];
    if (baselineSlot.find(codec) == baselineSlot.end()) {
      JobConfig serial;
      serial.intermediate_codec = codec;
      baselineSlot.emplace(
          codec, runWordCount(workloads[static_cast<std::size_t>(w)], serial, /*serial=*/true));
    }
    const JobResult& baseline = baselineSlot.at(codec);

    JobConfig config;
    config.intermediate_codec = codec;
    config.max_task_attempts = 3;
    config.shuffle_retry.enabled = true;
    config.shuffle_retry.max_attempts = 4;
    config.shuffle_retry.base_backoff_us = 10;
    config.shuffle_retry.max_backoff_us = 500;
    config.shuffle_retry.seed = rng();

    // Fault sites only exist on the pipelined data path; serial jobs soak
    // the oracle itself across the codec matrix without injection.
    std::optional<scishuffle::testing::FaultInjector> faults;
    if (pipelined) {
      faults.emplace(randomPlan(rng));
      config.fault_injector = &*faults;
    }

    const JobResult result =
        runWordCount(workloads[static_cast<std::size_t>(w)], config, /*serial=*/!pipelined);
    SCOPED_TRACE(::testing::Message()
                 << "job " << job << " (codec " << codec << ", pipelined " << pipelined
                 << ", workload " << w << ", seed " << seed
                 << "); replay with SCISHUFFLE_PROP_SEED=" << seed);
    ASSERT_EQ(result.outputs, baseline.outputs) << "diverged from the serial baseline";
    // Recovered faults leave no trace in the bytes: same segments, same
    // shuffle, same merge passes.
    ASSERT_EQ(scishuffle::testing::segmentByteCounts(result),
              scishuffle::testing::segmentByteCounts(baseline));
  }
}

}  // namespace
}  // namespace scishuffle::hadoop
