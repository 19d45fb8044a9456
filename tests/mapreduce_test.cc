// End-to-end tests of the mini-Hadoop engine with classic workloads
// (word count, sum-by-key) across codec / combiner / spill / slot settings.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <string>
#include <tuple>

#include "compress/codec.h"
#include "hadoop/runtime.h"
#include "io/clock.h"
#include "testing_support.h"

namespace scishuffle::hadoop {
namespace {

using scishuffle::testing::toBytes;
using scishuffle::testing::toString;
using scishuffle::testing::encodeI64;
using scishuffle::testing::decodeI64;

/// Deterministic synthetic corpus: `docs` documents of `words` words drawn
/// from a small vocabulary.
std::vector<std::vector<std::string>> corpus(int docs, int words, u32 seed) {
  const std::vector<std::string> vocab = {"the",  "windspeed", "grid",   "key",  "value",
                                          "map",  "reduce",    "hadoop", "sci",  "curve"};
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, vocab.size() - 1);
  std::vector<std::vector<std::string>> out(static_cast<std::size_t>(docs));
  for (auto& doc : out) {
    doc.reserve(static_cast<std::size_t>(words));
    for (int w = 0; w < words; ++w) doc.push_back(vocab[pick(rng)]);
  }
  return out;
}

std::map<std::string, i64> expectedCounts(const std::vector<std::vector<std::string>>& docs) {
  std::map<std::string, i64> counts;
  for (const auto& doc : docs) {
    for (const auto& w : doc) ++counts[w];
  }
  return counts;
}

std::map<std::string, i64> actualCounts(const JobResult& result) {
  std::map<std::string, i64> counts;
  for (const auto& out : result.outputs) {
    for (const auto& kv : out) {
      const auto [it, inserted] = counts.emplace(toString(kv.key), decodeI64(kv.value));
      EXPECT_TRUE(inserted) << "key emitted by two reducers: " << toString(kv.key);
    }
  }
  return counts;
}

JobResult runWordCount(const std::vector<std::vector<std::string>>& docs, JobConfig config) {
  std::vector<MapTask> tasks;
  for (const auto& doc : docs) {
    tasks.push_back(MapTask{[&doc](const EmitFn& emit) {
      for (const auto& w : doc) emit(toBytes(w), encodeI64(1));
    }});
  }
  const ReduceFn reduce = [](const Bytes& key, std::vector<Bytes>& values, const EmitFn& emit) {
    i64 sum = 0;
    for (const auto& v : values) sum += decodeI64(v);
    emit(key, encodeI64(sum));
  };
  return runJob(config, tasks, reduce);
}

// (reducers, map slots, codec, use combiner, spill buffer bytes)
using EngineCase = std::tuple<int, int, std::string, bool, std::size_t>;

class EngineMatrix : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineMatrix, WordCountIsExact) {
  const auto& [reducers, slots, codec, useCombiner, spillBytes] = GetParam();
  const auto docs = corpus(9, 500, 1234);

  JobConfig config;
  config.num_reducers = reducers;
  config.map_slots = slots;
  config.intermediate_codec = codec;
  config.spill_buffer_bytes = spillBytes;
  if (useCombiner) {
    config.combiner = [](const Bytes& key, std::vector<Bytes>& values, const EmitFn& emit) {
      i64 sum = 0;
      for (const auto& v : values) sum += decodeI64(v);
      emit(key, encodeI64(sum));
    };
  }

  const JobResult result = runWordCount(docs, config);
  EXPECT_EQ(actualCounts(result), expectedCounts(docs));
  EXPECT_EQ(result.counters.get(counter::kMapOutputRecords), 9u * 500u);
  if (useCombiner) {
    EXPECT_LT(result.counters.get(counter::kReduceInputRecords),
              result.counters.get(counter::kMapOutputRecords));
  }
  // Conservation: everything materialized got shuffled.
  EXPECT_EQ(result.counters.get(counter::kMapOutputMaterializedBytes),
            result.counters.get(counter::kReduceShuffleBytes));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EngineMatrix,
    ::testing::Values(EngineCase{1, 1, "null", false, 16u << 20},
                      EngineCase{4, 3, "null", false, 16u << 20},
                      EngineCase{4, 3, "null", true, 16u << 20},
                      EngineCase{3, 2, "gzipish", false, 16u << 20},
                      EngineCase{3, 2, "gzipish", true, 4096},  // many spills
                      EngineCase{2, 4, "bzip2ish", false, 16u << 20},
                      EngineCase{5, 10, "transform+gzipish", false, 2048},
                      EngineCase{2, 2, "null", true, 1024}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      std::string codec = std::get<2>(info.param);
      for (auto& c : codec) {
        if (c == '+') c = '_';
      }
      return "r" + std::to_string(std::get<0>(info.param)) + "s" +
             std::to_string(std::get<1>(info.param)) + "_" + codec +
             (std::get<3>(info.param) ? "_comb" : "") + "_b" +
             std::to_string(std::get<4>(info.param));
    });

TEST(EngineTest, SortedOrderWithinReducer) {
  const auto docs = corpus(4, 300, 99);
  JobConfig config;
  config.num_reducers = 2;
  const JobResult result = runWordCount(docs, config);
  for (const auto& out : result.outputs) {
    for (std::size_t i = 1; i < out.size(); ++i) {
      EXPECT_TRUE(lexicographicLess(out[i - 1].key, out[i].key));
    }
  }
}

TEST(EngineTest, CustomRouterSplitsRecords) {
  // A router that duplicates each record to all partitions (degenerate
  // "aggregate key spanning every reducer").
  JobConfig config;
  config.num_reducers = 3;
  config.router = [](KeyValue&& kv, int parts) {
    std::vector<std::pair<int, KeyValue>> out;
    for (int p = 0; p < parts; ++p) out.emplace_back(p, kv);
    return out;
  };
  std::vector<MapTask> tasks{MapTask{[](const EmitFn& emit) {
    emit(toBytes("k"), encodeI64(5));
  }}};
  const ReduceFn reduce = [](const Bytes& key, std::vector<Bytes>& values, const EmitFn& emit) {
    emit(key, encodeI64(static_cast<i64>(values.size())));
  };
  const JobResult result = runJob(config, tasks, reduce);
  int nonEmpty = 0;
  for (const auto& out : result.outputs) {
    if (!out.empty()) ++nonEmpty;
  }
  EXPECT_EQ(nonEmpty, 3);
}

TEST(EngineTest, MergePassesTriggerWhenSegmentsExceedFactor) {
  // 30 mappers, merge factor 4 -> the reducer must run extra merge passes.
  // Keys tie across mappers and the reducer emits every value in arrival
  // order, so the outputs show the merge's tie order: extra passes must not
  // change it, and it must be the stable sort by key of every record in map
  // order.
  constexpr int kMaps = 30;
  std::vector<MapTask> tasks;
  std::vector<std::pair<std::string, i64>> expected;
  for (int m = 0; m < kMaps; ++m) {
    tasks.push_back(MapTask{[m](const EmitFn& emit) {
      emit(toBytes("key" + std::to_string(m % 7)), encodeI64(m));
    }});
    expected.emplace_back("key" + std::to_string(m % 7), m);
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  const ReduceFn reduce = [](const Bytes& key, std::vector<Bytes>& values, const EmitFn& emit) {
    for (const auto& v : values) emit(key, v);
  };
  const auto records = [](const JobResult& result) {
    std::vector<std::pair<std::string, i64>> out;
    for (const auto& kv : result.outputs.at(0)) {
      out.emplace_back(toString(kv.key), decodeI64(kv.value));
    }
    return out;
  };

  JobConfig config;
  config.num_reducers = 1;
  config.merge_factor = 4;
  config.map_slots = 8;
  const JobResult passes = runJob(config, tasks, reduce);
  EXPECT_GT(passes.counters.get(counter::kReduceMergePasses), 0u);
  EXPECT_GT(passes.counters.get(counter::kReduceMergeMaterializedBytes), 0u);

  config.merge_factor = kMaps;
  const JobResult single = runJob(config, tasks, reduce);
  EXPECT_EQ(single.counters.get(counter::kReduceMergePasses), 0u);

  EXPECT_EQ(passes.outputs, single.outputs);
  EXPECT_EQ(records(single), expected);
  EXPECT_EQ(records(passes), expected);
}

TEST(EngineTest, MergeFactorBelowTwoIsRejected) {
  // A merge pass over fewer than two segments never reduces their number.
  std::vector<MapTask> tasks;
  for (int m = 0; m < 3; ++m) {
    tasks.push_back(MapTask{[m](const EmitFn& emit) { emit(toBytes("k"), encodeI64(m)); }});
  }
  const ReduceFn reduce = [](const Bytes&, std::vector<Bytes>&, const EmitFn&) {};
  JobConfig config;
  config.num_reducers = 1;
  for (const int factor : {1, 0}) {
    config.merge_factor = factor;
    EXPECT_THROW(runJob(config, tasks, reduce), std::logic_error) << "merge_factor " << factor;
  }
}

TEST(EngineTest, MapperExceptionPropagates) {
  JobConfig config;
  std::vector<MapTask> tasks{MapTask{[](const EmitFn&) { throw std::runtime_error("boom"); }}};
  const ReduceFn reduce = [](const Bytes&, std::vector<Bytes>&, const EmitFn&) {};
  EXPECT_THROW(runJob(config, tasks, reduce), std::runtime_error);
}

TEST(EngineTest, FlakyMapTaskSucceedsWithRetries) {
  JobConfig config;
  config.max_task_attempts = 3;
  config.map_slots = 1;  // deterministic attempt ordering
  auto failures = std::make_shared<std::atomic<int>>(0);
  std::vector<MapTask> tasks{MapTask{[failures](const EmitFn& emit) {
    // First two attempts die *after* emitting — retries must discard the
    // partial output or the count would triple.
    emit(toBytes("k"), encodeI64(1));
    if (failures->fetch_add(1) < 2) throw std::runtime_error("transient");
  }}};
  const ReduceFn reduce = [](const Bytes& key, std::vector<Bytes>& values, const EmitFn& emit) {
    i64 sum = 0;
    for (const auto& v : values) sum += decodeI64(v);
    emit(key, encodeI64(sum));
  };
  const JobResult result = runJob(config, tasks, reduce);
  ASSERT_EQ(result.outputs[0].size(), 1u);
  EXPECT_EQ(decodeI64(result.outputs[0][0].value), 1);  // not 3: attempts were discarded
  EXPECT_EQ(failures->load(), 3);
}

TEST(EngineTest, FlakyReduceTaskSucceedsWithRetries) {
  JobConfig config;
  config.max_task_attempts = 2;
  auto failures = std::make_shared<std::atomic<int>>(0);
  std::vector<MapTask> tasks{MapTask{[](const EmitFn& emit) {
    emit(toBytes("a"), encodeI64(7));
  }}};
  const ReduceFn reduce = [failures](const Bytes& key, std::vector<Bytes>& values,
                                     const EmitFn& emit) {
    if (failures->fetch_add(1) < 1) throw std::runtime_error("transient");
    emit(key, values.front());
  };
  const JobResult result = runJob(config, tasks, reduce);
  ASSERT_EQ(result.outputs[0].size(), 1u);
  EXPECT_EQ(decodeI64(result.outputs[0][0].value), 7);
}

TEST(EngineTest, PersistentFailureStillFails) {
  JobConfig config;
  config.max_task_attempts = 3;
  std::vector<MapTask> tasks{MapTask{[](const EmitFn&) { throw std::runtime_error("fatal"); }}};
  const ReduceFn reduce = [](const Bytes&, std::vector<Bytes>&, const EmitFn&) {};
  EXPECT_THROW(runJob(config, tasks, reduce), std::runtime_error);
}

TEST(EngineTest, DiskBackedSpillsProduceIdenticalResults) {
  const auto docs = corpus(6, 400, 77);
  JobConfig memConfig;
  memConfig.num_reducers = 3;
  memConfig.spill_buffer_bytes = 2048;  // force several spills per task
  JobConfig diskConfig = memConfig;
  const testing::TempDir dir("scishuffle_spills");
  diskConfig.spill_dir = dir.path();

  const JobResult mem = runWordCount(docs, memConfig);
  const JobResult disk = runWordCount(docs, diskConfig);
  EXPECT_EQ(actualCounts(disk), actualCounts(mem));
  EXPECT_EQ(disk.counters.get(counter::kMapOutputMaterializedBytes),
            mem.counters.get(counter::kMapOutputMaterializedBytes));
  // Transient spill files are cleaned up after the merge.
  EXPECT_TRUE(std::filesystem::is_empty(dir.path()));
}

TEST(EngineTest, TaskCpuCountsEachSpillOnce) {
  // Without a codec pool every spill's sort and compression runs on this
  // thread, inside task.run. The task's cpu_us sums the map, sort and codec
  // windows, so a spill counted both in the map window and in its own
  // windows would exceed the CPU time the thread actually used. The combiner
  // keeps the final spill merge small, so that excess is not hidden by the
  // merge's uncounted decode work.
  registerBuiltinCodecs();
  const auto codec = CodecRegistry::instance().create("gzipish");
  JobConfig config;
  config.num_reducers = 3;
  config.spill_buffer_bytes = 4096;
  config.combiner = [](const Bytes& key, std::vector<Bytes>& values, const EmitFn& emit) {
    i64 sum = 0;
    for (const auto& v : values) sum += decodeI64(v);
    emit(key, encodeI64(sum));
  };
  const auto docs = corpus(1, 40000, 99);
  const MapTask task{[&docs](const EmitFn& emit) {
    for (const auto& w : docs[0]) emit(toBytes(w), encodeI64(1));
  }};

  const u64 threadStart = threadCpuNowUs();
  const MapTaskExecution exec = executeMapTask(config, codec.get(), nullptr, task, 0);
  const u64 threadCpu = threadCpuNowUs() - threadStart;

  // At least two buffers' worth of output: two or more spills mid-task.
  EXPECT_GE(exec.counters.get(counter::kMapOutputBytes), 2 * config.spill_buffer_bytes);
  EXPECT_GT(exec.counters.get(counter::kSortCpuUs) +
                exec.counters.get(counter::kCodecCompressCpuUs),
            0u);
  EXPECT_LE(exec.stats.cpu_us, threadCpu);
}

TEST(EngineTest, ReduceCpuCountsEachDecodeOnce) {
  // Without a codec pool the merge decodes every block on this thread, most
  // of them inside the reduce window. The task's cpu_us sums that window and
  // the codec's decode CPU, so a block counted in both would exceed the CPU
  // time the thread actually used.
  registerBuiltinCodecs();
  const auto codec = CodecRegistry::instance().create("gzipish");
  JobConfig config;
  config.num_reducers = 1;
  config.shuffle_block_bytes = 16u << 10;  // many blocks per segment
  const auto docs = corpus(4, 20000, 42);
  std::vector<Bytes> segments;
  for (std::size_t m = 0; m < docs.size(); ++m) {
    const MapTask task{[&doc = docs[m]](const EmitFn& emit) {
      for (const auto& w : doc) emit(toBytes(w), encodeI64(1));
    }};
    segments.push_back(executeMapTask(config, codec.get(), nullptr, task, m).output.segments[0]);
  }
  const ReduceFn reduce = [](const Bytes& key, std::vector<Bytes>& values, const EmitFn& emit) {
    i64 sum = 0;
    for (const auto& v : values) sum += decodeI64(v);
    emit(key, encodeI64(sum));
  };

  const u64 threadStart = threadCpuNowUs();
  const ReduceTaskExecution exec =
      executeReduceTask(config, codec.get(), nullptr, reduce, segments, 0);
  const u64 threadCpu = threadCpuNowUs() - threadStart;

  EXPECT_EQ(exec.counters.get(counter::kReduceInputRecords), 80000u);
  EXPECT_GT(exec.counters.get(counter::kCodecDecompressCpuUs), 0u);
  EXPECT_LE(exec.stats.cpu_us, threadCpu);
}

TEST(EngineTest, EmptyJobProducesEmptyOutputs) {
  JobConfig config;
  config.num_reducers = 2;
  const ReduceFn reduce = [](const Bytes&, std::vector<Bytes>&, const EmitFn&) {};
  const JobResult result = runJob(config, {}, reduce);
  EXPECT_EQ(result.outputs.size(), 2u);
  EXPECT_TRUE(result.outputs[0].empty());
  EXPECT_TRUE(result.outputs[1].empty());
}

}  // namespace
}  // namespace scishuffle::hadoop
