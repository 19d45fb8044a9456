// Workload definitions: seeded inputs, the job each workload runs, its
// oracle, and the registration that lets worker processes rebuild the job.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "bench_util/bench_util.h"
#include "hadoop/counters.h"
#include "io/primitives.h"
#include "io/streams.h"
#include "scikey/slab_query.h"
#include "service/coordinator.h"
#include "service/workload.h"

namespace perfbench {

namespace hadoop = scishuffle::hadoop;
namespace scikey = scishuffle::scikey;
namespace service = scishuffle::service;

Sizes sizesFor(bool tiny) {
  Sizes s;
  if (tiny) {
    s.side = 24;
    s.mappers = 2;
    s.reducers = 2;
    s.slab_dims = {8, 8, 4};
    s.wc_maps = 2;
    s.wc_words = 500;
  } else {
    s.side = 256;
    s.mappers = 4;
    s.reducers = 4;
    s.slab_dims = {128, 128, 32};
    s.wc_maps = 8;
    s.wc_words = 125000;
  }
  return s;
}

namespace {

constexpr std::pair<Workload, const char*> kNames[] = {
    {Workload::kMedianPointXform, "median_point_xform"},
    {Workload::kMedianAggNull, "median_agg_null"},
    {Workload::kSlabServiceGzip, "slab_service_gzip"},
    {Workload::kDistWordcount, "dist_wordcount"},
};

scikey::SlidingQueryConfig slidingQuery(const Sizes& s) {
  scikey::SlidingQueryConfig q;
  q.window_radius = 1;  // the paper's 3x3 window
  q.num_mappers = s.mappers;
  q.op = scikey::CellOp::kMedian;
  return q;
}

scikey::SlabQueryConfig slabQuery(const Sizes& s) {
  scikey::SlabQueryConfig q;
  q.reduced_dims = {2};
  q.op = scikey::CellOp::kSum;
  q.num_mappers = s.mappers;
  q.use_combiner = true;
  return q;
}

std::vector<std::string> wordcountArgs(const Sizes& s) {
  return {std::to_string(s.wc_maps), std::to_string(s.wc_words), "gzipish"};
}

void pinThreads(JobConfig& c) {
  c.map_slots = kThreads.map_slots;
  c.reduce_slots = kThreads.reduce_slots;
  c.codec_threads = kThreads.codec_threads;
}

JobParts fromPrepared(scikey::PreparedJob p) {
  return JobParts{std::move(p.job), std::move(p.map_tasks), std::move(p.reduce),
                  std::move(p.routing_counters)};
}

}  // namespace

Workload parseWorkload(const std::string& name) {
  for (const auto& [w, n] : kNames) {
    if (name == n) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

const char* workloadName(Workload w) {
  for (const auto& [v, n] : kNames) {
    if (v == w) return n;
  }
  return "?";
}

std::unique_ptr<JobInputs> makeInputs(Workload w, u64 seed, bool tiny) {
  auto in = std::make_unique<JobInputs>();
  in->workload = w;
  in->sizes = sizesFor(tiny);
  in->dist_args = {workloadName(w), std::to_string(seed), tiny ? "tiny" : "full"};
  const Sizes& s = in->sizes;
  JobConfig base;
  base.num_reducers = s.reducers;
  pinThreads(base);
  const auto gridSeed = static_cast<scishuffle::u32>(seed);
  switch (w) {
    case Workload::kMedianPointXform:
    case Workload::kMedianAggNull: {
      in->grid = std::make_unique<scishuffle::grid::Variable>(
          scishuffle::bench::makeIntGrid("pressure", {s.side, s.side}, gridSeed));
      const bool point = w == Workload::kMedianPointXform;
      base.intermediate_codec = point ? "transform+gzipish" : "null";
      const scikey::SlidingQueryConfig q = slidingQuery(s);
      scikey::PreparedJob p = point ? scikey::buildSimpleSlidingJob(*in->grid, q, base)
                                    : scikey::buildAggregateSlidingJob(*in->grid, q, base);
      in->space = p.space;
      in->job = fromPrepared(std::move(p));
      break;
    }
    case Workload::kSlabServiceGzip: {
      std::vector<scishuffle::i64> dims(s.slab_dims.begin(), s.slab_dims.end());
      in->grid = std::make_unique<scishuffle::grid::Variable>(
          scishuffle::bench::makeIntGrid("windspeed", dims, gridSeed));
      base.intermediate_codec = "gzipish";
      in->job = fromPrepared(scikey::buildSimpleSlabJob(*in->grid, slabQuery(s), base));
      break;
    }
    case Workload::kDistWordcount: {
      // The registered workload fixes the input; the seed does not apply.
      service::Workload wl = service::buildWorkload("wordcount", wordcountArgs(s));
      pinThreads(wl.config);
      in->job = JobParts{std::move(wl.config), std::move(wl.map_tasks), std::move(wl.reduce), {}};
      break;
    }
  }
  return in;
}

bool matchesOracle(const JobInputs& in, const JobResult& result) {
  const Sizes& s = in.sizes;
  switch (in.workload) {
    case Workload::kMedianPointXform:
      return scikey::flattenSimpleOutputs(result, 2) ==
             scikey::slidingOracle(*in.grid, slidingQuery(s));
    case Workload::kMedianAggNull:
      return scikey::flattenAggregateOutputs(result, *in.space) ==
             scikey::slidingOracle(*in.grid, slidingQuery(s));
    case Workload::kSlabServiceGzip:
      return scikey::flattenSimpleOutputs(result, 2) == scikey::slabOracle(*in.grid, slabQuery(s));
    case Workload::kDistWordcount: {
      // Two oracles: a serial count of what the map tasks emit, which shares
      // no code with the shuffle, and the registered workload as registered,
      // run in-process, which the distributed job must match bit for bit.
      std::map<scishuffle::Bytes, scishuffle::i64> expected, got;
      for (const MapTask& t : in.job.tasks) {
        t.run([&](scishuffle::Bytes k, scishuffle::Bytes v) {
          scishuffle::MemorySource src(v);
          expected[k] += scishuffle::readI64(src);
        });
      }
      for (const auto& reducerOutput : result.outputs) {
        for (const auto& kv : reducerOutput) {
          scishuffle::MemorySource src(kv.value);
          if (!got.emplace(kv.key, scishuffle::readI64(src)).second) return false;
        }
      }
      const service::Workload wl = service::buildWorkload("wordcount", wordcountArgs(s));
      return got == expected &&
             hadoop::runJob(wl.config, wl.map_tasks, wl.reduce).outputs == result.outputs;
    }
  }
  return false;
}

void registerDistWorkload() {
  service::registerWorkload(kDistWorkloadName, [](const std::vector<std::string>& args) {
    if (args.size() != 3) throw std::invalid_argument("perfbench <workload> <seed> <tiny|full>");
    std::shared_ptr<JobInputs> in =
        makeInputs(parseWorkload(args[0]), std::stoull(args[1]), args[2] == "tiny");
    service::Workload wl;
    wl.config = in->job.config;
    wl.reduce = in->job.reduce;
    // Each task holds the inputs alive: the job's closures reference the grid.
    for (std::size_t i = 0; i < in->job.tasks.size(); ++i) {
      wl.map_tasks.push_back(
          MapTask{[in, i](const hadoop::EmitFn& emit) { in->job.tasks[i].run(emit); }});
    }
    return wl;
  });
}

JobResult runDistributed(const JobInputs& in, const std::filesystem::path& workDir,
                         int* workersSpawned) {
  service::DistributedConfig cfg;
  cfg.num_workers = kThreads.dist_workers;
  cfg.worker_command = {std::filesystem::read_symlink("/proc/self/exe").string(), "worker"};
  cfg.work_dir = workDir;
  // Generous liveness limits: a loaded host must not turn into a worker death.
  cfg.heartbeat_timeout_ms = 10'000;
  cfg.fetch_recv_timeout_ms = 10'000;
  cfg.transport_retry.enabled = true;
  cfg.transport_retry.max_attempts = 5;
  service::DistributedResult r = service::runDistributedJob(kDistWorkloadName, in.dist_args, cfg);
  if (workersSpawned != nullptr) *workersSpawned = r.workers_spawned;
  return std::move(r.job);
}

std::map<std::string, u64> recordCounters(const JobResult& r) {
  namespace c = hadoop::counter;
  std::map<std::string, u64> out;
  for (const char* name :
       {c::kMapOutputRecords, c::kMapOutputBytes, c::kMapOutputMaterializedBytes,
        c::kSpilledRecords, c::kCombineInputRecords, c::kCombineOutputRecords,
        c::kReduceInputRecords, c::kReduceInputGroups, c::kReduceOutputRecords,
        c::kKeySplitsOverlap, c::kAggregateFlushes}) {
    out[name] = r.counters.get(name);
  }
  return out;
}

// ---- measurement helpers -------------------------------------------------

double nowS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double rusageS(int who) {
  struct rusage u{};
  getrusage(who, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}
}  // namespace

double cpuSelfS() { return rusageS(RUSAGE_SELF); }
double cpuChildrenS() { return rusageS(RUSAGE_CHILDREN); }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double procStatusMb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = field;
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      std::istringstream fields(line.substr(prefix.size()));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

}  // namespace perfbench
