// Shared declarations of the shuffle-path benchmark driver (see README.md).
//
// The driver runs one workload per process. `--trace 0` measures the
// end-to-end metrics of a timed closed loop of jobs; `--trace 1` re-executes
// the workload's job layer by layer through the library's public calls and
// reports the per-layer ledger. Nothing here reaches into src/ internals.
#pragma once

#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "grid/dataset.h"
#include "hadoop/runtime.h"
#include "scikey/sliding_query.h"
#include "service/job_service.h"

namespace perfbench {

using scishuffle::u64;
using scishuffle::hadoop::JobConfig;
using scishuffle::hadoop::JobResult;
using scishuffle::hadoop::MapTask;
using scishuffle::hadoop::ReduceFn;

/// The 2-core budget. Every workload sets each thread count explicitly and
/// never passes 0 (= hardware concurrency): with the defaults a job kept 3.5
/// cores busy on a 4-core host and its wall time spread ~30 %.
struct ThreadBudget {
  int map_slots = 2;
  int reduce_slots = 2;
  int codec_threads = 2;
  int service_slots = 2;      // JobService::max_concurrent_jobs
  int service_in_flight = 4;  // closed-loop client depth: 2 per slot
  int dist_workers = 2;
};
inline constexpr ThreadBudget kThreads{};

/// Input sizes; `tiny` is the self-test size.
struct Sizes {
  long long side = 0;               // sliding-median grid is side x side
  int mappers = 0;
  int reducers = 0;
  std::vector<long long> slab_dims;  // 3-D slab grid, last dimension reduced
  int wc_maps = 0;
  long wc_words = 0;
};
Sizes sizesFor(bool tiny);

enum class Workload { kMedianPointXform, kMedianAggNull, kSlabServiceGzip, kDistWordcount };
Workload parseWorkload(const std::string& name);
const char* workloadName(Workload w);

/// A runnable job: the three runJob inputs. The closures may reference the
/// grid in JobInputs, which must outlive them.
struct JobParts {
  JobConfig config;
  std::vector<MapTask> tasks;
  ReduceFn reduce;
  /// Router-side key-split counts (aggregate keys); null otherwise.
  std::shared_ptr<scishuffle::hadoop::Counters> routing_counters;
};

/// The generated inputs of one workload plus its built job and its oracle.
struct JobInputs {
  Workload workload;
  Sizes sizes;
  std::unique_ptr<scishuffle::grid::Variable> grid;  // stable address for the closures
  std::shared_ptr<scishuffle::scikey::CurveSpace> space;
  JobParts job;
  /// Arguments that rebuild the identical job in a worker process.
  std::vector<std::string> dist_args;
};

/// Generates the workload's input from `seed` and builds its job.
std::unique_ptr<JobInputs> makeInputs(Workload w, u64 seed, bool tiny);

/// True when `result` equals the workload's oracle: slidingOracle,
/// slabOracle, or an in-process runJob of the registered wordcount workload.
bool matchesOracle(const JobInputs& in, const JobResult& result);

/// Name under which every benchmark job is registered for distributed runs.
inline constexpr const char* kDistWorkloadName = "perfbench";
/// Registers kDistWorkloadName (coordinator and worker processes alike).
void registerDistWorkload();
/// Runs `in`'s job across kThreads.dist_workers forked copies of this binary.
JobResult runDistributed(const JobInputs& in, const std::filesystem::path& workDir,
                         int* workersSpawned);

/// Counters that must repeat exactly between jobs of one seed.
std::map<std::string, u64> recordCounters(const JobResult& r);

// ---- measurement helpers -------------------------------------------------

double nowS();
double cpuSelfS();      // user+sys of this process (all threads)
double cpuChildrenS();  // user+sys of reaped children
double median(std::vector<double> v);
double procStatusMb(const char* field);  // "VmHWM:", "VmRSS:"

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<Metric> metrics;
  /// Host record (nproc, load, thread settings, busy cores), printed on its
  /// own line before the result so an unsteady run can be traced to the host.
  std::map<std::string, double> host;
};

struct RunOptions {
  Workload workload;
  u64 seed = 1;
  double seconds = 10;
  bool tiny = false;
  std::filesystem::path work_dir;
  double start_s = 0;  // process start (first line of main)
};

/// The JobService every service-path measurement uses: kThreads slots and
/// codec threads, and a memory budget far above a steady run so the
/// governor runs but never throttles.
std::unique_ptr<scishuffle::service::JobService> makeService(const std::filesystem::path& workDir);

/// One finished service job: its lifecycle record, and its result (null when
/// the job failed or was rejected).
using ServiceDoneFn =
    std::function<void(const scishuffle::service::JobStatus&, const JobResult*)>;

/// Closed loop: keeps `inFlight` copies of `job` submitted, submits the next
/// copy as soon as any of them finishes while `keepGoing()` holds, and hands
/// every completion to `onDone`.
void serviceClosedLoop(scishuffle::service::JobService& svc, const JobParts& job, int inFlight,
                       const std::function<bool()>& keepGoing, const ServiceDoneFn& onDone);

double loadAvg1m();
/// nproc, the given load average, a host speed probe, and the thread
/// settings `w` uses.
std::map<std::string, double> hostRecord(Workload w, double loadAtStart);

RunResult runEndToEnd(const RunOptions& opt);
RunResult runLayers(const RunOptions& opt);

}  // namespace perfbench
