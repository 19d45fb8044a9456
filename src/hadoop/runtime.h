// Job runtime: executes map tasks on map slots, shuffles materialized
// segments to reducers, merges, and drives the reduce-side grouper —
// the full data path of the paper's Fig. 1, steps 1-7.
//
// One job driver runs every pipelined job, in-process or distributed. It owns
// everything after map output exists: the codec pool, the ShuffleServer, the
// reducers' fetch -> retry -> verify -> overflow loop into executeReduceTask,
// PhaseTimings, and the job's telemetry. What produces the map output is a
// MapSide plugged into it: runJob's map-slot pool around executeMapTask, or
// the distributed coordinator's scheduler and fetch pump
// (service/coordinator.h). runJobSerial stays beside it only as the
// bit-identity test oracle: the same segment format and reduce side behind a
// map barrier and a single-threaded copy loop.
#pragma once

#include <atomic>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <vector>

#include "hadoop/counters.h"
#include "hadoop/job.h"
#include "hadoop/spill.h"
#include "obs/metrics.h"

namespace scishuffle {
class Codec;
class ThreadPool;
}

namespace scishuffle::hadoop {

class ShuffleServer;

/// A map task is a closure over its input split; it emits intermediate
/// key/value pairs through the provided EmitFn.
struct MapTask {
  std::function<void(const EmitFn& emit)> run;
};

/// Wall-clock phase durations measured during the run (microseconds).
/// These are *local machine* timings; the cluster simulator (src/cluster)
/// projects per-task CPU seconds and byte counts onto the paper's 5-node
/// setup instead, and simfidelity_test holds its phase times against these.
///
/// runJob: reducers fetch while maps still run, so shuffle_us is the
/// first-publish..last-fetch window, shuffle_overlap_us is the part of that
/// window hidden under the map phase, and map_phase_us + reduce_phase_us ~=
/// job wall clock (reduce_phase_us is the tail after the last map finished).
/// runJobSerial: the three phases are disjoint and sum to the job wall clock,
/// and shuffle_overlap_us stays 0.
struct PhaseTimings {
  u64 map_phase_us = 0;        // all map tasks, wall time of the phase
  u64 shuffle_us = 0;          // segment hand-off window
  u64 reduce_phase_us = 0;     // merge + reduce, wall time of the phase
  u64 shuffle_overlap_us = 0;  // shuffle wall time overlapped with the map phase
};

/// Per-map-task record used by the event-driven cluster simulator: how much
/// CPU the task burned locally and how many materialized bytes it produced
/// for each reducer.
struct MapTaskStats {
  u64 cpu_us = 0;  // map function + sort + codec
  std::vector<u64> segment_bytes;
};

struct ReduceTaskStats {
  u64 cpu_us = 0;  // decompress + group/split + reduce
  u64 shuffled_bytes = 0;
  u64 merge_materialized_bytes = 0;
  u64 output_bytes = 0;
  /// Streaming-merge decoded-bytes high-water mark: bounded by
  /// O(segments x block size) instead of total shuffled bytes.
  u64 merge_resident_peak_bytes = 0;
};

struct JobResult {
  /// Final output, per reducer, in reduce-emit order (step 7's HDFS write).
  std::vector<std::vector<KeyValue>> outputs;
  Counters counters;
  PhaseTimings timings;
  std::vector<MapTaskStats> map_tasks;
  std::vector<ReduceTaskStats> reduce_tasks;
  /// Structured observability snapshot: always carries the counter map; with
  /// JobConfig::collect_histograms it also carries per-stage latency/size
  /// histograms folded from the job's spans. Serialized by jobReportJson().
  obs::JobTelemetry telemetry;
};

/// Thrown by runJob when JobContext::cancelled flipped true before the job
/// finished (and by JobService::takeResult for a cancelled job).
struct JobCancelledError : std::runtime_error {
  JobCancelledError() : std::runtime_error("job cancelled") {}
};

/// Execution context a hosting service (src/service/) threads through runJob
/// so concurrent jobs share infrastructure instead of each building their
/// own. All fields optional; a default JobContext (or the 3-arg overload)
/// reproduces the standalone single-job behavior exactly.
struct JobContext {
  /// Shared per-block codec pool. nullptr = the job owns a private pool
  /// sized by JobConfig::codec_threads (the standalone behavior).
  ThreadPool* codec_pool = nullptr;
  /// Nonzero tag routes this job's spans and metric events to the recorder/
  /// stream bound to the tag (io/task_tag.h + bindJobTrace/bindJobMetrics)
  /// instead of the process-global slots, so concurrent jobs' telemetry
  /// stays separated.
  u64 job_tag = 0;
  /// Cooperative cancellation: polled at task boundaries; when it flips true
  /// the job stops scheduling work and runJob throws JobCancelledError.
  /// (The service additionally aborts the live ShuffleServer to unblock
  /// fetchers immediately.)
  const std::atomic<bool>* cancelled = nullptr;
  /// Shuffle backpressure seeds (ShuffleServer::setPendingBytesLimit /
  /// setOverflowDir); the governor may tighten the limit later through the
  /// attach hook. 0 / empty = unbounded, no overflow.
  u64 shuffle_pending_limit_bytes = 0;
  std::filesystem::path shuffle_overflow_dir;
  /// Called with the job's live ShuffleServer right after construction /
  /// right before destruction — the memory governor attaches here to adjust
  /// the pending-bytes limit while the job runs.
  std::function<void(ShuffleServer&)> attach_shuffle;
  std::function<void(ShuffleServer&)> detach_shuffle;
};

/// One map task's materialized result: the per-reducer segments plus the
/// stats and counter deltas the caller folds into its job-level aggregates.
/// The building block both the in-process runtime and the multi-process
/// worker (src/service/worker.h) execute tasks through — re-executing a task
/// from the same MapTask closure reproduces these bytes exactly, which is
/// what makes worker-death recovery bit-identical.
struct MapTaskExecution {
  MapOutput output;
  MapTaskStats stats;
  Counters counters;
};

/// Runs one map task with the configured retry budget (a failed attempt is
/// discarded wholesale and re-executed). Throws the last attempt's error
/// after config.max_task_attempts.
MapTaskExecution executeMapTask(const JobConfig& config, const Codec* codec,
                                ThreadPool* codecPool, const MapTask& task,
                                std::size_t taskIndex);

/// One reduce task's result. stats carries cpu/merge/output byte fields;
/// shuffled_bytes stays 0 — the transport that delivered the segments
/// accounts for it.
struct ReduceTaskExecution {
  std::vector<KeyValue> output;
  ReduceTaskStats stats;
  Counters counters;
};

/// Merges `segments` (slotted by map index) and runs the grouper + reduce
/// function with the configured retry budgets. Corrupt-data (FormatError)
/// attempts get the larger of task and shuffle retry budgets; per-attempt
/// corruption detections are recorded into *retryCounters when provided (so
/// they survive even if the task ultimately fails). Throws
/// RetryExhaustedError (site block.decode) or the last attempt's error.
ReduceTaskExecution executeReduceTask(const JobConfig& config, const Codec* codec,
                                      ThreadPool* codecPool, const ReduceFn& reduce,
                                      const std::vector<Bytes>& segments, int reducer,
                                      Counters* retryCounters = nullptr);

/// Where a map side delivers its work (see MapSide::run).
struct MapSideSink {
  /// The job's live shuffle: each map task's segments are published here
  /// exactly once.
  ShuffleServer& server;
  /// Task m's MapTaskStats go to result.map_tasks[m] (pre-sized to
  /// MapSide::numTasks()) and its counter deltas to result.counters
  /// (thread-safe). The driver owns every other field.
  JobResult& result;
  /// The job's intermediate codec (nullptr = "null") and codec pool, for a
  /// map side that executes its tasks in this process.
  const Codec* codec;
  ThreadPool& codec_pool;
};

/// The seam between the job driver and whatever executes map tasks.
class MapSide {
 public:
  virtual ~MapSide() = default;

  virtual std::size_t numTasks() const = 0;

  /// Runs once inside the job's telemetry scope, before the job clock starts,
  /// so its cost stays out of PhaseTimings (the coordinator forks its workers
  /// here; their start-up and registration fall inside the map phase).
  virtual void prepare() {}

  /// Publishes every map task's segments into sink.server and records each
  /// task's stats and counters in sink.result; returns once every task has
  /// published. On failure throws its first error: the driver then aborts
  /// the shuffle so blocked reducers unwind, and rethrows it. No thread this
  /// starts may touch the sink after it returns or throws — the driver
  /// destroys the server soon after.
  virtual void run(const MapSideSink& sink) = 0;
};

/// Runs a complete MapReduce job. Thread-safe hooks required: key_less,
/// router and combiner run concurrently across tasks.
JobResult runJob(const JobConfig& config, const std::vector<MapTask>& mapTasks,
                 const ReduceFn& reduce);

/// Service entry point: same job, executed under a JobContext (shared codec
/// pool, task-tag telemetry routing, cooperative cancel, governor-managed
/// shuffle backpressure). `ctx` may be nullptr.
JobResult runJob(const JobConfig& config, const std::vector<MapTask>& mapTasks,
                 const ReduceFn& reduce, const JobContext* ctx);

/// The job driver with a caller-supplied map side: the same pipelined job
/// and telemetry as above, with map tasks executed wherever `mapSide` runs
/// them.
JobResult runJob(const JobConfig& config, MapSide& mapSide, const ReduceFn& reduce,
                 const JobContext* ctx = nullptr);

/// Bit-identity test oracle: the same job behind a map barrier, then a
/// single-threaded copy loop (`shuffle_copy`) and the reduce pool, with no
/// codec pool and no ShuffleServer (so no fetch retry, verify or overflow).
/// Segments are the same block-framed bytes, so outputs, record counters and
/// the materialized, shuffled, merge-pass and per-segment bytes equal runJob's.
JobResult runJobSerial(const JobConfig& config, const std::vector<MapTask>& mapTasks,
                       const ReduceFn& reduce);

}  // namespace scishuffle::hadoop
