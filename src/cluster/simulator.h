// Discrete-event cluster simulator: the repo's cluster model. The job really
// executes on this machine, so per-task CPU seconds are *measured* and byte
// counts are exact; the simulator replays them on a parameterized cluster
// (DESIGN.md §2). Tasks are scheduled FCFS onto slots pinned to nodes; each
// node's disk and NIC are serially-shared resources, so waves, stragglers,
// and link contention emerge instead of being averaged away.
//
// Timeline per the paper's Fig. 1:
//   map task   = CPU burst on a slot, then local disk write of its segments;
//   shuffle    = per-(mapper, reducer) transfer: source disk read, source
//                NIC, destination NIC, destination disk write — starting
//                when the mapper finishes (Hadoop overlaps shuffle with the
//                map phase);
//   reduce     = starts when all of the reducer's segments have landed:
//                extra merge passes (disk), then CPU, then output write.
//
// simJobFromResult's `scale` projects a laptop-sized run to the paper's
// dataset size by multiplying every byte count and CPU second (both linear in
// input cells for these workloads; Fig. 4 establishes it for the transform).
#pragma once

#include <string>
#include <vector>

#include "hadoop/runtime.h"

namespace scishuffle::cluster {

struct ClusterSpec {
  int nodes = 5;
  int map_slots = 10;      // total across the cluster
  int reduce_slots = 5;    // total across the cluster
  double disk_mb_per_s = 90.0;   // per node, sequential
  double net_mb_per_s = 110.0;   // per node (~1 GbE)
  /// Ratio of paper-era core speed to this machine (CPU seconds multiplier).
  double cpu_scale = 1.0;
};

/// Per-task workload description, scale-free (bytes + CPU seconds).
struct SimJob {
  struct MapTask {
    double cpu_s = 0;
    std::vector<u64> segment_bytes;  // per reducer

    /// Input read (step 1 of Fig. 1): bytes pulled from the DFS before the
    /// CPU burst, and the nodes holding a replica of the input block. Empty
    /// preferred_nodes = input is free (synthetic in-memory workloads).
    u64 input_bytes = 0;
    std::vector<int> preferred_nodes;
  };
  struct ReduceTask {
    double cpu_s = 0;
    u64 merge_bytes = 0;   // extra merge-pass bytes (read+written)
    u64 output_bytes = 0;  // final write
  };
  std::vector<MapTask> maps;
  std::vector<ReduceTask> reduces;

  /// When true, the scheduler prefers slots on nodes holding the task's
  /// input replicas (Hadoop's data locality); when false, tasks go to the
  /// earliest-free slot and often read their input across the network.
  bool honor_locality = true;
};

/// Builds a SimJob from a real run's per-task stats, multiplying CPU seconds
/// and byte counts by `scale` (cpu additionally by spec.cpu_scale).
SimJob simJobFromResult(const hadoop::JobResult& result, const ClusterSpec& spec, double scale);

struct SimOutcome {
  double map_phase_done_s = 0;     // last map task finished
  double shuffle_done_s = 0;       // last segment landed
  double total_s = 0;              // last reducer finished
  u64 local_input_bytes = 0;       // input read from a local replica
  u64 remote_input_bytes = 0;      // input pulled over the network
  std::vector<double> map_finish_s;
  std::vector<double> reduce_finish_s;

  std::string toString() const;
};

class EventSimulator {
 public:
  explicit EventSimulator(ClusterSpec spec) : spec_(spec) {}

  /// Runs the job to completion; deterministic.
  SimOutcome run(const SimJob& job) const;

  const ClusterSpec& spec() const { return spec_; }

 private:
  ClusterSpec spec_;
};

}  // namespace scishuffle::cluster
