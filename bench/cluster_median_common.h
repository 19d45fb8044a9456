// Shared setup for the two cluster experiments (E6 §III-E codec run,
// E8 §IV-D aggregation run): a sliding 3x3 median over a grid of integers on
// a simulated 5-node cluster with 5 reducers and 10 map slots, projected to
// the paper's dataset size by the event simulator.
#pragma once

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_util/bench_util.h"
#include "cluster/simulator.h"
#include "hadoop/runtime.h"
#include "scikey/sliding_query.h"

namespace scishuffle::bench {

/// The grid actually executed locally (360^2 keeps every bench run fast).
constexpr i64 kLocalSide = 360;

/// Measured runs per configuration, after one discarded warm-up job: the
/// projection replays measured CPU seconds, which vary run to run.
constexpr int kRepeats = 5;

/// Paper run: intermediate data was 55.5 GB at 26 B/record and 9 emits/cell
/// => ~2.37e8 input cells. The scale factor projects local counters there.
constexpr double kPaperCells = 55.5e9 / (26.0 * 9.0);

inline double paperScale() {
  return kPaperCells / (static_cast<double>(kLocalSide) * static_cast<double>(kLocalSide));
}

inline cluster::ClusterSpec paperCluster() {
  cluster::ClusterSpec spec;
  spec.nodes = 5;
  spec.map_slots = 10;
  spec.reduce_slots = 5;
  return spec;
}

/// The median run (by projected runtime) of one configuration, with the
/// runtime range over all repeats.
struct RunOutcome {
  u64 materialized = 0;  // identical across repeats
  hadoop::Counters counters;
  cluster::SimOutcome simulated;
  double min_total_s = 0;
  double max_total_s = 0;
  std::vector<u64> reducer_bytes;  // shuffled bytes per reducer

  /// "20.0/20.0/20.0/20.0/20.0 %": each reducer's share of shuffled bytes.
  std::string reducerShares() const {
    u64 total = 0;
    for (const u64 b : reducer_bytes) total += b;
    const double scale = 100.0 / static_cast<double>(std::max<u64>(total, 1));
    std::string out;
    for (const u64 b : reducer_bytes) {
      if (!out.empty()) out += "/";
      out += fixed(static_cast<double>(b) * scale, 1);
    }
    return out + " %";
  }

  /// "13.3 min (12.1-15.0)": median projected runtime and its range.
  std::string runtime() const {
    return fixed(simulated.total_s / 60.0, 1) + " min (" + fixed(min_total_s / 60.0, 1) + "-" +
           fixed(max_total_s / 60.0, 1) + ")";
  }
};

inline RunOutcome runConfiguration(const grid::Variable& input, bool aggregate,
                                   const std::string& codec) {
  scikey::SlidingQueryConfig config;
  config.num_mappers = 10;

  hadoop::JobConfig base;
  base.num_reducers = 5;
  base.map_slots = 10;
  base.reduce_slots = 5;
  base.intermediate_codec = codec;

  scikey::PreparedJob job = aggregate ? buildAggregateSlidingJob(input, config, base)
                                      : buildSimpleSlidingJob(input, config, base);
  const cluster::ClusterSpec spec = paperCluster();
  hadoop::runJob(job.job, job.map_tasks, job.reduce);  // warm-up, discarded

  std::vector<RunOutcome> runs(kRepeats);
  for (RunOutcome& run : runs) {
    const auto result = hadoop::runJob(job.job, job.map_tasks, job.reduce);
    run.counters = result.counters;
    run.materialized = result.counters.get(hadoop::counter::kMapOutputMaterializedBytes);
    for (const auto& task : result.reduce_tasks) run.reducer_bytes.push_back(task.shuffled_bytes);
    run.simulated = cluster::EventSimulator(spec).run(
        cluster::simJobFromResult(result, spec, paperScale()));
    check(run.materialized == runs.front().materialized,
          "materialized bytes differ across repeats");
  }
  std::sort(runs.begin(), runs.end(), [](const RunOutcome& a, const RunOutcome& b) {
    return a.simulated.total_s < b.simulated.total_s;
  });
  RunOutcome median = runs[runs.size() / 2];
  median.min_total_s = runs.front().simulated.total_s;
  median.max_total_s = runs.back().simulated.total_s;
  return median;
}

}  // namespace scishuffle::bench
