// What the bit-identity tests compare between the serial oracle
// (hadoop::runJobSerial) and every other way of running the same job:
// pipelined, through a JobService, or across worker processes. Besides the
// reduce outputs, that is the record counters and the byte counts the segment
// format fixes.
#pragma once

#include <map>
#include <string>

#include "hadoop/runtime.h"

namespace scishuffle::testing {

/// Record-level counters: every counter that is neither CPU time nor bytes.
inline std::map<std::string, u64> recordCounters(const hadoop::JobResult& result) {
  std::map<std::string, u64> records;
  for (const auto& [name, value] : result.counters.snapshot()) {
    if (name.find("CPU_US") == std::string::npos && name.find("BYTES") == std::string::npos) {
      records[name] = value;
    }
  }
  return records;
}

/// Raw map-output, materialized, shuffled and merge-pass bytes, plus each map
/// task's per-reducer segment sizes (as "map_tasks[m].segment_bytes[r]").
/// Segments seal blocks at fixed raw offsets, so none of these depends on the
/// codec pool or the schedule. REDUCE_MERGE_RESIDENT_PEAK_BYTES is left out: it
/// counts decode-ahead, which only a codec pool does.
inline std::map<std::string, u64> segmentByteCounts(const hadoop::JobResult& result) {
  std::map<std::string, u64> bytes;
  for (const char* name :
       {hadoop::counter::kMapOutputBytes, hadoop::counter::kMapOutputMaterializedBytes,
        hadoop::counter::kReduceShuffleBytes, hadoop::counter::kReduceMergeMaterializedBytes}) {
    bytes[name] = result.counters.get(name);
  }
  for (std::size_t m = 0; m < result.map_tasks.size(); ++m) {
    const auto& sizes = result.map_tasks[m].segment_bytes;
    for (std::size_t r = 0; r < sizes.size(); ++r) {
      bytes["map_tasks[" + std::to_string(m) + "].segment_bytes[" + std::to_string(r) + "]"] =
          sizes[r];
    }
  }
  return bytes;
}

}  // namespace scishuffle::testing
