// Exact IFile byte counts of the paper's per-point and aggregate key
// representations of a 2-D grid variable (E1, §I; E7, Fig. 8). Shared by
// bench_intro_overhead, bench_fig8_aggregation and the tier-1 fidelity gate
// (tests/fidelity_test.cc), so the gate pins the numbers the benches print.
//
// Files are written uncompressed through hadoop::IFileWriter: per record
// vint(keyLen) + vint(valueLen) + key + value, then the 6-byte end marker and
// checksum (DESIGN.md §3).
#pragma once

#include <algorithm>
#include <string>

#include "grid/dataset.h"
#include "hadoop/ifile.h"
#include "scikey/aggregator.h"
#include "scikey/curve_space.h"
#include "scikey/simple_key.h"

namespace scishuffle::bench {

/// Byte breakdown of one IFile.
struct IFileSizes {
  u64 records = 0;
  u64 keys = 0;
  u64 values = 0;
  u64 file = 0;  // keys + values + per-record framing + end marker + checksum
  u64 overhead() const { return file - keys - values; }
};

/// Every cell of the 2-D variable `v` keyed per point: a SimpleKey over the
/// 4-D (1, 1, rows, cols) domain that names the variable by index or by
/// `name`, as `tag` says.
inline IFileSizes perPointKeyFile(const grid::Variable& v, const std::string& name,
                                  scikey::VariableTag tag) {
  hadoop::IFileWriter writer(nullptr);
  IFileSizes sizes;
  const grid::Box domain(grid::Coord(4, 0), {1, 1, v.shape().dim(0), v.shape().dim(1)});
  domain.forEachCell([&](const grid::Coord& c) {
    const Bytes key = serializeSimpleKey(scikey::SimpleKey{0, name, c}, tag);
    const Bytes value = v.serializedValueAt({c[2], c[3]});
    writer.append(key, value);
    sizes.keys += key.size();
    sizes.values += value.size();
    ++sizes.records;
  });
  sizes.file = writer.close().size();
  return sizes;
}

/// The same cells as aggregate (corner, size) keys naming Z-order curve
/// ranges over the variable's 2-D domain, with one Aggregator (one map task)
/// per band of rows out of `numSplits`.
inline IFileSizes aggregateKeyFile(const grid::Variable& v, int numSplits) {
  const i64 rows = v.shape().dim(0);
  const i64 cols = v.shape().dim(1);
  const grid::Box domain(grid::Coord(2, 0), {rows, cols});
  const scikey::CurveSpace space(sfc::CurveKind::kZOrder, domain);
  scikey::AggregatorConfig config;
  config.value_size = 4;
  config.flush_threshold_bytes = 256u << 20;

  hadoop::IFileWriter writer(nullptr);
  IFileSizes sizes;
  const i64 rowsPerSplit = (rows + numSplits - 1) / numSplits;
  for (int s = 0; s < numSplits; ++s) {
    const i64 lo = s * rowsPerSplit;
    const i64 hi = std::min<i64>(rows, lo + rowsPerSplit);
    if (lo >= hi) continue;
    scikey::Aggregator agg(space, config, [&](Bytes key, Bytes value) {
      writer.append(key, value);
      sizes.keys += key.size();
      sizes.values += value.size();
      ++sizes.records;
    });
    const grid::Box split({lo, 0}, {hi - lo, cols});
    split.forEachCell([&](const grid::Coord& c) { agg.add(0, c, v.serializedValueAt(c)); });
  }
  sizes.file = writer.close().size();
  return sizes;
}

}  // namespace scishuffle::bench
