// Aggregate keys (§IV): a contiguous range of space-filling-curve indices,
// per variable, standing for `count` simple keys whose values are packed in
// curve order inside the record's value. Constant 28-byte serialization
// regardless of how many cells it covers — the "(corner, size)" constant
// overhead of §I, realized on the curve.
//
// Layout (all big-endian, var offset-binary) so that the engine's default
// lexicographic byte order equals (var, start, count) order:
//   [4B var][16B start index][8B count]
#pragma once

#include <memory>
#include <vector>

#include "hadoop/types.h"
#include "scikey/curve_space.h"
#include "sfc/curve.h"

namespace scishuffle::scikey {

struct AggregateKey {
  i32 var = 0;
  sfc::CurveIndex start = 0;
  u64 count = 0;

  sfc::CurveIndex end() const { return start + count; }

  bool operator==(const AggregateKey&) const = default;
};

constexpr std::size_t kAggregateKeySize = 4 + 16 + 8;

Bytes serializeAggregateKey(const AggregateKey& key);
AggregateKey deserializeAggregateKey(ByteSpan data);

/// Splits an aggregate record at curve index `at` (start < at < end): returns
/// the two halves with the packed value blob divided proportionally.
/// valueSize is the per-cell serialized value width.
std::pair<hadoop::KeyValue, hadoop::KeyValue> splitAggregateRecord(const AggregateKey& key,
                                                                   ByteSpan valueBlob,
                                                                   sfc::CurveIndex at,
                                                                   std::size_t valueSize);

/// The range partition of a job's curve index space [0, indexCount) into
/// contiguous chunks, one per reducer. Split points are equal-count
/// quantiles of the cells that exist: with `idx` the sorted curve indices of
/// the N domain cells, partition k (1 <= k < n) starts at idx[ceil(N*k/n)],
/// or at indexCount when that rank is >= N (an empty partition). A domain
/// that fills its lattice gets the uniform split ceil(indexCount*k/n).
class PartitionTable {
 public:
  /// Equal-count split of `cells` (curve indices of every cell, any order).
  static PartitionTable ofCells(std::vector<sfc::CurveIndex> cells, sfc::CurveIndex indexCount,
                                int numPartitions);
  /// ofCells over every cell of the space's domain.
  static PartitionTable ofDomain(const CurveSpace& space, int numPartitions);

  /// Explicit starts of partitions 1..n-1: non-decreasing, each <= indexCount.
  /// Equal starts leave the partitions between them empty.
  PartitionTable(std::vector<sfc::CurveIndex> starts, sfc::CurveIndex indexCount);

  int numPartitions() const { return static_cast<int>(starts_.size()) + 1; }
  sfc::CurveIndex indexCount() const { return indexCount_; }

  /// First index of partition k: 0 for k = 0, indexCount for k = numPartitions.
  sfc::CurveIndex start(int k) const;

  /// The partition whose range holds `index` (< indexCount).
  int partitionOf(sfc::CurveIndex index) const;

 private:
  std::vector<sfc::CurveIndex> starts_;
  sfc::CurveIndex indexCount_;
};

/// Router for aggregate-key jobs: routes by the table and splits any
/// aggregate record straddling a partition boundary (§IV-B case 1).
/// Increments KEY_SPLITS_ROUTING on the supplied counters for every cut.
hadoop::RouteFn aggregateRangeRouter(PartitionTable table, std::size_t valueSize,
                                     hadoop::Counters* counters);

/// Router for simple-key jobs over `space`: routes each cell by its curve
/// index through the same table, so both key configurations land a cell on
/// the same reducer (apples-to-apples shuffle).
hadoop::RouteFn simpleKeyRangeRouter(std::shared_ptr<const CurveSpace> space,
                                     PartitionTable table);

}  // namespace scishuffle::scikey
