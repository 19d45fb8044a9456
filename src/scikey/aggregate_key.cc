#include "scikey/aggregate_key.h"

#include <algorithm>

#include "hadoop/counters.h"
#include "scikey/simple_key.h"

namespace scishuffle::scikey {

namespace {

void appendBigEndian128(Bytes& out, sfc::CurveIndex v) {
  for (int shift = 120; shift >= 0; shift -= 8) {
    out.push_back(static_cast<u8>(v >> shift));
  }
}

sfc::CurveIndex readBigEndian128(ByteSpan data, std::size_t offset) {
  sfc::CurveIndex v = 0;
  for (int i = 0; i < 16; ++i) v = (v << 8) | data[offset + static_cast<std::size_t>(i)];
  return v;
}

void appendBigEndian64(Bytes& out, u64 v) {
  for (int shift = 56; shift >= 0; shift -= 8) out.push_back(static_cast<u8>(v >> shift));
}

u64 readBigEndian64(ByteSpan data, std::size_t offset) {
  u64 v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | data[offset + static_cast<std::size_t>(i)];
  return v;
}

}  // namespace

Bytes serializeAggregateKey(const AggregateKey& key) {
  Bytes out;
  out.reserve(kAggregateKeySize);
  appendSortableI32(out, key.var);
  appendBigEndian128(out, key.start);
  appendBigEndian64(out, key.count);
  return out;
}

AggregateKey deserializeAggregateKey(ByteSpan data) {
  checkFormat(data.size() == kAggregateKeySize, "bad aggregate key size");
  AggregateKey key;
  key.var = readSortableI32(data, 0);
  key.start = readBigEndian128(data, 4);
  key.count = readBigEndian64(data, 20);
  return key;
}

std::pair<hadoop::KeyValue, hadoop::KeyValue> splitAggregateRecord(const AggregateKey& key,
                                                                   ByteSpan valueBlob,
                                                                   sfc::CurveIndex at,
                                                                   std::size_t valueSize) {
  check(at > key.start && at < key.end(), "split point outside key");
  check(valueBlob.size() == key.count * valueSize, "value blob size mismatch");
  const u64 leftCount = static_cast<u64>(at - key.start);

  const AggregateKey leftKey{key.var, key.start, leftCount};
  const AggregateKey rightKey{key.var, at, key.count - leftCount};
  const std::size_t cut = static_cast<std::size_t>(leftCount) * valueSize;

  hadoop::KeyValue left{serializeAggregateKey(leftKey),
                        Bytes(valueBlob.begin(), valueBlob.begin() + static_cast<std::ptrdiff_t>(cut))};
  hadoop::KeyValue right{serializeAggregateKey(rightKey),
                         Bytes(valueBlob.begin() + static_cast<std::ptrdiff_t>(cut), valueBlob.end())};
  return {std::move(left), std::move(right)};
}

PartitionTable PartitionTable::ofCells(std::vector<sfc::CurveIndex> cells,
                                       sfc::CurveIndex indexCount, int numPartitions) {
  check(numPartitions >= 1, "need at least one partition");
  const u64 n = static_cast<u64>(numPartitions);
  const u64 total = cells.size();
  std::vector<sfc::CurveIndex> starts;
  starts.reserve(n - 1);
  // Successive selections: after each nth_element, every later rank lies in
  // the suffix past the one just placed.
  auto from = cells.begin();
  for (u64 k = 1; k < n; ++k) {
    const u64 rank = (total * k + n - 1) / n;
    if (rank >= total) {
      starts.push_back(indexCount);
      continue;
    }
    const auto at = cells.begin() + static_cast<std::ptrdiff_t>(rank);
    std::nth_element(from, at, cells.end());
    starts.push_back(*at);
    from = at;
  }
  return PartitionTable(std::move(starts), indexCount);
}

PartitionTable PartitionTable::ofDomain(const CurveSpace& space, int numPartitions) {
  std::vector<sfc::CurveIndex> cells;
  cells.reserve(static_cast<std::size_t>(space.domain().volume()));
  space.domain().forEachCell([&](const grid::Coord& c) { cells.push_back(space.encode(c)); });
  return ofCells(std::move(cells), space.indexCount(), numPartitions);
}

PartitionTable::PartitionTable(std::vector<sfc::CurveIndex> starts, sfc::CurveIndex indexCount)
    : starts_(std::move(starts)), indexCount_(indexCount) {
  check(std::is_sorted(starts_.begin(), starts_.end()), "partition starts must not decrease");
  check(starts_.empty() || starts_.back() <= indexCount_, "partition start outside space");
}

sfc::CurveIndex PartitionTable::start(int k) const {
  check(k >= 0 && k <= numPartitions(), "partition out of range");
  if (k == 0) return 0;
  return k == numPartitions() ? indexCount_ : starts_[static_cast<std::size_t>(k - 1)];
}

int PartitionTable::partitionOf(sfc::CurveIndex index) const {
  check(index < indexCount_, "index outside space");
  return static_cast<int>(std::upper_bound(starts_.begin(), starts_.end(), index) -
                          starts_.begin());
}

hadoop::RouteFn aggregateRangeRouter(PartitionTable table, std::size_t valueSize,
                                     hadoop::Counters* counters) {
  return [table = std::move(table), valueSize, counters](hadoop::KeyValue&& record,
                                                         int numPartitions) {
    check(numPartitions == table.numPartitions(), "router built for another reducer count");
    std::vector<std::pair<int, hadoop::KeyValue>> out;
    AggregateKey key = deserializeAggregateKey(record.key);
    check(key.end() <= table.indexCount(), "index outside space");
    Bytes blob = std::move(record.value);

    // Peel partition-sized prefixes off the front until the key no longer
    // straddles a boundary.
    for (;;) {
      const int part = table.partitionOf(key.start);
      const sfc::CurveIndex boundary = table.start(part + 1);  // > key.start
      if (key.end() <= boundary) {
        out.emplace_back(part, hadoop::KeyValue{serializeAggregateKey(key), std::move(blob)});
        break;
      }
      auto [left, right] = splitAggregateRecord(key, blob, boundary, valueSize);
      if (counters != nullptr) counters->add(hadoop::counter::kKeySplitsRouting, 1);
      out.emplace_back(part, std::move(left));
      key = deserializeAggregateKey(right.key);
      blob = std::move(right.value);
    }
    return out;
  };
}

hadoop::RouteFn simpleKeyRangeRouter(std::shared_ptr<const CurveSpace> space,
                                     PartitionTable table) {
  return [space = std::move(space), table = std::move(table)](hadoop::KeyValue&& record,
                                                              int numPartitions) {
    check(numPartitions == table.numPartitions(), "router built for another reducer count");
    const SimpleKey key =
        deserializeSimpleKey(record.key, VariableTag::kIndex, space->domain().rank());
    const int p = table.partitionOf(space->encode(key.coords));
    std::vector<std::pair<int, hadoop::KeyValue>> out;
    out.emplace_back(p, std::move(record));
    return out;
  };
}

}  // namespace scishuffle::scikey
