// Reduce-side merge: k-way merge of the IFile segments fetched from every
// mapper, with multi-pass "on-disk" merging when the segment count exceeds
// the merge factor (step 5 of Fig. 1: "possibly requiring multiple on-disk
// sort phases"). Intermediate passes re-materialize block-framed segments
// through the codec so their byte and CPU costs are accounted.
//
// Every segment is read through a BlockDecodeSource that holds only the
// current block (plus a one-block decode-ahead filled by the codec pool):
// peak decoded-bytes residency is O(num_segments x block size), reported via
// REDUCE_MERGE_RESIDENT_PEAK_BYTES. Heads are picked by key with the lowest
// segment index winning a tie, in the final merge and in every extra pass, and
// an extra pass merges adjacent segments in place, so records with equal keys
// reach the reducer in map order whatever the merge factor.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "compress/block_format.h"
#include "compress/codec.h"
#include "hadoop/counters.h"
#include "hadoop/ifile.h"
#include "hadoop/job.h"
#include "io/thread_pool.h"
#include "obs/sampler.h"

namespace scishuffle::hadoop {

/// KVStream over a merged set of sorted IFile segments.
class MergedSegmentStream final : public KVStream {
 public:
  /// `codecPool` (may be null) feeds block decode-ahead and the extra passes'
  /// per-block compression.
  MergedSegmentStream(std::vector<Bytes> segments, const Codec* codec, const JobConfig& config,
                      Counters& counters, ThreadPool* codecPool = nullptr);

  std::optional<KeyValue> next() override;

  /// Codec CPU spent so far decoding blocks on the calling thread: the share
  /// of CODEC_DECOMPRESS_CPU_US that the caller's thread-CPU clock also sees.
  u64 callerDecompressCpuUs() const;

 private:
  /// Streaming block-at-a-time reader over one segment, holding its next
  /// record.
  struct Head {
    std::unique_ptr<BlockDecodeSource> source;
    std::unique_ptr<IFileStreamReader> records;
    KeyValue kv;
  };

  /// Opens a head per segment, in order; empty segments retire at once.
  std::vector<Head> openHeads(std::span<const Bytes> segments);
  /// Index of the head with the smallest key; the lowest index wins a tie.
  std::size_t minHead(const std::vector<Head>& heads) const;
  /// Takes heads[index]'s record and advances it, retiring an exhausted head.
  KeyValue popHead(std::vector<Head>& heads, std::size_t index);
  /// Folds a finished reader's codec CPU and decoded-bytes peak into the totals.
  void retire(const BlockDecodeSource& source);
  /// Merges the `merge_factor` adjacent segments with the fewest bytes into
  /// one, in their place (an extra pass).
  void reduceSegmentCount(std::vector<Bytes>& segments);
  /// Adds the decode CPU and resident peak to the counters, once.
  void reportTotals();

  const JobConfig* config_;
  const Codec* codec_;
  Counters* counters_;
  ThreadPool* codecPool_;
  std::vector<Bytes> segments_;  // owns the bytes the heads borrow
  std::vector<Head> heads_;
  u64 decompressCpuUs_ = 0;        // accumulated from retired heads
  u64 callerDecompressCpuUs_ = 0;  // accumulated from retired heads
  u64 residentPeakBytes_ = 0;      // accumulated from retired heads
  bool totalsReported_ = false;
  // Compressed segment bytes this live stream pins (the decoded-block
  // residency is the separate REDUCE_MERGE_RESIDENT_PEAK_BYTES counter).
  // Atomic (relaxed): read by the telemetry sampler's thread.
  std::atomic<u64> residentSegmentBytes_{0};
  // Declared last: unregisters first, before any state the callback reads.
  obs::GaugeRegistration residentGauge_;
};

}  // namespace scishuffle::hadoop
