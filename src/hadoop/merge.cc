#include "hadoop/merge.h"

#include <algorithm>

#include "obs/trace.h"

namespace scishuffle::hadoop {

MergedSegmentStream::MergedSegmentStream(std::vector<Bytes> segments, const Codec* codec,
                                         const JobConfig& config, Counters& counters,
                                         ThreadPool* codecPool)
    : config_(&config),
      codec_(codec),
      counters_(&counters),
      codecPool_(codecPool),
      residentGauge_(obs::processGauges().add(obs::gauge::kMergeResidentBytes, [this] {
        return residentSegmentBytes_.load(std::memory_order_relaxed);
      })) {
  // A pass merges merge_factor segments into one; fewer than two never
  // shrinks the set, and the pass loop below would not terminate.
  check(config.merge_factor >= 2, "merge_factor must be at least 2");
  obs::ScopedSpan span("merge_open", "merge");
  span.arg("segments", segments.size());
  // Multi-pass merging: while too many segments, merge merge_factor adjacent
  // ones into one re-materialized segment.
  while (static_cast<int>(segments.size()) > config.merge_factor) {
    counters.add(counter::kReduceMergePasses, 1);
    reduceSegmentCount(segments);
  }

  // Heads borrow spans of segments_; keep the bytes alive for the stream's
  // lifetime and hold only the current decoded block per segment.
  segments_ = std::move(segments);
  u64 pinned = 0;
  for (const Bytes& segment : segments_) pinned += segment.size();
  residentSegmentBytes_.store(pinned, std::memory_order_relaxed);
  heads_ = openHeads(segments_);
}

std::vector<MergedSegmentStream::Head> MergedSegmentStream::openHeads(
    std::span<const Bytes> segments) {
  std::vector<Head> heads;
  for (const Bytes& segment : segments) {
    Head head;
    head.source = std::make_unique<BlockDecodeSource>(segment, codec_, codecPool_,
                                                      config_->fault_injector);
    head.records = std::make_unique<IFileStreamReader>(*head.source);
    if (auto kv = head.records->next()) {
      head.kv = std::move(*kv);
      heads.push_back(std::move(head));
    } else {
      retire(*head.source);
    }
  }
  return heads;
}

std::size_t MergedSegmentStream::minHead(const std::vector<Head>& heads) const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < heads.size(); ++i) {
    if (config_->key_less(heads[i].kv.key, heads[best].kv.key)) best = i;
  }
  return best;
}

KeyValue MergedSegmentStream::popHead(std::vector<Head>& heads, std::size_t index) {
  KeyValue out = std::move(heads[index].kv);
  if (auto kv = heads[index].records->next()) {
    heads[index].kv = std::move(*kv);
  } else {
    retire(*heads[index].source);
    heads.erase(heads.begin() + static_cast<std::ptrdiff_t>(index));
  }
  return out;
}

void MergedSegmentStream::retire(const BlockDecodeSource& source) {
  decompressCpuUs_ += source.decompressCpuUs();
  callerDecompressCpuUs_ += source.callerDecompressCpuUs();
  residentPeakBytes_ += source.residentPeakBytes();
}

u64 MergedSegmentStream::callerDecompressCpuUs() const {
  u64 total = callerDecompressCpuUs_;
  for (const Head& head : heads_) total += head.source->callerDecompressCpuUs();
  return total;
}

void MergedSegmentStream::reduceSegmentCount(std::vector<Bytes>& segments) {
  // Merge the run of merge_factor adjacent segments holding the fewest bytes
  // (Hadoop merges small segments first) and put the result in its place.
  // Adjacent runs keep the segments in map order, so with the lowest index
  // winning a key tie, tied records reach the reducer in map order whatever
  // the merge factor.
  const std::size_t take = std::min<std::size_t>(static_cast<std::size_t>(config_->merge_factor),
                                                 segments.size());
  std::size_t first = 0;
  u64 window = 0;
  for (std::size_t i = 0; i < take; ++i) window += segments[i].size();
  u64 smallest = window;
  for (std::size_t i = take; i < segments.size(); ++i) {
    window = window - segments[i - take].size() + segments[i].size();
    if (window < smallest) {
      smallest = window;
      first = i - take + 1;
    }
  }
  obs::ScopedSpan span("merge_pass", "merge");
  span.arg("segments_in", take);

  // Stream the pass: k-way merge through block-at-a-time readers into a
  // block-framed writer, never materializing the decoded records wholesale.
  std::vector<Head> passHeads = openHeads(std::span<const Bytes>(segments).subspan(first, take));
  IFileBlockWriter writer(codec_, config_->shuffle_block_bytes, codecPool_);
  while (!passHeads.empty()) {
    const KeyValue kv = popHead(passHeads, minHead(passHeads));
    writer.append(kv.key, kv.value);
  }
  Bytes merged = writer.close();
  counters_->add(counter::kCodecCompressCpuUs, writer.compressCpuUs());
  counters_->add(counter::kReduceMergeMaterializedBytes, merged.size());
  span.arg("materialized_bytes", merged.size());

  const auto run = segments.begin() + static_cast<std::ptrdiff_t>(first);
  *run = std::move(merged);
  segments.erase(run + 1, run + static_cast<std::ptrdiff_t>(take));
}

void MergedSegmentStream::reportTotals() {
  if (totalsReported_) return;
  totalsReported_ = true;
  counters_->add(counter::kCodecDecompressCpuUs, decompressCpuUs_);
  counters_->add(counter::kReduceMergeResidentPeakBytes, residentPeakBytes_);
}

std::optional<KeyValue> MergedSegmentStream::next() {
  if (heads_.empty()) {
    reportTotals();
    return std::nullopt;
  }
  KeyValue out = popHead(heads_, minHead(heads_));
  if (heads_.empty()) reportTotals();
  return out;
}

}  // namespace scishuffle::hadoop
