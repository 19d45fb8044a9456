// IFile: Hadoop's intermediate file format, reproduced byte-for-byte in
// structure. Every record pays
//     vint(keyLen) + vint(valueLen) + key + value
// and the stream ends with the (-1, -1) end marker plus a 4-byte checksum.
// This per-record framing is exactly the "file overhead" bar of Fig. 8 and
// part of the 26-bytes-per-record arithmetic of §I (see DESIGN.md §3).
//
// The runtime's segments wrap this record stream in the block-framed
// container (compress/block_format.h): records stream through
// IFileBlockWriter into independently decompressible blocks, and
// IFileStreamReader parses records back out of any ByteSource one block at a
// time. IFileWriter / IFileReader keep Hadoop's whole-file form (the record
// stream, marker included, through the codec in one call, plus a CRC
// trailer); no runtime path uses it. It is the byte-count reference for the
// paper's E1 / E7 numbers (bench_intro_overhead, bench_fig8_aggregation,
// tests/fidelity_test.cc).
#pragma once

#include <memory>

#include "compress/block_format.h"
#include "compress/codec.h"
#include "hadoop/types.h"

namespace scishuffle::hadoop {

/// Serialized-size helper: framing cost of one record.
std::size_t ifileRecordOverhead(std::size_t keyLen, std::size_t valueLen);

/// Size of the end-of-file marker plus checksum.
constexpr std::size_t kIFileTrailerSize = 2 + 4;

class IFileWriter {
 public:
  /// codec may be nullptr for an uncompressed stream.
  explicit IFileWriter(const Codec* codec) : codec_(codec) {}

  void append(ByteSpan key, ByteSpan value);

  /// Finalizes the stream; no appends afterwards. Returns the materialized
  /// file bytes (compressed payload + CRC trailer).
  Bytes close();

  u64 rawBytes() const { return static_cast<u64>(payload_.size()); }
  u64 records() const { return records_; }

 private:
  const Codec* codec_;
  Bytes payload_;
  u64 records_ = 0;
  bool closed_ = false;
};

class IFileReader {
 public:
  /// Decompresses and validates the file eagerly; throws FormatError on a
  /// bad checksum or malformed framing.
  IFileReader(ByteSpan file, const Codec* codec);

  /// Next record, or nullopt at the end marker.
  std::optional<KeyValue> next();

 private:
  Bytes payload_;
  std::size_t pos_ = 0;
  bool done_ = false;
};

/// IFile record stream materialized as a block-framed codec container (the
/// runtime's segment format). Block boundaries fall every
/// `blockBytes` of raw record stream regardless of record boundaries; with a
/// pool, sealed blocks compress concurrently while records keep streaming in.
class IFileBlockWriter {
 public:
  IFileBlockWriter(const Codec* codec, std::size_t blockBytes, ThreadPool* pool = nullptr)
      : writer_(codec, blockBytes, pool) {}

  void append(ByteSpan key, ByteSpan value);

  /// Writes the (-1, -1) end marker and finalizes the container.
  Bytes close();

  u64 compressCpuUs() const { return writer_.compressCpuUs(); }

 private:
  BlockCompressedWriter writer_;
  Bytes scratch_;
  bool closed_ = false;
};

/// Parses IFile records from any ByteSource (typically a BlockDecodeSource,
/// so only the current block is resident). Throws FormatError on truncation.
class IFileStreamReader {
 public:
  explicit IFileStreamReader(ByteSource& source) : source_(&source) {}

  /// Next record, or nullopt at the (-1, -1) end marker.
  std::optional<KeyValue> next();

 private:
  ByteSource* source_;
  bool done_ = false;
};

}  // namespace scishuffle::hadoop
