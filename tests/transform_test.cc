#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <ostream>

#include "transform/predictive_transform.h"
#include "transform/stride_hints.h"
#include "transform/transform_codec.h"
#include "testing_support.h"

namespace scishuffle::transform {
namespace {

double zeroFraction(ByteSpan data) {
  if (data.empty()) return 1.0;
  std::size_t zeros = 0;
  for (const u8 b : data) {
    if (b == 0) ++zeros;
  }
  return static_cast<double>(zeros) / static_cast<double>(data.size());
}

TEST(StrideModelTest, LearnsASimpleLinearSequence) {
  // Input: 0,1,2,3,... — stride 1 with delta 1 predicts perfectly after the
  // run threshold is met.
  TransformConfig config;
  config.max_stride = 8;
  StrideModel model(config);
  int predicted = 0;
  for (int i = 0; i < 100; ++i) {
    const u8 x = static_cast<u8>(i);
    const auto p = model.predict();
    if (p) {
      EXPECT_EQ(*p, x);
      ++predicted;
    }
    model.consume(x);
  }
  EXPECT_GT(predicted, 80);
}

TEST(StrideModelTest, BruteForceKeepsEverythingActive) {
  TransformConfig config;
  config.max_stride = 20;
  config.adaptive = false;
  StrideModel model(config);
  const Bytes data = testing::randomBytes(5000, 3);
  for (const u8 b : data) model.consume(b);
  EXPECT_EQ(model.activeCount(), 20);
}

TEST(StrideModelTest, AdaptiveEvictsOnRandomData) {
  TransformConfig config;
  config.max_stride = 50;
  StrideModel model(config);
  const Bytes data = testing::randomBytes(20000, 4);
  for (const u8 b : data) model.consume(b);
  // Random data defeats every stride; the active set must have collapsed to
  // roughly the re-admission churn level.
  EXPECT_LT(model.activeCount(), 10);
}

TEST(StrideModelTest, ExplicitStrideSetIsHonored) {
  TransformConfig config;
  config.explicit_strides = {12};
  config.adaptive = false;
  StrideModel model(config);
  EXPECT_EQ(model.activeCount(), 1);
  EXPECT_EQ(model.activeStrides().front(), 12);
}

struct TransformCase {
  const char* name;
  TransformConfig config;
};

// gtest would otherwise print the raw bytes of the case, `name`'s pointer
// included, so the listed test names would change with every load address.
void PrintTo(const TransformCase& c, std::ostream* os) { *os << c.name; }

class TransformRoundTrip : public ::testing::TestWithParam<TransformCase> {};

TEST_P(TransformRoundTrip, ForwardInverseIsIdentity) {
  const PredictiveTransform transform(GetParam().config);
  const std::vector<Bytes> inputs = {
      {},
      {1},
      testing::randomBytes(10000, 1),
      testing::runnyBytes(10000, 2),
      testing::gridWalkTriples(12, 12, 12),
      testing::namedKeyStream("windspeed1", 30, 30, 0.5f),
  };
  for (const auto& input : inputs) {
    const Bytes residuals = transform.forward(input);
    ASSERT_EQ(residuals.size(), input.size());
    EXPECT_EQ(transform.inverse(residuals), input);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TransformRoundTrip,
    ::testing::Values(
        TransformCase{"default", {}},
        TransformCase{"brute", {.max_stride = 30, .adaptive = false}},
        TransformCase{"single12", {.explicit_strides = {12}, .adaptive = false}},
        TransformCase{"tinycycle", {.max_stride = 16, .selection_cycle_bytes = 32}},
        TransformCase{"bigwarmup", {.max_stride = 40, .eviction_warmup_strides = 8}}),
    [](const ::testing::TestParamInfo<TransformCase>& info) { return info.param.name; });

TEST(TransformTest, GridWalkResidualsAreMostlyZero) {
  // The whole point of §III: a serialized grid walk becomes almost all zeros.
  const Bytes stream = testing::gridWalkTriples(20, 20, 20);
  const PredictiveTransform transform(TransformConfig{.max_stride = 100});
  const Bytes residuals = transform.forward(stream);
  EXPECT_GT(zeroFraction(residuals), 0.95);
  EXPECT_LT(zeroFraction(stream), 0.80);
}

TEST(TransformTest, NamedKeyStreamResidualsAreMostlyZero) {
  const Bytes stream = testing::namedKeyStream("windspeed1", 50, 50, 2.0f);
  const PredictiveTransform transform(TransformConfig{.max_stride = 100});
  EXPECT_GT(zeroFraction(transform.forward(stream)), 0.90);
}

TEST(TransformTest, FixedStride12OnTripleStream) {
  // Keys of 12 serialized bytes: the paper's "single stride length of 12".
  const Bytes stream = testing::gridWalkTriples(16, 16, 16);
  const PredictiveTransform transform(
      TransformConfig{.explicit_strides = {12}, .adaptive = false});
  const Bytes residuals = transform.forward(stream);
  EXPECT_GT(zeroFraction(residuals), 0.9);
  EXPECT_EQ(transform.inverse(residuals), stream);
}

/// Source that yields data in tiny irregular chunks, exercising every
/// buffer-boundary path in the streaming transform.
class DribblingSource final : public ByteSource {
 public:
  explicit DribblingSource(ByteSpan data) : data_(data) {}

 protected:
  std::size_t readSome(MutableByteSpan out) override {
    if (pos_ >= data_.size()) return 0;
    const std::size_t chunk = 1 + (pos_ * 7919) % 7;  // 1..7 bytes
    const std::size_t n = std::min({out.size(), chunk, data_.size() - pos_});
    std::copy(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n), out.begin());
    pos_ += n;
    return n;
  }

 private:
  ByteSpan data_;
  std::size_t pos_ = 0;
};

TEST(TransformTest, StreamingIsChunkingInvariant) {
  // The same bytes through a dribbling source and through the one-shot span
  // API must produce identical residuals (the model carries no per-read
  // state), including across the internal 64 KiB chunk boundary.
  const Bytes stream = testing::gridWalkTriples(30, 30, 30);  // 324,000 bytes
  ASSERT_GT(stream.size(), 128u * 1024u);
  const PredictiveTransform transform{};

  const Bytes oneShot = transform.forward(stream);

  DribblingSource source(stream);
  Bytes dribbled;
  MemorySink sink(dribbled);
  transform.forward(source, sink);
  EXPECT_EQ(dribbled, oneShot);

  DribblingSource back(oneShot);
  Bytes restored;
  MemorySink restoredSink(restored);
  transform.inverse(back, restoredSink);
  EXPECT_EQ(restored, stream);
}

TEST(StrideHintsTest, RecordLengthArithmetic) {
  // The Fig. 2 stream: Text("windspeed1") + 2 coords + f32 value = 23 bytes.
  EXPECT_EQ(recordLengthForKeyStream(10, /*nameMode=*/true, 2, 4), 23u);
  // Index mode, 4-D keys, f32 value: 4 + 16 + 4 = 24.
  EXPECT_EQ(recordLengthForKeyStream(0, /*nameMode=*/false, 4, 4), 24u);
  // Inside an IFile each record pays 2 vint length bytes (small records).
  EXPECT_EQ(recordLengthInIFile(20, 4), 26u);
}

TEST(StrideHintsTest, MetadataConfigMatchesDetectedStride) {
  // A transform seeded purely from metadata must predict the named key
  // stream as well as the adaptive detector does.
  const Bytes stream = testing::namedKeyStream("windspeed1", 40, 40, 1.0f);
  const std::size_t record = recordLengthForKeyStream(10, true, 2, 4);
  const PredictiveTransform hinted(configFromMetadata(record));
  const Bytes residuals = hinted.forward(stream);
  EXPECT_GT(zeroFraction(residuals), 0.9);
  EXPECT_EQ(hinted.inverse(residuals), stream);
}

TEST(StrideHintsTest, ConfigValidation) {
  EXPECT_THROW(configFromMetadata(0), std::logic_error);
  const auto config = configFromMetadata(23, 3);
  EXPECT_EQ(config.explicit_strides, (std::vector<int>{23, 46, 69}));
  EXPECT_FALSE(config.adaptive);
}

TEST(TransformCodecTest, RoundTripsAndRegisters) {
  registerTransformCodecs();
  for (const char* name : {"transform+gzipish", "transform+bzip2ish"}) {
    const auto codec = CodecRegistry::instance().create(name);
    EXPECT_EQ(codec->name(), name);
    for (const auto& data :
         {testing::gridWalkTriples(15, 15, 15), testing::randomBytes(30000, 7)}) {
      EXPECT_EQ(codec->decompress(codec->compress(data)), data);
    }
  }
}

TEST(TransformCodecTest, TransformBeatsPlainCompressionOnKeyStreams) {
  registerTransformCodecs();
  const Bytes stream = testing::gridWalkTriples(30, 30, 30);
  const auto plain = CodecRegistry::instance().create("gzipish");
  const auto composed = CodecRegistry::instance().create("transform+gzipish");
  const auto plainSize = plain->compress(stream).size();
  const auto composedSize = composed->compress(stream).size();
  EXPECT_LT(composedSize * 2, plainSize);  // at least 2x better on key streams
}

// The batch entry points (which may use the SIMD subtract sweep and the
// phase-carrying scan) must be observably identical to stepping the scalar
// reference predict()/consume() byte by byte — same outputs AND the same
// final model state, since eviction/rotation decisions depend on every
// intermediate update.
TEST(StrideModelTest, ForwardBatchMatchesScalarReference) {
  for (const u32 seed : {1u, 2u, 3u}) {
    for (const auto& data :
         {testing::gridWalkTriples(12, 12, 12), testing::randomBytes(40000, seed),
          testing::runnyBytes(40000, seed), Bytes(5000, 0)}) {
      TransformConfig config;
      config.max_stride = 64;
      StrideModel batch(config);
      StrideModel scalar(config);

      Bytes batchOut(data.size());
      batch.forwardBatch(data.data(), batchOut.data(), data.size());

      Bytes scalarOut;
      scalarOut.reserve(data.size());
      for (const u8 x : data) {
        const auto p = scalar.predict();
        scalarOut.push_back(p ? static_cast<u8>(x - *p) : x);
        scalar.consume(x);
      }

      ASSERT_EQ(batchOut, scalarOut);
      EXPECT_EQ(batch.offset(), scalar.offset());
      EXPECT_EQ(batch.activeStrides(), scalar.activeStrides());
    }
  }
}

TEST(StrideModelTest, InverseBatchMatchesScalarReference) {
  const Bytes original = testing::gridWalkTriples(14, 14, 14);
  TransformConfig config;
  config.max_stride = 48;

  // Residuals from the forward pass feed both inverse implementations.
  StrideModel fwd(config);
  Bytes residuals(original.size());
  fwd.forwardBatch(original.data(), residuals.data(), original.size());

  StrideModel batch(config);
  Bytes batchOut(residuals.size());
  batch.inverseBatch(residuals.data(), batchOut.data(), residuals.size());

  StrideModel scalar(config);
  Bytes scalarOut;
  scalarOut.reserve(residuals.size());
  for (const u8 y : residuals) {
    const auto p = scalar.predict();
    const u8 x = p ? static_cast<u8>(y + *p) : y;
    scalarOut.push_back(x);
    scalar.consume(x);
  }

  EXPECT_EQ(batchOut, original);  // the inverse really inverts
  EXPECT_EQ(scalarOut, original);
  EXPECT_EQ(batch.activeStrides(), scalar.activeStrides());
}

TEST(StrideModelTest, BatchSplitPointsDoNotChangeResults) {
  // forwardBatch(a) then forwardBatch(b) == forwardBatch(a+b): the model
  // carries all state across batch boundaries (the streaming transform
  // depends on this chunking invariance).
  const Bytes data = testing::gridWalkTriples(10, 10, 10);
  TransformConfig config;
  config.max_stride = 32;

  StrideModel whole(config);
  Bytes wholeOut(data.size());
  whole.forwardBatch(data.data(), wholeOut.data(), data.size());

  for (const std::size_t split : {std::size_t{1}, data.size() / 3, data.size() - 1}) {
    StrideModel parts(config);
    Bytes partsOut(data.size());
    parts.forwardBatch(data.data(), partsOut.data(), split);
    parts.forwardBatch(data.data() + split, partsOut.data() + split, data.size() - split);
    EXPECT_EQ(partsOut, wholeOut) << "split at " << split;
  }
}

}  // namespace
}  // namespace scishuffle::transform
