// Fidelity gate (ctest label: fidelity): the paper's deterministic byte
// counts, exactly as bench_intro_overhead (E1, §I), bench_fig3_compression
// (E3, Fig. 3), bench_fig5_stride_selection (E5b) and bench_fig8_aggregation
// (E7, Fig. 8) print them and EXPERIMENTS.md reports them. E1 and E7 count
// through bench/ifile_sizes.h, so a change to the IFile framing, the key
// serializers or the aggregator that moves a printed number fails here; E3
// and E5b pin the transform and bzip2ish output sizes. The gzipish rows of E3
// are not pinned yet: they move with the LZ77 3-byte-match fix (ROADMAP).
// Full-size inputs: each case takes one to two seconds.
#include <gtest/gtest.h>

#include "bench_util/bench_util.h"
#include "compress/bzip2ish.h"
#include "grid/dataset.h"
#include "ifile_sizes.h"
#include "transform/predictive_transform.h"

namespace scishuffle {
namespace {

constexpr i64 kSide = 1000;

grid::Variable windspeed() {
  grid::Variable wind("windspeed1", grid::DataType::kFloat32, grid::Shape({kSide, kSide}));
  grid::gen::fillWindspeed(wind, 2012);
  return wind;
}

TEST(FidelityE1, PerPointKeysGiveThePapersFileSizes) {
  const grid::Variable wind = windspeed();

  const bench::IFileSizes indexed =
      bench::perPointKeyFile(wind, "windspeed1", scikey::VariableTag::kIndex);
  EXPECT_EQ(indexed.records, 1'000'000u);
  EXPECT_EQ(indexed.file, 26'000'006u);
  EXPECT_EQ(indexed.keys, 20'000'000u);
  EXPECT_EQ(indexed.values, 4'000'000u);

  const bench::IFileSizes named =
      bench::perPointKeyFile(wind, "windspeed1", scikey::VariableTag::kName);
  EXPECT_EQ(named.records, 1'000'000u);
  EXPECT_EQ(named.file, 33'000'006u);
  EXPECT_EQ(named.keys, 27'000'000u);
  EXPECT_EQ(named.values, 4'000'000u);
  // Keys 6.75x the values: a 27-byte key per 4-byte value.
  EXPECT_EQ(named.keys * 4, named.values * 27);
  EXPECT_EQ(bench::fixed(static_cast<double>(named.keys) / static_cast<double>(named.values), 2),
            "6.75");
}

TEST(FidelityE1, AggregateKeysReduceTheOverheadToAConstant) {
  const bench::IFileSizes aggregated = bench::aggregateKeyFile(windspeed(), 1);
  EXPECT_EQ(aggregated.records, 187u);
  EXPECT_EQ(aggregated.file, 4'006'000u);
  EXPECT_EQ(aggregated.keys, 5'236u);
  EXPECT_EQ(aggregated.values, 4'000'000u);
}

TEST(FidelityE3, Bzip2ishRowOfFig3) {
  const Bytes stream = bench::gridWalkStream(100);
  ASSERT_EQ(stream.size(), 12'000'000u);
  EXPECT_EQ(Bzip2ishCodec{}.compress(stream).size(), 556'140u);
}

TEST(FidelityE3, TransformBzip2ishRowOfFig3) {
  const Bytes residuals = transform::PredictiveTransform{}.forward(bench::gridWalkStream(100));
  EXPECT_EQ(Bzip2ishCodec{}.compress(residuals).size(), 952u);
}

TEST(FidelityE5, StridePolicySizesAfterBzip2ish) {
  const Bytes stream = bench::gridWalkStream(40);
  const Bzip2ishCodec bzip2ish;
  auto compressedWith = [&](const transform::TransformConfig& config) {
    return bzip2ish.compress(transform::PredictiveTransform(config).forward(stream)).size();
  };

  transform::TransformConfig single12;
  single12.explicit_strides = {12};
  single12.adaptive = false;
  EXPECT_EQ(compressedWith(single12), 766u);

  transform::TransformConfig exhaustive;
  exhaustive.max_stride = 99;
  exhaustive.adaptive = false;
  EXPECT_EQ(compressedWith(exhaustive), 850u);

  transform::TransformConfig adaptive;
  adaptive.max_stride = 100;
  EXPECT_EQ(compressedWith(adaptive), 117u);
}

TEST(FidelityE7, OneMapperBreakdownMatchesFig8) {
  const grid::Variable v = bench::makeIntGrid("field", {kSide, kSide}, 88);

  const bench::IFileSizes original = bench::perPointKeyFile(v, "", scikey::VariableTag::kIndex);
  EXPECT_EQ(original.records, 1'000'000u);
  EXPECT_EQ(original.values, 4'000'000u);
  EXPECT_EQ(original.keys, 20'000'000u);
  EXPECT_EQ(original.overhead(), 2'000'006u);

  const bench::IFileSizes ideal = bench::aggregateKeyFile(v, 1);
  EXPECT_EQ(ideal.records, 187u);
  EXPECT_EQ(ideal.values, 4'000'000u);
  EXPECT_EQ(ideal.keys, 5'236u);
  EXPECT_EQ(ideal.overhead(), 764u);

  const double reduction =
      (1.0 - static_cast<double>(ideal.file) / static_cast<double>(original.file)) * 100.0;
  EXPECT_EQ(bench::fixed(reduction, 1), "84.6");
}

TEST(FidelityE7, PartitioningAcrossMapTasksReducesAggregation) {
  const grid::Variable v = bench::makeIntGrid("field", {kSide, kSide}, 88);
  EXPECT_EQ(bench::aggregateKeyFile(v, 4).records, 2'677u);
  EXPECT_EQ(bench::aggregateKeyFile(v, 16).records, 21'267u);
  EXPECT_EQ(bench::aggregateKeyFile(v, 64).records, 4'031u);
}

}  // namespace
}  // namespace scishuffle
