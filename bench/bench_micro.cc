// Google-benchmark microbenchmarks for the hot primitives: the predictive
// transform, the generic codecs, curve encoding, suffix-array construction,
// Huffman, and varint framing. These are the per-byte costs behind the
// paper's time columns (Fig. 3/4) and the cluster simulator's CPU inputs.
#include <benchmark/benchmark.h>

#include "bench_util/bench_util.h"
#include "compress/bwt.h"
#include "compress/bzip2ish.h"
#include "compress/deflate.h"
#include "io/streams.h"
#include "io/varint.h"
#include "scikey/aggregator.h"
#include "scikey/box_coalescer.h"
#include "sfc/clustering.h"
#include "sfc/curve.h"
#include "transform/predictive_transform.h"

using namespace scishuffle;

namespace {

const Bytes& keyStream() {
  static const Bytes stream = bench::gridWalkStream(40);  // 768,000 bytes
  return stream;
}

void BM_TransformForward(benchmark::State& state) {
  transform::TransformConfig config;
  config.max_stride = static_cast<int>(state.range(0));
  const transform::PredictiveTransform t(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.forward(keyStream()));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(keyStream().size()));
}
BENCHMARK(BM_TransformForward)->Arg(100)->Arg(1000);

void BM_TransformBruteForce(benchmark::State& state) {
  transform::TransformConfig config;
  config.max_stride = static_cast<int>(state.range(0));
  config.adaptive = false;
  const transform::PredictiveTransform t(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.forward(keyStream()));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(keyStream().size()));
}
BENCHMARK(BM_TransformBruteForce)->Arg(100);

void BM_DeflateCompress(benchmark::State& state) {
  const DeflateCodec codec;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.compress(keyStream()));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(keyStream().size()));
}
BENCHMARK(BM_DeflateCompress);

void BM_Bzip2ishCompress(benchmark::State& state) {
  const Bzip2ishCodec codec;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.compress(keyStream()));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(keyStream().size()));
}
BENCHMARK(BM_Bzip2ishCompress);

void BM_SuffixArray(benchmark::State& state) {
  const Bytes data(keyStream().begin(),
                   keyStream().begin() + static_cast<std::ptrdiff_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bwt::suffixArray(data));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SuffixArray)->Arg(64 << 10)->Arg(256 << 10);

void BM_CurveEncode(benchmark::State& state) {
  const auto kind = static_cast<sfc::CurveKind>(state.range(0));
  const auto curve = sfc::makeCurve(kind, 3, 10);
  std::vector<u32> coords{1, 2, 3};
  u32 i = 0;
  for (auto _ : state) {
    coords[0] = i & 1023;
    coords[1] = (i >> 10) & 1023;
    coords[2] = (i * 7) & 1023;
    benchmark::DoNotOptimize(curve->encode(coords));
    ++i;
  }
}
BENCHMARK(BM_CurveEncode)
    ->Arg(static_cast<int>(sfc::CurveKind::kZOrder))
    ->Arg(static_cast<int>(sfc::CurveKind::kHilbert))
    ->Arg(static_cast<int>(sfc::CurveKind::kRowMajor));

void BM_AggregatorThroughput(benchmark::State& state) {
  const grid::Box domain({0, 0}, {512, 512});
  const scikey::CurveSpace space(sfc::CurveKind::kZOrder, domain);
  scikey::AggregatorConfig config;
  config.value_size = 4;
  config.flush_threshold_bytes = 256u << 20;
  const Bytes value{0, 0, 0, 1};
  for (auto _ : state) {
    u64 sink = 0;
    scikey::Aggregator agg(space, config, [&sink](Bytes k, Bytes) { sink += k.size(); });
    grid::Box({0, 0}, {256, 256}).forEachCell([&](const grid::Coord& c) {
      agg.add(0, c, value);
    });
    agg.flush();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 256 * 256);
}
BENCHMARK(BM_AggregatorThroughput);

void BM_RangesForBox(benchmark::State& state) {
  const auto curve = sfc::makeCurve(static_cast<sfc::CurveKind>(state.range(0)), 2, 9);
  const std::vector<u32> corner{37, 101}, size{48, 48};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sfc::rangesForBox(*curve, corner, size));
  }
}
BENCHMARK(BM_RangesForBox)
    ->Arg(static_cast<int>(sfc::CurveKind::kZOrder))
    ->Arg(static_cast<int>(sfc::CurveKind::kHilbert));

void BM_BoxCoalesce(benchmark::State& state) {
  std::vector<grid::Coord> cells;
  grid::Box({0, 0}, {state.range(0), state.range(0)}).forEachCell([&](const grid::Coord& c) {
    if ((c[0] ^ c[1]) % 5 != 0) cells.push_back(c);  // holes -> many boxes
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(scikey::coalesceCells(cells));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(cells.size()));
}
BENCHMARK(BM_BoxCoalesce)->Arg(16)->Arg(48);

void BM_VarintFraming(benchmark::State& state) {
  for (auto _ : state) {
    Bytes out;
    out.reserve(4096);
    MemorySink sink(out);
    for (i64 v = 0; v < 1024; ++v) writeVLong(sink, v * 37 - 512);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 1024);
}
BENCHMARK(BM_VarintFraming);

}  // namespace

BENCHMARK_MAIN();
