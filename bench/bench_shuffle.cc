// Pipelined-shuffle A/B: the serial oracle (hadoop::runJobSerial: map
// barrier, single-threaded copy loop, no codec pool) vs runJob (per-block
// compression on a shared pool, segments shuffled the moment each map
// finishes, decode-ahead in the streaming reduce-side merge). Both write the
// same block-framed segments. Workload is the Fig. 8 grid — 1000x1000 int32
// values keyed per point — split across 8 map tasks.
//
// For each codec in {null, gzipish, transform+gzipish} both paths run the
// identical job; outputs, record-level counters and the materialized,
// shuffled and merge-pass byte counters must match exactly (the pipeline only
// changes *when* work happens, never *what* is produced). Results land in
// BENCH_shuffle.json: wall clock, shuffle_overlap_us, and peak RSS per run,
// plus the core count — the
// >= 1.5x xform-gzipish speedup target only applies on >= 4 cores, since a
// single-core box has no parallelism for the block pool to exploit.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench_util/bench_util.h"
#include "grid/dataset.h"
#include "hadoop/runtime.h"
#include "scikey/simple_key.h"

using namespace scishuffle;
using hadoop::JobConfig;
using hadoop::JobResult;
using hadoop::MapTask;

namespace {

constexpr i64 kSide = 1000;
constexpr int kMapSplits = 8;

// Peak RSS, resettable between runs: malloc_trim returns freed arena pages
// to the OS (otherwise the allocator's retained floor from earlier runs
// inflates every later high-water mark), then poking "5" into
// /proc/self/clear_refs clears VmHWM so each configuration gets its own
// peak. Falls back to the process-lifetime getrusage value where procfs is
// absent.
void resetPeakRss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ofstream clear("/proc/self/clear_refs");
  if (clear) clear << "5\n";
}

u64 peakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      u64 kb = 0;
      fields >> kb;
      return kb * 1024;
    }
  }
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<u64>(usage.ru_maxrss) * 1024;
}

std::vector<MapTask> gridMapTasks(const grid::Variable& v) {
  std::vector<MapTask> tasks;
  const i64 rowsPerSplit = (kSide + kMapSplits - 1) / kMapSplits;
  for (int s = 0; s < kMapSplits; ++s) {
    const i64 lo = s * rowsPerSplit;
    const i64 hi = std::min<i64>(kSide, lo + rowsPerSplit);
    tasks.push_back(MapTask{[&v, lo, hi](const hadoop::EmitFn& emit) {
      const grid::Box split({lo, 0}, {hi - lo, kSide});
      split.forEachCell([&](const grid::Coord& c) {
        emit(scikey::serializeSimpleKey(scikey::SimpleKey{0, "", c},
                                        scikey::VariableTag::kIndex),
             v.serializedValueAt(c));
      });
    }});
  }
  return tasks;
}

struct RunStats {
  double wall_s = 0;
  u64 shuffle_overlap_us = 0;
  u64 peak_rss_bytes = 0;
};

struct CodecRow {
  std::string codec;
  RunStats serial;
  RunStats pipeline;
  // A third, instrumented pipeline run: per-stage histograms for the JSON
  // artifact plus the traced wall clock (tracing overhead visibility). The
  // timed A/B runs above keep tracing off.
  double traced_wall_s = 0;
  std::vector<obs::HistogramSnapshot> histograms;
  // A fourth run with the telemetry sampler on (5 ms interval, no trace):
  // sampler-on vs sampler-off wall clock, and the sampler's own view of peak
  // RSS to cross-check against the procfs VmHWM numbers above.
  double sampler_wall_s = 0;
  u64 sampler_rss_peak_bytes = 0;
};

// Every counter but CPU time and the merge's resident peak (decode-ahead
// only runs with a codec pool): records and segment bytes must not differ.
std::map<std::string, u64> dataCounters(const JobResult& result) {
  std::map<std::string, u64> data;
  for (const auto& [name, value] : result.counters.snapshot()) {
    if (name.find("CPU_US") != std::string::npos) continue;
    if (name == hadoop::counter::kReduceMergeResidentPeakBytes) continue;
    data[name] = value;
  }
  return data;
}

}  // namespace

int main(int argc, char** argv) {
  // Instrumented mode: `--trace t.json --metrics-out m.jsonl` runs ONLY the
  // gzipish pipelined configuration with the telemetry sampler on and exits.
  // A dedicated fresh process makes the RSS comparison honest: the sampler's
  // "ph":"C" process.rss_bytes track must reproduce the peak_rss_bytes this
  // benchmark records in BENCH_shuffle.json (within 10% — the allocator never
  // returns pages, so any multi-run process would inflate the floor).
  std::filesystem::path tracePath;
  std::filesystem::path metricsPath;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      tracePath = argv[++i];
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metricsPath = argv[++i];
    } else {
      std::cerr << "usage: bench_shuffle [--trace t.json --metrics-out m.jsonl]\n";
      return 2;
    }
  }
  const unsigned cores = std::thread::hardware_concurrency();
  bench::banner("pipelined shuffle A/B — 1000x1000 int32 grid, " +
                std::to_string(kMapSplits) + " map splits, " + std::to_string(cores) + " cores");
  const grid::Variable v = bench::makeIntGrid("field", {kSide, kSide}, 88);
  const std::vector<MapTask> tasks = gridMapTasks(v);
  const hadoop::ReduceFn reduce = [](const Bytes& key, std::vector<Bytes>& values,
                                     const hadoop::EmitFn& emit) {
    emit(key, values.front());
  };

  if (!tracePath.empty() || !metricsPath.empty()) {
    JobConfig config;
    config.intermediate_codec = "gzipish";
    config.num_reducers = 4;
    config.map_slots = 4;
    config.reduce_slots = 2;
    config.spill_buffer_bytes = 4u << 20;
    config.trace_path = tracePath;
    config.metrics_path = metricsPath;
    config.sample_interval_ms = 5;
    resetPeakRss();
    bench::Timer timer;
    JobResult result = hadoop::runJob(config, tasks, reduce);
    const double wall = timer.seconds();
    const u64 procfsPeak = peakRssBytes();
    u64 sampledPeak = 0;
    const auto it = result.telemetry.gauges.find("process.rss_bytes.max");
    if (it != result.telemetry.gauges.end()) sampledPeak = it->second;
    std::cout << "instrumented gzipish pipeline run: " << bench::fixed(wall, 3) << " s\n"
              << "sampler RSS peak:  " << bench::humanBytes(static_cast<double>(sampledPeak))
              << "\nprocfs VmHWM:      " << bench::humanBytes(static_cast<double>(procfsPeak))
              << "\n";
    if (!tracePath.empty()) std::cout << "wrote trace to " << tracePath << "\n";
    if (!metricsPath.empty()) std::cout << "wrote metrics to " << metricsPath << "\n";
    return 0;
  }

  std::vector<CodecRow> rows;
  for (const std::string codec : {"null", "gzipish", "transform+gzipish"}) {
    JobConfig config;
    config.intermediate_codec = codec;
    config.num_reducers = 4;
    config.map_slots = 4;
    config.reduce_slots = 2;
    config.spill_buffer_bytes = 4u << 20;  // a few spills per map task

    CodecRow row;
    row.codec = codec;
    JobResult serialResult;
    JobResult pipelineResult;
    for (const bool pipelined : {false, true}) {
      resetPeakRss();
      bench::Timer timer;
      JobResult result = pipelined ? hadoop::runJob(config, tasks, reduce)
                                   : hadoop::runJobSerial(config, tasks, reduce);
      RunStats& stats = pipelined ? row.pipeline : row.serial;
      stats.wall_s = timer.seconds();
      stats.shuffle_overlap_us = result.timings.shuffle_overlap_us;
      stats.peak_rss_bytes = peakRssBytes();
      (pipelined ? pipelineResult : serialResult) = std::move(result);
    }
    if (pipelineResult.outputs != serialResult.outputs ||
        dataCounters(pipelineResult) != dataCounters(serialResult)) {
      std::cerr << "FAIL: pipelined path diverged from serial baseline for " << codec << "\n";
      return 1;
    }

    config.collect_histograms = true;
    bench::Timer tracedTimer;
    JobResult traced = hadoop::runJob(config, tasks, reduce);
    row.traced_wall_s = tracedTimer.seconds();
    row.histograms = std::move(traced.telemetry.histograms);

    config.collect_histograms = false;
    config.sample_interval_ms = 5;
    resetPeakRss();
    bench::Timer samplerTimer;
    JobResult sampled = hadoop::runJob(config, tasks, reduce);
    row.sampler_wall_s = samplerTimer.seconds();
    const auto it = sampled.telemetry.gauges.find("process.rss_bytes.max");
    if (it != sampled.telemetry.gauges.end()) row.sampler_rss_peak_bytes = it->second;
    config.sample_interval_ms = 0;

    rows.push_back(std::move(row));
  }

  bench::Table table({"codec", "serial wall", "pipeline wall", "speedup", "overlap",
                      "serial peak RSS", "pipeline peak RSS"});
  double xformSpeedup = 0;
  for (const CodecRow& row : rows) {
    const double speedup = row.serial.wall_s / row.pipeline.wall_s;
    if (row.codec == "transform+gzipish") xformSpeedup = speedup;
    table.addRow({row.codec, bench::fixed(row.serial.wall_s, 3) + " s",
                  bench::fixed(row.pipeline.wall_s, 3) + " s", bench::fixed(speedup, 2) + "x",
                  bench::fixed(static_cast<double>(row.pipeline.shuffle_overlap_us) / 1000.0, 1) +
                      " ms",
                  bench::humanBytes(static_cast<double>(row.serial.peak_rss_bytes)),
                  bench::humanBytes(static_cast<double>(row.pipeline.peak_rss_bytes))});
  }
  table.print();
  std::cout << "\noutputs, record counters and segment bytes identical on both paths for every "
               "codec\n";
  std::cout << "transform+gzipish speedup: " << bench::fixed(xformSpeedup, 2) << "x (target >= 1.5x on >= 4 cores";
  if (cores < 4) std::cout << "; this machine has " << cores << ", so not applicable";
  std::cout << ")\n";
  for (const CodecRow& row : rows) {
    std::cout << "sampler(5ms) " << row.codec << ": " << bench::fixed(row.sampler_wall_s, 3)
              << " s vs " << bench::fixed(row.pipeline.wall_s, 3) << " s off, sampler RSS peak "
              << bench::humanBytes(static_cast<double>(row.sampler_rss_peak_bytes)) << "\n";
  }

  {
    bench::JsonFile json("BENCH_shuffle.json");
    bench::JsonWriter& w = json.writer();
    w.beginObject();
    w.kv("cores", static_cast<u64>(cores));
    w.key("runs").beginArray();
    for (const CodecRow& row : rows) {
      const auto emit = [&](const char* mode, const RunStats& s) {
        w.beginObject();
        w.kv("codec", row.codec);
        w.kv("mode", mode);
        w.kv("wall_s", s.wall_s);
        w.kv("shuffle_overlap_us", s.shuffle_overlap_us);
        w.kv("peak_rss_bytes", s.peak_rss_bytes);
        w.endObject();
      };
      emit("serial", row.serial);
      emit("pipeline", row.pipeline);
    }
    w.endArray();
    // Sampler overhead: pipelined run with the 5 ms telemetry sampler on vs
    // the untimed pipeline run, plus the sampler's own RSS-peak estimate.
    w.key("sampler").beginArray();
    for (const CodecRow& row : rows) {
      w.beginObject();
      w.kv("codec", row.codec);
      w.kv("sampler_wall_s", row.sampler_wall_s);
      w.kv("untraced_wall_s", row.pipeline.wall_s);
      w.kv("sampler_rss_peak_bytes", row.sampler_rss_peak_bytes);
      w.endObject();
    }
    w.endArray();
    // Per-stage histograms from the instrumented pipeline run of each codec.
    w.key("stages").beginArray();
    for (const CodecRow& row : rows) {
      w.beginObject();
      w.kv("codec", row.codec);
      w.kv("traced_wall_s", row.traced_wall_s);
      w.kv("untraced_wall_s", row.pipeline.wall_s);
      w.key("histograms");
      bench::writeHistogramSummaries(w, row.histograms);
      w.endObject();
    }
    w.endArray();
    w.endObject();
  }
  std::cout << "wrote BENCH_shuffle.json (runs + per-stage histograms)\n";
  return 0;
}
