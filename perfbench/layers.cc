// Per-layer run (--trace 1): re-executes the workload's job one layer at a
// time through the library's public calls and times each call from outside.
// The decomposed job must reproduce runJob's outputs and byte counts exactly,
// so the ledger measures the same program the end-to-end run measures.
#include <algorithm>
#include <iostream>
#include <optional>

#include "bench.h"
#include "compress/block_format.h"
#include "compress/codec.h"
#include "hadoop/counters.h"
#include "hadoop/shuffle.h"
#include "hadoop/spill.h"
#include "io/buffer_pool.h"
#include "io/thread_pool.h"
#include "transform/transform_codec.h"

namespace perfbench {

namespace hadoop = scishuffle::hadoop;
namespace service = scishuffle::service;
namespace counter = hadoop::counter;
using scishuffle::Bytes;
using scishuffle::Codec;
using scishuffle::CodecRegistry;
using scishuffle::ThreadPool;

namespace {

/// Per-metric samples, one per repetition; each metric reports its median.
class Samples {
 public:
  void add(const std::string& name, double v, const char* unit) {
    auto& s = samples_[name];
    if (s.second.empty()) order_.push_back(name);
    s.first = unit;
    s.second.push_back(v);
  }
  void appendTo(std::vector<Metric>& out) const {
    for (const std::string& name : order_) {
      const auto& [unit, values] = samples_.at(name);
      out.push_back({name, median(values), unit});
    }
  }

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<std::string, std::vector<double>>> samples_;
};

template <typename F>
double timed(F&& f) {
  const double t = nowS();
  f();
  return nowS() - t;
}

double maxOf(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

std::unique_ptr<Codec> codecFor(const std::string& name) {
  return name == "null" ? nullptr : CodecRegistry::instance().create(name);
}

/// One layer-by-layer execution of the job: map function -> route + collect
/// + sort/combine/spill (stored blocks) -> block encode with the job's codec
/// -> publish -> fetch -> reduce task. Returns false when the decomposed job
/// differs from `ref`.
bool decompose(const JobInputs& in, const JobResult& ref, ThreadPool& pool, Samples& out) {
  const JobParts& job = in.job;
  const JobConfig& cfg = job.config;
  const auto codec = codecFor(cfg.intermediate_codec);
  const std::size_t maps = job.tasks.size();
  const int reducers = cfg.num_reducers;
  bool same = true;

  double emitS = 0, spillS = 0, encodeS = 0;
  u64 records = 0, keyBytes = 0, valueBytes = 0, spills = 0, rawBytes = 0, frames = 0;
  hadoop::Counters mapCounters;
  std::vector<std::vector<Bytes>> raw(maps), segments(maps);
  const auto routeSplits = [&] {
    return job.routing_counters ? job.routing_counters->get(counter::kKeySplitsRouting) : 0;
  };
  double routeSplitDelta = 0;

  const double start = nowS();
  for (std::size_t m = 0; m < maps; ++m) {
    // scikey / map function: the task's emissions, captured.
    std::vector<hadoop::KeyValue> emitted;
    emitS += timed([&] {
      job.tasks[m].run([&](Bytes k, Bytes v) {
        keyBytes += k.size();
        valueBytes += v.size();
        emitted.push_back(hadoop::KeyValue{std::move(k), std::move(v)});
      });
    });
    records += emitted.size();

    // hadoop.spill: the job's router, key order and combiner; no codec, so
    // the segments come out as stored blocks.
    hadoop::Counters taskCounters;
    std::optional<hadoop::MapOutput> stored;
    const u64 splitsBefore = routeSplits();
    spillS += timed([&] {
      hadoop::MapOutputBuffer buffer(cfg, nullptr, taskCounters, &pool);
      std::size_t buffered = 0;
      ++spills;  // finish() always spills once more
      for (hadoop::KeyValue& kv : emitted) {
        for (auto& [partition, routed] : cfg.router(std::move(kv), reducers)) {
          buffered += routed.key.size() + routed.value.size();
          buffer.collect(partition, std::move(routed));
          if (buffered >= cfg.spill_buffer_bytes) {  // collect()'s spill trigger
            ++spills;
            buffered = 0;
          }
        }
      }
      stored = buffer.finish();
    });
    routeSplitDelta += static_cast<double>(routeSplits() - splitsBefore);
    mapCounters.merge(taskCounters);
    for (const Bytes& seg : stored->segments) {
      raw[m].push_back(scishuffle::blockDecompressAll(seg, nullptr));
      rawBytes += raw[m].back().size();
    }

    // compress.block: the job's codec over the raw IFile stream, fanned
    // across the codec pool exactly as the spill writer does.
    encodeS += timed([&] {
      for (const Bytes& r : raw[m]) {
        scishuffle::BlockCompressedWriter writer(codec.get(), cfg.shuffle_block_bytes, &pool);
        writer.write(r);
        segments[m].push_back(writer.close());
        frames += writer.blocksWritten();
      }
    });
  }

  // hadoop.shuffle: publish every map's segments, then drain each reducer.
  u64 shuffleBytes = 0, shuffleSegments = 0;
  std::vector<std::vector<Bytes>> fetched(static_cast<std::size_t>(reducers),
                                          std::vector<Bytes>(maps));
  hadoop::ShuffleServer server(maps, reducers);
  const double publishS = timed([&] {
    for (std::size_t m = 0; m < maps; ++m) server.publish(m, segments[m]);
  });
  const double fetchS = timed([&] {
    for (int r = 0; r < reducers; ++r) {
      while (auto f = server.fetch(r)) {
        shuffleBytes += f->segment.size();
        ++shuffleSegments;
        fetched[static_cast<std::size_t>(r)][f->map_index] = std::move(f->segment);
      }
    }
  });

  // hadoop.runtime reduce side: merge + group + reduce per reducer.
  std::vector<double> reduceWall;
  double reduceCpu = 0, residentPeak = 0, outputRecords = 0;
  hadoop::Counters reduceCounters;
  std::vector<std::vector<hadoop::KeyValue>> outputs(static_cast<std::size_t>(reducers));
  for (int r = 0; r < reducers; ++r) {
    const double cpu0 = cpuSelfS();
    hadoop::ReduceTaskExecution exec;
    reduceWall.push_back(timed([&] {
      exec = hadoop::executeReduceTask(cfg, codec.get(), &pool, job.reduce,
                                       fetched[static_cast<std::size_t>(r)], r);
    }));
    reduceCpu += cpuSelfS() - cpu0;
    residentPeak =
        std::max(residentPeak, static_cast<double>(exec.stats.merge_resident_peak_bytes));
    outputRecords += static_cast<double>(exec.output.size());
    reduceCounters.merge(exec.counters);
    outputs[static_cast<std::size_t>(r)] = std::move(exec.output);
  }
  const double wall = nowS() - start;
  double reduceS = 0;
  for (double t : reduceWall) reduceS += t;

  // Decomposition check: same outputs, same bytes, same record counters.
  u64 materialized = 0;
  for (const auto& segs : segments)
    for (const Bytes& s : segs) materialized += s.size();
  auto mismatch = [&](const char* what) {
    std::cerr << "perfbench: decomposed job differs from runJob: " << what << "\n";
    same = false;
  };
  if (outputs != ref.outputs) mismatch("outputs");
  if (materialized != ref.counters.get(counter::kMapOutputMaterializedBytes))
    mismatch("MAP_OUTPUT_MATERIALIZED_BYTES");
  for (const char* c : {counter::kMapOutputRecords, counter::kMapOutputBytes,
                        counter::kSpilledRecords, counter::kCombineInputRecords,
                        counter::kCombineOutputRecords}) {
    if (mapCounters.get(c) != ref.counters.get(c)) mismatch(c);
  }
  for (const char* c : {counter::kReduceInputRecords, counter::kReduceInputGroups,
                        counter::kReduceOutputRecords}) {
    if (reduceCounters.get(c) != ref.counters.get(c)) mismatch(c);
  }

  // hadoop.runtime map side: the runtime's own per-task call, which must
  // produce the segments the layer-by-layer path produced.
  std::vector<double> mapWall;
  double mapCpu = 0;
  for (std::size_t m = 0; m < maps; ++m) {
    const double cpu0 = cpuSelfS();
    hadoop::MapTaskExecution exec;
    mapWall.push_back(
        timed([&] { exec = hadoop::executeMapTask(cfg, codec.get(), &pool, job.tasks[m], m); }));
    mapCpu += cpuSelfS() - cpu0;
    if (exec.output.segments != segments[m]) mismatch("executeMapTask segments");
  }

  // Codec layers on the captured raw segments: the transform codec and plain
  // gzipish (whole segment, no framing), then block decode of the framed ones.
  const auto xform = codecFor("transform+gzipish");
  const auto gzip = codecFor("gzipish");
  double xEnc = 0, xDec = 0, xOut = 0, gEnc = 0, gDec = 0, gOut = 0, bDec = 0, framing = 0;
  for (std::size_t m = 0; m < maps; ++m) {
    for (std::size_t p = 0; p < raw[m].size(); ++p) {
      const Bytes& r = raw[m][p];
      for (auto [c, enc, dec, outBytes] : {std::tuple{xform.get(), &xEnc, &xDec, &xOut},
                                           std::tuple{gzip.get(), &gEnc, &gDec, &gOut}}) {
        Bytes packed, unpacked;
        *enc += timed([&] { packed = c->compress(r); });
        *dec += timed([&] { unpacked = c->decompress(packed); });
        *outBytes += static_cast<double>(packed.size());
        if (unpacked != r) mismatch("codec round trip");
      }
      const Bytes& seg = segments[m][p];
      Bytes decoded;
      bDec += timed([&] { decoded = scishuffle::blockDecompressAll(seg, codec.get()); });
      if (decoded != r) mismatch("block round trip");
      double payload = 0;
      scishuffle::BlockCompressedReader reader(seg, codec.get());
      while (auto frame = reader.nextFrame()) payload += static_cast<double>(frame->payload.size());
      framing += static_cast<double>(seg.size()) - payload;
    }
  }

  out.add("scikey.emit_s", emitS, "s");
  out.add("scikey.records", static_cast<double>(records), "count");
  out.add("scikey.key_bytes", static_cast<double>(keyBytes), "bytes");
  out.add("scikey.value_bytes", static_cast<double>(valueBytes), "bytes");
  out.add("scikey.route_key_splits", routeSplitDelta, "count");
  out.add("spill.sort_s", spillS, "s");
  out.add("spill.spills", static_cast<double>(spills), "count");
  out.add("spill.raw_bytes", static_cast<double>(rawBytes), "bytes");
  const u64 combineIn = mapCounters.get(counter::kCombineInputRecords);
  out.add("spill.combine_out_ratio",
          combineIn == 0 ? 1.0
                         : static_cast<double>(mapCounters.get(counter::kCombineOutputRecords)) /
                               static_cast<double>(combineIn),
          "ratio");
  out.add("transform.encode_s", xEnc, "s");
  out.add("transform.decode_s", xDec, "s");
  out.add("transform.out_bytes", xOut, "bytes");
  out.add("compress.encode_s", gEnc, "s");
  out.add("compress.decode_s", gDec, "s");
  out.add("compress.encode_mb_per_s", static_cast<double>(rawBytes) / 1e6 / gEnc, "MB/s");
  out.add("compress.out_bytes", gOut, "bytes");
  out.add("block.encode_s", encodeS, "s");
  out.add("block.decode_s", bDec, "s");
  out.add("block.frames", static_cast<double>(frames), "count");
  out.add("block.framing_bytes", framing, "bytes");
  out.add("map_task.p50_s", median(mapWall), "s");
  out.add("map_task.max_s", maxOf(mapWall), "s");
  out.add("map_task.cpu_s", mapCpu, "s");
  out.add("reduce_task.p50_s", median(reduceWall), "s");
  out.add("reduce_task.max_s", maxOf(reduceWall), "s");
  out.add("reduce_task.cpu_s", reduceCpu, "s");
  out.add("merge.resident_peak_bytes", residentPeak, "bytes");
  out.add("reduce.output_records", outputRecords, "count");
  out.add("shuffle.publish_s", publishS, "s");
  out.add("shuffle.fetch_wait_s", fetchS, "s");
  out.add("shuffle.segments", static_cast<double>(shuffleSegments), "count");
  out.add("shuffle.bytes", static_cast<double>(shuffleBytes), "bytes");
  // The serial stages on the job's path, against the decomposed job's wall.
  out.add("ledger.coverage", (emitS + spillS + encodeS + publishS + fetchS + reduceS) / wall,
          "ratio");
  return same;
}

}  // namespace

RunResult runLayers(const RunOptions& opt) {
  RunResult out;
  out.host = hostRecord(opt.workload, loadAvg1m());
  Samples samples;
  const std::filesystem::path workDir = opt.work_dir;

  scishuffle::registerTransformCodecs();
  std::unique_ptr<JobInputs> in;
  samples.add("grid.gen_s", timed([&] { in = makeInputs(opt.workload, opt.seed, opt.tiny); }), "s");
  const JobParts& job = in->job;
  auto runPlain = [&](const JobConfig& cfg) { return hadoop::runJob(cfg, job.tasks, job.reduce); };
  auto count = [&](bool ok, const char* what) {
    ++out.attempted;
    if (!ok) {
      ++out.failed;
      out.correct = false;
      std::cerr << "perfbench: " << what << " differs from the reference job\n";
    }
  };

  // Reference job (in-process runJob; dist_wordcount's in-process oracle).
  const JobResult ref = runPlain(job.config);
  count(matchesOracle(*in, ref), "reference job vs oracle");

  // obs: the same job with JobConfig::trace_path set, alternated with plain
  // runs; the ratio of medians is the tracing overhead.
  {
    JobConfig traced = job.config;
    traced.trace_path = workDir / "trace.json";
    std::vector<double> plainS, tracedS;
    for (int i = 0; i < 2; ++i) {
      JobResult a, b;
      plainS.push_back(timed([&] { a = runPlain(job.config); }));
      tracedS.push_back(timed([&] { b = runPlain(traced); }));
      count(a.outputs == ref.outputs && b.outputs == ref.outputs, "plain/traced job");
    }
    std::filesystem::remove(traced.trace_path);
    samples.add("obs.trace_overhead_ratio", median(tracedS) / median(plainS), "ratio");
    samples.add("shuffle.overlap_ratio",
                ref.timings.shuffle_us == 0
                    ? 0.0
                    : static_cast<double>(ref.timings.shuffle_overlap_us) /
                          static_cast<double>(ref.timings.shuffle_us),
                "ratio");
  }

  // The layer-by-layer job, repeated for the run's seconds.
  {
    ThreadPool pool(job.config.codec_threads);
    const double deadline = nowS() + opt.seconds;
    do {
      count(decompose(*in, ref, pool, samples), "decomposed job");
    } while (nowS() < deadline);
  }

  // service: the job through the benchmark's JobService as a closed loop.
  {
    auto svc = makeService(workDir);
    std::vector<double> waits, runs;
    double overflowed = 0;
    const int jobs = in->workload == Workload::kSlabServiceGzip ? 6 : 3;
    int submitted = 0;
    serviceClosedLoop(*svc, job, kThreads.service_in_flight, [&] { return submitted++ < jobs; },
                      [&](const service::JobStatus& st, const JobResult* r) {
                        waits.push_back(static_cast<double>(st.queueWaitUs()) * 1e-6);
                        runs.push_back(static_cast<double>(st.finish_us - st.start_us) * 1e-6);
                        count(r != nullptr && r->outputs == ref.outputs, "service job");
                        if (r != nullptr)
                          overflowed += static_cast<double>(
                              r->counters.get(counter::kShuffleSegmentsOverflowed));
                      });
    samples.add("service.queue_wait_p50_s", median(waits), "s");
    samples.add("service.run_p50_s", median(runs), "s");
    samples.add("service.throttles", static_cast<double>(svc->governor()->throttleEvents()),
                "count");
    samples.add("service.segments_overflowed", overflowed, "count");
  }

  // net + service.coordinator: the job across forked worker processes.
  {
    int spawned = 0;
    const JobResult d = runDistributed(*in, workDir / "dist", &spawned);
    count(d.outputs == ref.outputs, "distributed job");
    samples.add("dist.map_phase_s", static_cast<double>(d.timings.map_phase_us) * 1e-6, "s");
    samples.add("dist.shuffle_s", static_cast<double>(d.timings.shuffle_us) * 1e-6, "s");
    samples.add("dist.reduce_phase_s", static_cast<double>(d.timings.reduce_phase_us) * 1e-6, "s");
    samples.add("dist.workers_spawned", spawned, "count");
    samples.add("dist.fetch_retries",
                static_cast<double>(d.counters.get(counter::kShuffleFetchRetries)), "count");
  }

  // io.pool and the process, after every job above has drained.
  const auto& bytePool = scishuffle::sharedBytePool();
  const auto stats = bytePool.stats();
  samples.add("pool.reuse_ratio",
              stats.acquires == 0 ? 0.0
                                  : static_cast<double>(stats.reuses) /
                                        static_cast<double>(stats.acquires),
              "ratio");
  samples.add("pool.hwm_bytes", static_cast<double>(bytePool.hwmBytes()), "bytes");
  samples.add("pool.idle_buffers", static_cast<double>(bytePool.freeListSize()), "count");
  samples.add("proc.rss_after_drain_mb", procStatusMb("VmRSS:"), "MB");

  samples.appendTo(out.metrics);
  return out;
}

}  // namespace perfbench
