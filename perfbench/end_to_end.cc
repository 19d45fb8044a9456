// End-to-end run (--trace 0): set up, then a timed closed loop of jobs with
// tracing and the sampler off. Every job's output and record counters are
// checked.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <thread>

#include "bench.h"
#include "hadoop/counters.h"
#include "transform/transform_codec.h"

namespace perfbench {

namespace hadoop = scishuffle::hadoop;
namespace service = scishuffle::service;

std::unique_ptr<service::JobService> makeService(const std::filesystem::path& workDir) {
  service::ServiceConfig c;
  c.max_concurrent_jobs = kThreads.service_slots;
  c.queue_capacity = 16;
  c.memory_budget_bytes = 16ull << 30;
  c.codec_threads = kThreads.codec_threads;
  // Two jobs run at once, so each gets one map and one reduce slot.
  c.max_map_slots_per_job = 1;
  c.max_reduce_slots_per_job = 1;
  c.overflow_dir = workDir / "overflow";
  std::filesystem::create_directories(c.overflow_dir);
  return std::make_unique<service::JobService>(std::move(c));
}

void serviceClosedLoop(service::JobService& svc, const JobParts& job, int inFlight,
                       const std::function<bool()>& keepGoing, const ServiceDoneFn& onDone) {
  u64 submitted = 0;
  auto submit = [&] {
    service::JobSpec spec;
    spec.name = "perfbench-" + std::to_string(submitted++);
    spec.config = job.config;
    spec.map_tasks = job.tasks;
    spec.reduce = job.reduce;
    return svc.submit(std::move(spec)).id;
  };
  std::vector<u64> ids;
  while (static_cast<int>(ids.size()) < inFlight && keepGoing()) ids.push_back(submit());
  while (!ids.empty()) {
    // Replace whichever job finishes first. Waiting on the oldest instead
    // lets the queue run dry behind a slow job and idles a slot.
    std::optional<service::JobStatus> status;
    while (!status) {
      for (auto it = ids.begin(); it != ids.end(); ++it) {
        if (auto st = svc.status(*it); st && service::isTerminal(st->state)) {
          status = std::move(st);
          ids.erase(it);
          break;
        }
      }
      if (!status) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const u64 id = status->id;
    if (keepGoing()) ids.push_back(submit());  // keep the service loaded first
    std::optional<JobResult> result;
    try {
      result = svc.takeResult(id);
    } catch (const std::exception& e) {
      std::cerr << "perfbench: service job " << id << " failed: " << e.what() << "\n";
    }
    onDone(*status, result ? &*result : nullptr);
  }
}

namespace {

constexpr int kSetups = 3;   // setup_s is the median of these
constexpr int kMinJobs = 5;  // timed jobs per run, however long they take

struct Setup {
  std::unique_ptr<JobInputs> in;
  std::unique_ptr<service::JobService> svc;
  JobResult warm;
};

/// Runs one job on the workload's own path (not the service path).
JobResult runOne(const JobInputs& in, const std::filesystem::path& workDir) {
  if (in.workload == Workload::kDistWordcount) return runDistributed(in, workDir / "dist", nullptr);
  return hadoop::runJob(in.job.config, in.job.tasks, in.job.reduce);
}

JobResult warmUp(Setup& s, const std::filesystem::path& workDir) {
  if (!s.svc) return runOne(*s.in, workDir);
  JobResult out;
  serviceClosedLoop(*s.svc, s.in->job, 1, [n = 0]() mutable { return n++ == 0; },
                    [&](const service::JobStatus&, const JobResult* r) {
                      if (r == nullptr) throw std::runtime_error("warm-up job failed");
                      out = *r;
                    });
  return out;
}

/// Host speed probe: median time to sort the same 256k pseudo-random words,
/// so a run that is slow because the host is slow can be told apart from a
/// slow program.
double hostProbeMs() {
  std::vector<u64> words(256 * 1024);
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    u64 x = 88172645463325252ull;
    for (u64& v : words) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = x;
    }
    const double t = nowS();
    std::sort(words.begin(), words.end());
    times.push_back((nowS() - t) * 1e3);
  }
  return median(times);
}

/// The aggregate "cpu" line of /proc/stat: steal ticks and all ticks.
std::pair<u64, u64> cpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  u64 steal = 0, total = 0, v = 0;
  for (int field = 0; field < 8 && stat >> v; ++field) {  // user .. steal
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

}  // namespace

double loadAvg1m() {
  std::ifstream loadavg("/proc/loadavg");
  double load = 0;
  loadavg >> load;
  return load;
}

std::map<std::string, double> hostRecord(Workload w, double loadAtStart) {
  const bool viaService = w == Workload::kSlabServiceGzip;
  return {
      {"nproc", static_cast<double>(std::thread::hardware_concurrency())},
      {"loadavg_1m_at_start", loadAtStart},
      {"host_probe_ms", hostProbeMs()},
      {"map_slots", kThreads.map_slots},
      {"reduce_slots", kThreads.reduce_slots},
      {"codec_threads", kThreads.codec_threads},
      {"service_slots", viaService ? kThreads.service_slots : 0},
      {"service_in_flight", viaService ? kThreads.service_in_flight : 0},
      {"dist_workers", w == Workload::kDistWordcount ? kThreads.dist_workers : 0},
  };
}

RunResult runEndToEnd(const RunOptions& opt) {
  RunResult out;
  const double load = loadAvg1m();
  const bool viaService = opt.workload == Workload::kSlabServiceGzip;

  // Set-up: inputs, codec registration, job build, service construction and
  // one untimed warm-up job. Repeated; the first one counts from process
  // start, so lazy process-level init lands in it.
  std::vector<double> setups;
  Setup s;
  for (int k = 0; k < kSetups; ++k) {
    s = Setup{};  // tear down the previous set-up outside the timed span
    const double t0 = k == 0 ? opt.start_s : nowS();
    scishuffle::registerTransformCodecs();
    s.in = makeInputs(opt.workload, opt.seed, opt.tiny);
    if (viaService) s.svc = makeService(opt.work_dir);
    s.warm = warmUp(s, opt.work_dir);
    setups.push_back(nowS() - t0);
  }

  // The warm-up output is checked against the oracle; every timed job must
  // then reproduce it bit for bit, which checks it against the oracle too.
  const bool warmOk = matchesOracle(*s.in, s.warm);
  if (!warmOk) {
    std::cerr << "perfbench: warm-up job output differs from the oracle\n";
    out.correct = false;
  }
  const auto refCounters = recordCounters(s.warm);
  const u64 intermediate = s.warm.counters.get(hadoop::counter::kMapOutputMaterializedBytes);

  std::vector<double> latencies;
  u64 ok = 0;
  auto check = [&](const JobResult* r) {
    ++out.attempted;
    if (r == nullptr) {
      ++out.failed;
      return;
    }
    if (recordCounters(*r) != refCounters) {
      std::cerr << "perfbench: FATAL: intermediate bytes or record counters differ "
                << "between jobs of seed " << opt.seed << "\n";
      out.correct = false;
    } else if (warmOk && r->outputs == s.warm.outputs) {
      ++ok;
    } else if (warmOk) {  // a wrong warm-up has been reported already
      std::cerr << "perfbench: job output differs from the oracle\n";
    }
  };

  const auto ticks0 = cpuTicks();
  const double cpu0 = cpuSelfS() + cpuChildrenS();
  const double loop0 = nowS();
  const double deadline = loop0 + opt.seconds;
  auto keepGoing = [&] { return out.attempted < kMinJobs || nowS() < deadline; };
  if (viaService) {
    serviceClosedLoop(*s.svc, s.in->job, kThreads.service_in_flight, keepGoing,
                      [&](const service::JobStatus& st, const JobResult* r) {
                        const u64 us = st.finish_us - st.submit_us;  // includes queue wait
                        latencies.push_back(static_cast<double>(us) * 1e-6);
                        check(r);
                      });
  } else {
    while (keepGoing()) {
      const double t = nowS();
      try {
        const JobResult r = runOne(*s.in, opt.work_dir);
        latencies.push_back(nowS() - t);
        check(&r);
      } catch (const std::exception& e) {
        std::cerr << "perfbench: job failed: " << e.what() << "\n";
        check(nullptr);
      }
    }
  }
  const double loopS = nowS() - loop0;
  const double cpuS = cpuSelfS() + cpuChildrenS() - cpu0;
  const auto ticks1 = cpuTicks();
  if (out.attempted == 0 || latencies.empty()) {
    out.correct = false;
    return out;
  }
  const double jobs = static_cast<double>(out.attempted);
  const double latency = median(latencies);
  std::cerr << "perfbench: set-ups (s):";
  for (double t : setups) std::cerr << " " << t;
  std::cerr << "\nperfbench: job latencies (s):";
  for (double t : latencies) std::cerr << " " << t;
  std::cerr << "\n";
  out.metrics = {
      {"setup_s", median(setups), "s"},
      {"job_latency_s", latency, "s"},
      {"cpu_s_per_job", cpuS / jobs, "s"},
      {"intermediate_bytes", static_cast<double>(intermediate), "bytes"},
      {"peak_rss_mb", procStatusMb("VmHWM:"), "MB"},
      {"jobs_per_min", static_cast<double>(out.attempted - out.failed) * 60.0 / loopS, "jobs/min"},
      {"ok_job_ratio", static_cast<double>(ok) / jobs, "ok/attempted"},
  };
  out.host = hostRecord(opt.workload, load);  // after the timed loop: it runs the probe
  out.host["timed_jobs"] = jobs;
  out.host["cpu_per_job_latency"] = cpuS / jobs / latency;
  out.host["busy_cores"] = cpuS / loopS;
  // Host CPU time the hypervisor gave to other guests during the loop.
  out.host["steal_pct"] = ticks1.second == ticks0.second
                              ? 0.0
                              : 100.0 * static_cast<double>(ticks1.first - ticks0.first) /
                                    static_cast<double>(ticks1.second - ticks0.second);
  return out;
}

}  // namespace perfbench
