// Worker-kill soak: repeated distributed runs in which one worker dies
// SIGKILL-style (_Exit, no unwind, no goodbye frame) at a seeded-random point
// in its task stream — sometimes before its first task, sometimes deep into
// the shuffle. The kill point goes to every worker behind one crash token, so
// the worker that dies is whichever reaches it first, and a death is certain
// however the scheduler shares the tasks out. Every round must recover and
// produce output, record counters and segment bytes identical to the serial
// oracle, and every round leaves per-worker metrics JSONL artifacts (CI
// uploads them via SCISHUFFLE_SOAK_METRICS_DIR).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "hadoop/runtime.h"
#include "service/coordinator.h"
#include "service/workload.h"
#include "job_identity.h"
#include "testing_support.h"

namespace {

using namespace scishuffle;
namespace fs = std::filesystem;
using scishuffle::testing::TempDir;
using scishuffle::testing::slurp;
namespace counter = hadoop::counter;
using scishuffle::testing::propertySeed;

TEST(StressDistributedTest, RandomWorkerKillSoakStaysBitIdentical) {
  const u64 seed = propertySeed();
  std::mt19937_64 rng(seed);
  SCOPED_TRACE(::testing::Message() << "seed=" << seed);

  const std::vector<std::string> args = {"10", "500"};
  const service::Workload workload = service::buildWorkload("wordcount", args);
  const hadoop::JobResult serial =
      hadoop::runJobSerial(workload.config, workload.map_tasks, workload.reduce);

  // Per-round metrics artifacts: overridable so CI can upload them.
  fs::path metricsRoot;
  const TempDir scratch("scishuffle-soak");
  if (const char* env = std::getenv("SCISHUFFLE_SOAK_METRICS_DIR")) {
    metricsRoot = fs::path(env) / "dist";
  } else {
    metricsRoot = scratch.path() / "metrics";
  }
  fs::create_directories(metricsRoot);

  constexpr int kRounds = 4;
  constexpr int kWorkers = 3;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(::testing::Message() << "round=" << round);
    const TempDir dir("scishuffle-soak");
    service::DistributedConfig cfg;
    cfg.num_workers = kWorkers;
    cfg.worker_command = {SCISHUFFLE_WORKER_BIN};
    cfg.work_dir = dir.path();
    cfg.heartbeat_interval_ms = 10;
    cfg.heartbeat_timeout_ms = 2000;
    cfg.transport_retry.enabled = true;
    cfg.transport_retry.max_attempts = 5;
    cfg.transport_retry.base_backoff_us = 500;
    cfg.transport_retry.max_backoff_us = 20'000;
    cfg.metrics_path = metricsRoot / ("coordinator-round-" + std::to_string(round) + ".jsonl");
    cfg.sample_interval_ms = 10;
    cfg.worker_metrics_dir = metricsRoot / ("round-" + std::to_string(round));

    // Seeded-random kill point, given to every worker with one crash token:
    // exactly one worker dies, the first to be handed its (killAfter+1)-th
    // task. The scheduler gives each task to whichever registered worker is
    // idle, so a single pre-chosen victim may get too few tasks and never die;
    // across all workers the point is certain, since 10 tasks on 3 workers
    // give some worker at least 4 assignments.
    const int killAfter = static_cast<int>(rng() % 3);
    SCOPED_TRACE(::testing::Message() << "killAfter=" << killAfter);
    const fs::path token = dir.path() / "crash-token";
    cfg.extra_worker_args.assign(kWorkers, {"--exit-after-tasks", std::to_string(killAfter),
                                            "--crash-token", token.string()});

    const service::DistributedResult dist = service::runDistributedJob("wordcount", args, cfg);

    EXPECT_EQ(dist.job.outputs, serial.outputs) << "recovered output diverged from serial";
    EXPECT_GE(dist.worker_deaths, 1);
    EXPECT_GE(dist.tasks_reexecuted, 1);
    EXPECT_EQ(dist.job.counters.get(counter::kMapOutputRecords),
              serial.counters.get(counter::kMapOutputRecords));
    // A re-executed task's stats and counters fold in once, so the bytes
    // match the oracle's too.
    EXPECT_EQ(scishuffle::testing::segmentByteCounts(dist.job),
              scishuffle::testing::segmentByteCounts(serial));
    const std::string victim = slurp(token);
    ASSERT_FALSE(victim.empty()) << "no worker claimed the crash token";
    SCOPED_TRACE(::testing::Message() << "victim=" << victim);
    for (int w = 0; w < kWorkers; ++w) {
      if (std::to_string(w) == victim) continue;  // the victim's stream may be cut anywhere
      EXPECT_TRUE(fs::exists(cfg.worker_metrics_dir / ("worker-" + std::to_string(w) + ".jsonl")))
          << "missing metrics artifact for surviving worker " << w;
    }
  }
}

}  // namespace
