// Distributed-runtime tests: a coordinator forking real scishuffle_worker
// processes (SCISHUFFLE_WORKER_BIN), with reduce-side fetches crossing genuine
// UNIX-socket transport. The invariant under test everywhere: whatever the
// transport or the workers do — crash, hang, corrupt frames — the job either
// completes bit-identically to the serial baseline or fails loudly.
//
// The binary has its own main: `distributed_test worker ...` runs a worker,
// so a workload registered only here can still be rebuilt on the worker side.
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "hadoop/runtime.h"
#include "net/socket.h"
#include "service/coordinator.h"
#include "service/worker.h"
#include "service/workload.h"
#include "testing/fault_injector.h"
#include "job_identity.h"
#include "testing_support.h"

namespace {

using namespace scishuffle;
namespace fs = std::filesystem;
using scishuffle::testing::TempDir;
using scishuffle::testing::slurp;
namespace counter = hadoop::counter;
using scishuffle::testing::FaultInjector;
using scishuffle::testing::FaultKind;
using scishuffle::testing::FaultPlan;
using scishuffle::testing::FaultRule;

hadoop::JobResult serialBaseline(const std::vector<std::string>& args) {
  service::Workload w = service::buildWorkload("wordcount", args);
  return hadoop::runJobSerial(w.config, w.map_tasks, w.reduce);
}

service::DistributedConfig baseConfig(const fs::path& dir, int workers) {
  service::DistributedConfig cfg;
  cfg.num_workers = workers;
  cfg.worker_command = {SCISHUFFLE_WORKER_BIN};
  cfg.work_dir = dir;
  cfg.heartbeat_interval_ms = 10;
  cfg.heartbeat_timeout_ms = 2000;
  cfg.transport_retry.enabled = true;
  cfg.transport_retry.max_attempts = 5;
  cfg.transport_retry.base_backoff_us = 500;
  cfg.transport_retry.max_backoff_us = 20'000;
  return cfg;
}

/// wordcount with per-stage histograms on: the workload's own telemetry
/// settings must reach a distributed run's result.
constexpr const char* kHistogramWordcount = "wordcount_histograms";

void registerTestWorkloads() {
  service::registerWorkload(kHistogramWordcount, [](const std::vector<std::string>& args) {
    service::Workload w = service::buildWorkload("wordcount", args);
    w.config.collect_histograms = true;
    return w;
  });
}

TEST(DistributedTest, TwoWorkersBitIdenticalToSerial) {
  const TempDir dir("scishuffle-dist");
  const std::vector<std::string> args = {"6", "400"};
  const hadoop::JobResult serial = serialBaseline(args);
  const service::DistributedConfig cfg = baseConfig(dir.path(), 2);
  const service::DistributedResult dist = service::runDistributedJob("wordcount", args, cfg);

  EXPECT_EQ(dist.job.outputs, serial.outputs);
  EXPECT_EQ(dist.workers_spawned, 2);
  EXPECT_EQ(dist.worker_deaths, 0);
  EXPECT_EQ(dist.tasks_reexecuted, 0);
  EXPECT_EQ(dist.recovery_latency_us, 0u);
  EXPECT_EQ(dist.job.counters.get(counter::kWorkerDeathsDetected), 0u);
  // The record-level counters travel worker -> coordinator in TaskDone
  // messages and must fold to exactly the serial totals.
  EXPECT_EQ(scishuffle::testing::recordCounters(dist.job),
            scishuffle::testing::recordCounters(serial));
  // Segments cross the process boundary byte for byte.
  EXPECT_EQ(scishuffle::testing::segmentByteCounts(dist.job),
            scishuffle::testing::segmentByteCounts(serial));
  EXPECT_GT(dist.job.timings.map_phase_us, 0u);
  EXPECT_GT(dist.job.timings.shuffle_us, 0u);
}

TEST(DistributedTest, SingleWorkerMatchesSerial) {
  const TempDir dir("scishuffle-dist");
  const std::vector<std::string> args = {"4", "200"};
  const hadoop::JobResult serial = serialBaseline(args);
  const service::DistributedResult dist =
      service::runDistributedJob("wordcount", args, baseConfig(dir.path(), 1));
  EXPECT_EQ(dist.job.outputs, serial.outputs);
  EXPECT_EQ(dist.worker_deaths, 0);
}

TEST(DistributedTest, WorkerKillMidShuffleRecovers) {
  const TempDir dir("scishuffle-dist");
  const std::vector<std::string> args = {"8", "300"};
  const hadoop::JobResult serial = serialBaseline(args);
  service::DistributedConfig cfg = baseConfig(dir.path(), 2);
  // One worker completes one task, then dies SIGKILL-style (_Exit, no
  // goodbye) on its next assignment — mid-shuffle, because the fetch pump is
  // already pulling its first task's segments while later maps run. The hook
  // goes to both workers behind one crash token, so exactly one dies: a
  // single pre-chosen victim might get fewer than two of the 8 tasks.
  const fs::path token = dir.path() / "crash-token";
  cfg.extra_worker_args.assign(2, {"--exit-after-tasks", "1", "--crash-token", token.string()});
  cfg.metrics_path = dir.path() / "coord-metrics.jsonl";
  cfg.sample_interval_ms = 5;
  cfg.worker_metrics_dir = dir.path() / "workers";
  const service::DistributedResult dist = service::runDistributedJob("wordcount", args, cfg);

  EXPECT_EQ(dist.job.outputs, serial.outputs);
  EXPECT_GE(dist.worker_deaths, 1);
  EXPECT_GE(dist.tasks_reexecuted, 1);
  EXPECT_GT(dist.recovery_latency_us, 0u);
  EXPECT_EQ(dist.job.counters.get(counter::kWorkerDeathsDetected),
            static_cast<u64>(dist.worker_deaths));
  EXPECT_EQ(dist.job.counters.get(counter::kMapTasksReexecuted),
            static_cast<u64>(dist.tasks_reexecuted));
  // Re-executed tasks fold their stats/counters exactly once: record totals
  // still match the baseline.
  EXPECT_EQ(dist.job.counters.get(counter::kMapOutputRecords),
            serial.counters.get(counter::kMapOutputRecords));

  // The death and every requeue are structured metrics events.
  const std::string metrics = slurp(cfg.metrics_path);
  EXPECT_NE(metrics.find("worker.spawned"), std::string::npos);
  EXPECT_NE(metrics.find("worker.lost"), std::string::npos);
  EXPECT_NE(metrics.find("dist.task_reexec"), std::string::npos);
  // The surviving worker streamed its own per-process metrics artifact.
  const std::string victim = slurp(token);
  ASSERT_TRUE(victim == "0" || victim == "1") << "victim: " << victim;
  const std::string survivor = victim == "0" ? "1" : "0";
  EXPECT_TRUE(fs::exists(cfg.worker_metrics_dir / ("worker-" + survivor + ".jsonl")));
}

TEST(DistributedTest, TransportFaultsHealedByReconnect) {
  const TempDir dir("scishuffle-dist");
  const std::vector<std::string> args = {"6", "300"};
  const hadoop::JobResult serial = serialBaseline(args);

  FaultPlan plan;
  plan.seed = 7;
  {
    FaultRule refuse;  // connection refused on two dials
    refuse.site = net::site::kNetConnect;
    refuse.kind = FaultKind::kThrowIo;
    refuse.skip_calls = 2;
    refuse.max_triggers = 2;
    plan.rules.push_back(refuse);
    FaultRule corrupt;  // bit-flip two inbound frames (CRC catches)
    corrupt.site = net::site::kNetFrameRecv;
    corrupt.kind = FaultKind::kCorruptBytes;
    corrupt.skip_calls = 4;
    corrupt.max_triggers = 2;
    plan.rules.push_back(corrupt);
    FaultRule cut;  // truncate one inbound frame mid-payload
    cut.site = net::site::kNetFrameRecv;
    cut.kind = FaultKind::kTruncate;
    cut.skip_calls = 9;
    cut.max_triggers = 1;
    plan.rules.push_back(cut);
  }
  FaultInjector faults(plan);

  service::DistributedConfig cfg = baseConfig(dir.path(), 2);
  cfg.fault_injector = &faults;
  const service::DistributedResult dist = service::runDistributedJob("wordcount", args, cfg);

  EXPECT_EQ(dist.job.outputs, serial.outputs);
  EXPECT_EQ(dist.worker_deaths, 0) << "faults within the retry budget must heal, not kill";
  EXPECT_GE(faults.totalTriggered(), 3u);
  // Every healed fault was a real reconnect, visible in the retry counter.
  EXPECT_GE(dist.job.counters.get(counter::kShuffleFetchRetries), 3u);
}

TEST(DistributedTest, HungWorkerCaughtByHeartbeatTimeout) {
  const TempDir dir("scishuffle-dist");
  const std::vector<std::string> args = {"6", "200"};
  const hadoop::JobResult serial = serialBaseline(args);
  service::DistributedConfig cfg = baseConfig(dir.path(), 2);
  // The first worker to be handed a task goes silent: no heartbeat, no
  // TaskDone, no EOF (the process stays alive). Only the heartbeat timeout
  // can catch this one. The hook goes to both workers behind one crash
  // token: a single pre-chosen worker might register after the other has
  // run every task.
  const fs::path token = dir.path() / "hang-token";
  cfg.extra_worker_args.assign(2, {"--hang-after-tasks", "0", "--crash-token", token.string()});
  cfg.heartbeat_interval_ms = 10;
  cfg.heartbeat_timeout_ms = 250;
  cfg.fetch_recv_timeout_ms = 500;
  const service::DistributedResult dist = service::runDistributedJob("wordcount", args, cfg);

  EXPECT_EQ(dist.job.outputs, serial.outputs);
  EXPECT_GE(dist.worker_deaths, 1);
  EXPECT_GE(dist.tasks_reexecuted, 1);
}

TEST(DistributedTest, WorkloadTelemetryReachesTheResult) {
  const TempDir dir("scishuffle-dist");
  const std::vector<std::string> args = {"6", "300"};
  const service::Workload w = service::buildWorkload(kHistogramWordcount, args);
  const hadoop::JobResult local = hadoop::runJob(w.config, w.map_tasks, w.reduce);
  service::DistributedConfig cfg = baseConfig(dir.path(), 2);
  cfg.worker_command = {fs::read_symlink("/proc/self/exe").string(), "worker"};
  const service::DistributedResult dist =
      service::runDistributedJob(kHistogramWordcount, args, cfg);

  EXPECT_EQ(dist.job.outputs, local.outputs);
  EXPECT_EQ(dist.worker_deaths, 0);
  EXPECT_GT(dist.job.telemetry.span_count, 0u);
  EXPECT_NE(dist.job.telemetry.findHistogram("reduce_task_us"), nullptr);
}

TEST(DistributedTest, AllWorkersLostFailsLoudly) {
  const TempDir dir("scishuffle-dist");
  service::DistributedConfig cfg = baseConfig(dir.path(), 1);
  cfg.extra_worker_args = {{"--exit-after-tasks", "0"}};  // dies on the first task
  EXPECT_THROW(service::runDistributedJob("wordcount", {"4", "100"}, cfg), std::runtime_error);
}

}  // namespace

int main(int argc, char** argv) {
  registerTestWorkloads();
  if (argc > 1 && std::string(argv[1]) == "worker") {
    return service::workerMainFromArgs(std::vector<std::string>(argv + 2, argv + argc));
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
