// One worker process of a distributed run: executes assigned map tasks and
// hosts their materialized segments behind the net/ transport, so reduce-side
// fetches are genuine network reads.
//
// Planes (both UNIX-socket, net/frame.h framing):
//   control — the worker dials the coordinator, sends Hello, then loops
//             recv(Assign) -> executeMapTask -> send(TaskDone|TaskFailed).
//             A heartbeat thread shares the connection (sendFrame is
//             internally serialised).
//   data    — the worker listens; each reducer connection carries one
//             FetchRequest -> FetchResponse|FetchError exchange over the
//             segment store.
//
// The worker never schedules: it only executes what the coordinator assigns,
// and it rebuilds the workload from (name, args) via service/workload.h so a
// re-executed task reproduces its bytes exactly. Test hooks (exit_after_tasks,
// hang_after_tasks) turn the process into a deterministic crash/stall dummy
// for the recovery tests (docs/CLUSTER.md).
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "io/common.h"

namespace scishuffle::service {

struct WorkerOptions {
  /// Coordinator control-plane socket to dial.
  std::filesystem::path control_socket;
  /// Data-plane socket this worker binds for reducer fetches.
  std::filesystem::path data_socket;
  u32 worker_id = 0;
  /// Workload rebuilt locally (service/workload.h).
  std::string workload = "wordcount";
  std::vector<std::string> workload_args;
  u64 heartbeat_interval_ms = 20;
  /// Test hook: after completing this many tasks, _Exit(137) on the next
  /// Assign — a deterministic stand-in for SIGKILL mid-shuffle. A worker the
  /// scheduler gives no more than this many tasks never gets there. <0 = never.
  i64 exit_after_tasks = -1;
  /// When set, exit_after_tasks and hang_after_tasks fire only in the worker
  /// that first claims this file (created exclusively, holding its worker
  /// id); a worker that finds it taken carries on. Every worker given the
  /// same hook and token: exactly one fails, the first to be handed its
  /// (n+1)-th task.
  std::filesystem::path crash_token;
  /// Test hook: after completing this many tasks, stop responding AND stop
  /// heartbeating (but stay alive) — exercises the heartbeat-timeout
  /// detection path rather than control-plane EOF. <0 = never.
  i64 hang_after_tasks = -1;
  /// Per-worker scishuffle.metrics.v1 JSONL (worker-side task events and
  /// gauge samples); empty = none.
  std::filesystem::path metrics_path;
  u64 sample_interval_ms = 0;
};

/// Runs the worker loop until the coordinator sends Shutdown or the control
/// connection drops. Returns the process exit code (0 = clean shutdown).
int runWorkerMain(const WorkerOptions& options);

/// Parses `--control <path> --data <path> --id <n> --workload <name>
/// [--workload-arg <a>]... [--heartbeat-ms <n>] [--exit-after-tasks <n>]
/// [--crash-token <path>] [--hang-after-tasks <n>] [--metrics-out <path>]
/// [--sample-ms <n>]` and
/// runs the worker. Shared by the scishuffle_worker binary and the CLI
/// `worker` subcommand.
int workerMainFromArgs(const std::vector<std::string>& args);

}  // namespace scishuffle::service
