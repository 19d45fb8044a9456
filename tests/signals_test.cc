// Regression tests for `serve`'s signal handling (service/signals.h): the
// first SIGTERM/SIGINT drains the service, a second escalates to cancelling
// the queue. Exercised the way the serve loop wires it — through the socket
// endpoint — so the test covers the full signal -> self-pipe -> watcher ->
// endpoint/service path, not just the guard in isolation.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "service/job_service.h"
#include "service/service_socket.h"
#include "service/signals.h"
#include "service/workload.h"
#include "testing_support.h"

namespace {

using namespace scishuffle;
namespace fs = std::filesystem;
using scishuffle::testing::TempDir;

/// Spec builder for the endpoint: "wordcount ..." via the shared registry,
/// or "slowcount <ms>" — one map task that sleeps, to hold a runner slot
/// while signals arrive.
bool buildSpec(const std::vector<std::string>& args, service::JobSpec& spec,
               std::string& error) {
  if (!args.empty() && args[0] == "slowcount") {
    const long ms = args.size() > 1 ? std::stol(args[1]) : 200;
    spec.name = "slowcount";
    spec.config.num_reducers = 1;
    spec.map_tasks.push_back(hadoop::MapTask{[ms](const hadoop::EmitFn& emit) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      emit(Bytes{'k'}, Bytes{'v'});
    }});
    spec.reduce = [](const Bytes& key, std::vector<Bytes>& values, const hadoop::EmitFn& emit) {
      emit(key, values.front());
    };
    return true;
  }
  try {
    service::Workload w = service::buildWorkload(args.empty() ? "" : args[0],
                                                 {args.begin() + (args.empty() ? 0 : 1), args.end()});
    spec.name = args[0];
    spec.config = std::move(w.config);
    spec.map_tasks = std::move(w.map_tasks);
    spec.reduce = std::move(w.reduce);
    return true;
  } catch (const std::invalid_argument& e) {
    error = e.what();
    return false;
  }
}

bool waitFor(const std::function<bool()>& pred, int timeoutMs) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeoutMs);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

TEST(SignalsTest, FirstSignalDrainsEverythingAdmitted) {
  const TempDir dir("scishuffle-sig");
  service::ServiceConfig config;
  config.max_concurrent_jobs = 2;
  service::JobService svc(config);
  service::ServiceEndpoint endpoint(svc, dir.path() / "svc.sock", buildSpec);
  service::ShutdownSignalGuard guard([&endpoint] { endpoint.requestShutdown(); },
                                     [&svc] { svc.cancelAllQueued(); });

  std::vector<std::string> ids;
  for (int i = 0; i < 3; ++i) {
    const std::string r = service::ServiceEndpoint::request(endpoint.socketPath(),
                                                            "submit normal wordcount 2 100");
    ASSERT_EQ(r.rfind("ok id=", 0), 0u) << r;
    ids.push_back(r.substr(6));
  }

  ASSERT_EQ(std::raise(SIGTERM), 0);
  // The signal path is the only thing that can unblock this wait.
  endpoint.waitUntilShutdownRequested();
  EXPECT_EQ(guard.signalCount(), 1);

  endpoint.stop();
  svc.shutdown(service::JobService::Shutdown::kDrainQueued);
  // Drain semantics: everything admitted before the signal still ran.
  for (const std::string& id : ids) {
    const auto status = svc.status(std::stoull(id));
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, service::JobState::kDone) << "job " << id;
  }
}

TEST(SignalsTest, SecondSignalCancelsTheQueue) {
  const TempDir dir("scishuffle-sig");
  service::ServiceConfig config;
  config.max_concurrent_jobs = 1;  // one slot, so later submissions queue up
  service::JobService svc(config);
  service::ServiceEndpoint endpoint(svc, dir.path() / "svc.sock", buildSpec);
  service::ShutdownSignalGuard guard([&endpoint] { endpoint.requestShutdown(); },
                                     [&svc] { svc.cancelAllQueued(); });

  const std::string slow = service::ServiceEndpoint::request(endpoint.socketPath(),
                                                             "submit normal slowcount 700");
  ASSERT_EQ(slow.rfind("ok id=", 0), 0u) << slow;
  const std::string slowId = slow.substr(6);
  ASSERT_TRUE(waitFor([&svc] { return svc.runningJobs() == 1; }, 5000))
      << "slow job never started";

  std::vector<std::string> queuedIds;
  for (int i = 0; i < 3; ++i) {
    const std::string r = service::ServiceEndpoint::request(endpoint.socketPath(),
                                                            "submit batch wordcount 2 100");
    ASSERT_EQ(r.rfind("ok id=", 0), 0u) << r;
    queuedIds.push_back(r.substr(6));
  }
  ASSERT_EQ(svc.queuedJobs(), 3u);

  ASSERT_EQ(std::raise(SIGTERM), 0);  // first: request drain
  endpoint.waitUntilShutdownRequested();
  ASSERT_EQ(std::raise(SIGINT), 0);  // second: cancel the queue
  ASSERT_TRUE(waitFor([&svc] { return svc.queuedJobs() == 0; }, 5000))
      << "second signal did not clear the queue";
  EXPECT_EQ(guard.signalCount(), 2);

  // The endpoint is still serving: the cancelled jobs are visible as such
  // over the socket before teardown, exactly what an operator would observe.
  for (const std::string& id : queuedIds) {
    const std::string line =
        service::ServiceEndpoint::request(endpoint.socketPath(), "status " + id);
    EXPECT_NE(line.find("cancelled"), std::string::npos) << line;
  }

  endpoint.stop();
  svc.shutdown(service::JobService::Shutdown::kDrainQueued);
  const auto slowStatus = svc.status(std::stoull(slowId));
  ASSERT_TRUE(slowStatus.has_value());
  EXPECT_EQ(slowStatus->state, service::JobState::kDone)
      << "running job must finish even after queue cancellation";
}

TEST(SignalsTest, ThirdSignalIsIgnoredAndHandlersRestore) {
  {
    int first = 0;
    int second = 0;
    service::ShutdownSignalGuard guard([&first] { ++first; }, [&second] { ++second; });
    ASSERT_EQ(std::raise(SIGINT), 0);
    ASSERT_EQ(std::raise(SIGINT), 0);
    ASSERT_EQ(std::raise(SIGINT), 0);  // saturates: no third callback
    ASSERT_TRUE(waitFor([&guard] { return guard.signalCount() == 2; }, 5000));
    // Give a straggling third delivery a chance to (incorrectly) fire.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(first, 1);
    EXPECT_EQ(second, 1);
    EXPECT_EQ(guard.signalCount(), 2);
  }
  // Guard destroyed: handlers restored, a fresh guard starts from zero.
  int first = 0;
  service::ShutdownSignalGuard fresh([&first] { ++first; }, [] {});
  EXPECT_EQ(fresh.signalCount(), 0);
  ASSERT_EQ(std::raise(SIGTERM), 0);
  ASSERT_TRUE(waitFor([&fresh] { return fresh.signalCount() == 1; }, 5000));
  EXPECT_EQ(first, 1);
}

}  // namespace
