// Deterministic schedule exploration (ctest label: modelcheck). Only built
// when -DSCISHUFFLE_MODEL_CHECK=ON routes io/annotations.h and
// scishuffle::Thread through the cooperative scheduler; tests/CMakeLists.txt
// gates registration on the same flag.
//
// The harness tests come first — a seeded racy struct proves the explorer
// finds schedule-dependent assertion failures and that a printed seed
// replays the exact failing interleaving. Then the real subsystems: the
// shuffle server's publish/fetch/teardown under bounded-exhaustive DFS, the
// job driver's map-side failure path, the job service's two shutdown modes,
// and a 500-schedule PCT soak of the governor-squeeze control loop.
#include <gtest/gtest.h>

#ifndef SCISHUFFLE_MODEL_CHECK

TEST(ModelCheckTest, RequiresModelCheckBuild) {
  GTEST_SKIP() << "built without SCISHUFFLE_MODEL_CHECK";
}

#else  // SCISHUFFLE_MODEL_CHECK

#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "hadoop/runtime.h"
#include "hadoop/shuffle.h"
#include "io/annotations.h"
#include "io/thread.h"
#include "obs/sampler.h"
#include "service/governor.h"
#include "service/job_service.h"
#include "testing/schedule.h"
#include "testing_support.h"

namespace scishuffle {
namespace {

using testing::ExploreOptions;
using testing::ExploreResult;
using testing::explore;
using testing::replaySeed;

// ---------------------------------------------------------------------------
// Harness: the explorer itself.

/// Deliberately racy claim: the decision ("nobody claimed yet") and the
/// commit happen under two separate critical sections, so a schedule that
/// interleaves two claimants between them double-claims. This is the classic
/// check-then-act race, invisible to any single run that happens to
/// serialize — exactly what the explorer exists to find.
struct RacyOnce {
  Mutex mu;  // test-local: unranked
  bool claimed = false;
  int winners = 0;

  void claim() {
    bool mine = false;
    {
      MutexLock lock(mu);
      mine = !claimed;
    }
    if (mine) {
      MutexLock lock(mu);
      claimed = true;
      ++winners;
    }
  }
};

void racyBody() {
  RacyOnce once;
  Thread a([&once] { once.claim(); });
  Thread b([&once] { once.claim(); });
  a.join();
  b.join();
  if (once.winners != 1) {
    throw std::logic_error("double claim: winners=" + std::to_string(once.winners));
  }
}

TEST(ModelCheckTest, ExhaustiveSearchFindsTheRace) {
  ExploreOptions opts;
  opts.exhaustive = true;
  opts.max_schedules = 5000;
  const ExploreResult result = explore(racyBody, opts);
  ASSERT_TRUE(result.failed) << "exhaustive DFS missed a schedule-dependent bug ("
                             << result.schedules_run << " schedules)";
  EXPECT_GE(result.failing_schedule, 0);
  EXPECT_NE(result.failure.find("double claim"), std::string::npos) << result.failure;
}

TEST(ModelCheckTest, FailingSeedReplaysDeterministically) {
  ExploreOptions opts;
  opts.max_schedules = 500;
  opts.seed = 7;
  const ExploreResult result = explore(racyBody, opts);
  ASSERT_TRUE(result.failed) << "randomized explorer missed the race in "
                             << result.schedules_run << " schedules";
  // The acceptance contract: the printed seed reproduces the failure, every
  // time, with the identical report.
  const std::string first = replaySeed(racyBody, result.failing_seed, opts);
  const std::string second = replaySeed(racyBody, result.failing_seed, opts);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("double claim"), std::string::npos) << first;
}

TEST(ModelCheckTest, CorrectProgramExhaustsItsScheduleSpace) {
  // The fixed version of RacyOnce: decision and commit share one critical
  // section. DFS must enumerate the whole (small) tree without a failure.
  auto body = [] {
    Mutex mu;
    bool claimed = false;
    int winners = 0;
    auto claim = [&] {
      MutexLock lock(mu);
      if (!claimed) {
        claimed = true;
        ++winners;
      }
    };
    Thread a(claim);
    Thread b(claim);
    a.join();
    b.join();
    if (winners != 1) throw std::logic_error("double claim");
  };
  ExploreOptions opts;
  opts.exhaustive = true;
  opts.max_schedules = 20000;
  const ExploreResult result = explore(body, opts);
  EXPECT_FALSE(result.failed) << result.failure;
  EXPECT_TRUE(result.exhausted) << "space not exhausted in " << result.schedules_run
                                << " schedules";
  EXPECT_GT(result.schedules_run, 1);
}

TEST(ModelCheckTest, DeadlockIsDetectedNotHung) {
  // Classic AB/BA inversion on *unranked* (test-local) mutexes — exempt from
  // the lock-order checker's rank rule, so only the scheduler can see it.
  // The explorer must find the interleaving where both threads hold one lock
  // and report a deadlock instead of hanging the test binary.
  auto body = [] {
    Mutex a;
    Mutex b;
    Thread t1([&] {
      MutexLock la(a);
      MutexLock lb(b);
    });
    Thread t2([&] {
      MutexLock lb(b);
      MutexLock la(a);
    });
    t1.join();
    t2.join();
  };
  ExploreOptions opts;
  opts.exhaustive = true;
  opts.max_schedules = 5000;
  const ExploreResult result = explore(body, opts);
  ASSERT_TRUE(result.failed);
  EXPECT_NE(result.failure.find("deadlock"), std::string::npos) << result.failure;
}

TEST(ModelCheckTest, LostWakeupIsFound) {
  // Signal-before-wait: the waiter samples the flag, drops the lock, and
  // only then decides to wait. A schedule where the signaler sets the flag
  // and notifies inside that window sends the notify to nobody and the
  // waiter parks forever; the scheduler reports the hang as a deadlock and
  // the explorer pins the interleaving.
  auto body = [] {
    Mutex mu;
    CondVar cv;
    bool ready = false;
    Thread waiter([&] {
      bool sawReady = false;
      {
        MutexLock lock(mu);
        sawReady = ready;
      }
      if (!sawReady) {  // BUG: decision made outside the wait's critical section
        MutexLock lock(mu);
        cv.wait(lock);
      }
    });
    {
      MutexLock lock(mu);
      ready = true;
    }
    cv.notify_one();
    waiter.join();
  };
  ExploreOptions opts;
  opts.exhaustive = true;
  opts.max_schedules = 5000;
  const ExploreResult result = explore(body, opts);
  ASSERT_TRUE(result.failed);
  EXPECT_NE(result.failure.find("deadlock"), std::string::npos) << result.failure;
}

// ---------------------------------------------------------------------------
// Subsystems under exploration.

using scishuffle::testing::toBytes;

TEST(ModelCheckShuffleTest, PublishFetchTeardownExhaustive) {
  // Two concurrent publishers race one fetching consumer; every schedule
  // must deliver both segments exactly once, then signal end-of-stream. The
  // server is then destroyed with a third, unfetched publish still queued —
  // the teardown drain path — under every interleaving DFS can reach.
  auto body = [] {
    hadoop::ShuffleServer server(/*numMaps=*/3, /*numReducers=*/1);
    Thread p0([&server] { server.publish(0, {toBytes("alpha")}); });
    Thread p1([&server] { server.publish(1, {toBytes("beta")}); });
    std::multiset<std::string> got;
    for (int i = 0; i < 2; ++i) {
      std::optional<hadoop::ShuffleServer::Fetched> f = server.fetch(0);
      if (!f.has_value()) throw std::logic_error("premature end of stream");
      got.insert(std::string(f->segment.begin(), f->segment.end()));
    }
    p0.join();
    p1.join();
    if (got != std::multiset<std::string>{"alpha", "beta"}) {
      throw std::logic_error("fetch lost or duplicated a segment");
    }
    // Map 2 publishes but is never fetched: ~ShuffleServer must drain it.
    server.publish(2, {toBytes("gamma")});
  };
  ExploreOptions opts;
  opts.exhaustive = true;
  opts.max_schedules = 4000;
  const ExploreResult result = explore(body, opts);
  EXPECT_FALSE(result.failed) << result.failure;
  EXPECT_GT(result.schedules_run, 1);
}

TEST(ModelCheckShuffleTest, AbortWakesBlockedFetcher) {
  // A fetcher parked on an empty queue races abort(); every schedule must
  // end with the fetcher thrown out (or observing the abort on entry) —
  // never a hang, never a silent nullopt.
  auto body = [] {
    hadoop::ShuffleServer server(/*numMaps=*/1, /*numReducers=*/1);
    bool threw = false;
    Thread fetcher([&server, &threw] {
      try {
        (void)server.fetch(0);
      } catch (const std::runtime_error&) {
        threw = true;
      }
    });
    server.abort();
    fetcher.join();
    if (!threw) throw std::logic_error("aborted fetch did not throw");
  };
  ExploreOptions opts;
  opts.exhaustive = true;
  opts.max_schedules = 2000;
  const ExploreResult result = explore(body, opts);
  EXPECT_FALSE(result.failed) << result.failure;
}

/// A map side that publishes map 0's segments and then fails before map 1
/// ever publishes: each reducer holds one segment and is parked waiting for
/// the second when the error surfaces.
class PublishThenThrowMapSide final : public hadoop::MapSide {
 public:
  std::size_t numTasks() const override { return 2; }
  void run(const hadoop::MapSideSink& sink) override {
    sink.server.publish(0, {toBytes("map0-r0"), toBytes("map0-r1")});
    throw std::runtime_error("map side failed");
  }
};

/// One driver run against the failing map side: the map side's own error must
/// come back out of runJob. A fetcher the driver failed to unwind leaves
/// reducePool.wait() blocked, which the scheduler reports as a deadlock.
void runFailingMapSideBody() {
  hadoop::JobConfig config;
  config.num_reducers = 2;
  config.reduce_slots = 2;
  config.codec_threads = 1;
  PublishThenThrowMapSide mapSide;
  const hadoop::ReduceFn reduce = [](const Bytes&, std::vector<Bytes>&, const hadoop::EmitFn&) {};
  try {
    (void)hadoop::runJob(config, mapSide, reduce);
  } catch (const std::runtime_error& e) {
    if (std::string(e.what()) != "map side failed") {
      throw std::logic_error(std::string("driver rethrew the wrong error: ") + e.what());
    }
    return;
  }
  throw std::logic_error("driver swallowed the map side's error");
}

TEST(ModelCheckDriverTest, MapSideFailureUnwindsFetchersUnderDfs) {
  ExploreOptions opts;
  opts.exhaustive = true;
  opts.max_schedules = 4000;
  const ExploreResult result = explore(runFailingMapSideBody, opts);
  EXPECT_FALSE(result.failed) << "schedule " << result.failing_schedule << ": "
                              << result.failure;
  EXPECT_GT(result.schedules_run, 1);
}

TEST(ModelCheckDriverTest, MapSideFailureUnwindsFetchersUnderPct) {
  ExploreOptions opts;
  opts.max_schedules = 500;
  opts.seed = 13;
  const ExploreResult result = explore(runFailingMapSideBody, opts);
  EXPECT_FALSE(result.failed) << "seed " << result.failing_seed << ": " << result.failure;
  EXPECT_EQ(result.schedules_run, 500);
}

service::JobSpec tinyJob(const std::string& name) {
  service::JobSpec spec;
  spec.name = name;
  spec.priority = service::Priority::kNormal;
  spec.config.num_reducers = 1;
  spec.config.map_slots = 1;
  spec.config.reduce_slots = 1;
  spec.config.codec_threads = 1;
  spec.config.intermediate_codec = "null";
  spec.map_tasks.push_back(hadoop::MapTask{[](const hadoop::EmitFn& emit) {
    const Bytes k = toBytes("k");
    const Bytes v = toBytes("v");
    emit(k, v);
  }});
  spec.reduce = [](const Bytes& key, std::vector<Bytes>& values, const hadoop::EmitFn& emit) {
    emit(key, values.front());
  };
  return spec;
}

void runServiceShutdownBody(service::JobService::Shutdown mode) {
  service::ServiceConfig cfg;
  cfg.max_concurrent_jobs = 1;
  cfg.queue_capacity = 4;
  cfg.codec_threads = 1;
  service::JobService service(cfg);
  const service::SubmitResult first = service.submit(tinyJob("mc-a"));
  const service::SubmitResult second = service.submit(tinyJob("mc-b"));
  if (!first.accepted || !second.accepted) throw std::logic_error("admission rejected");
  service.shutdown(mode);
  for (u64 id : {first.id, second.id}) {
    const service::JobStatus status = service.wait(id);
    if (!service::isTerminal(status.state)) throw std::logic_error("non-terminal after shutdown");
    if (mode == service::JobService::Shutdown::kDrainQueued) {
      // Drain runs everything already admitted to completion.
      if (status.state != service::JobState::kDone) {
        throw std::logic_error(std::string("drained job ended ") +
                               service::jobStateName(status.state));
      }
    } else {
      // Cancel mode: a job is either already running (finishes kDone) or
      // still queued (must flip to kCancelled) — nothing else.
      if (status.state != service::JobState::kDone &&
          status.state != service::JobState::kCancelled) {
        throw std::logic_error(std::string("cancelled-queue job ended ") +
                               service::jobStateName(status.state));
      }
    }
  }
}

TEST(ModelCheckServiceTest, ShutdownDrainQueuedUnderExploration) {
  ExploreOptions opts;
  opts.max_schedules = 12;
  opts.seed = 11;
  const ExploreResult result = explore(
      [] { runServiceShutdownBody(service::JobService::Shutdown::kDrainQueued); }, opts);
  EXPECT_FALSE(result.failed) << "seed " << result.failing_seed << ": " << result.failure;
  EXPECT_EQ(result.schedules_run, 12);
}

TEST(ModelCheckServiceTest, ShutdownCancelQueuedUnderExploration) {
  ExploreOptions opts;
  opts.max_schedules = 12;
  opts.seed = 23;
  const ExploreResult result = explore(
      [] { runServiceShutdownBody(service::JobService::Shutdown::kCancelQueued); }, opts);
  EXPECT_FALSE(result.failed) << "seed " << result.failing_seed << ": " << result.failure;
}

TEST(ModelCheckServiceTest, GovernorSqueezePctSoak) {
  // 500 seeded PCT schedules of the squeeze control loop: two publishers
  // race the governor's attach/tick/squeeze/detach path with a budget small
  // enough that the process's real RSS sits near the soft watermark, so the
  // tick's setPendingBytesLimit squeeze (governor.mu_ -> server.mutex_)
  // interleaves with publish/fetch under server.mutex_. Under model check
  // the governor's timed wait fires only as deadlock rescue, so ticks land
  // at schedule-chosen points instead of on a wall clock.
  auto body = [] {
    obs::GaugeRegistry registry;
    service::MemoryGovernor::Config gcfg;
    gcfg.budget_bytes = 64ull << 20;
    gcfg.interval_ms = 1;
    gcfg.job_reserve_bytes = 16ull << 20;
    gcfg.min_pending_limit_bytes = 1ull << 10;
    service::MemoryGovernor governor(gcfg, &registry, /*stream=*/nullptr);
    hadoop::ShuffleServer server(/*numMaps=*/2, /*numReducers=*/1);
    governor.attach(server);
    governor.start();
    Thread p0([&server] { server.publish(0, {toBytes("squeezed-0")}); });
    Thread p1([&server] { server.publish(1, {toBytes("squeezed-1")}); });
    for (int i = 0; i < 2; ++i) {
      std::optional<hadoop::ShuffleServer::Fetched> f = server.fetch(0);
      if (!f.has_value()) throw std::logic_error("segment lost under squeeze");
    }
    p0.join();
    p1.join();
    governor.stop();
    governor.detach(server);
    // stop() takes a final sample, so every schedule observes >= 1 tick, and
    // a throttled governor must never report admission headroom.
    if (governor.sampleCount() == 0) throw std::logic_error("governor never sampled");
    if (governor.throttled() && governor.admissionOk()) {
      throw std::logic_error("throttled governor admitted a job");
    }
  };
  ExploreOptions opts;
  opts.max_schedules = 500;
  opts.seed = 1234;
  const ExploreResult result = explore(body, opts);
  EXPECT_FALSE(result.failed) << "seed " << result.failing_seed << ": " << result.failure;
  EXPECT_EQ(result.schedules_run, 500);
}

}  // namespace
}  // namespace scishuffle

#endif  // SCISHUFFLE_MODEL_CHECK
