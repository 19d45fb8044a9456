// Runtime lock-hierarchy checker (io/lock_order.h via io/annotations.h).
//
// Runs meaningfully only in checked builds (-DSCISHUFFLE_LOCK_ORDER_CHECK=ON,
// which TSan and model-check configurations force). CI's TSan job relies on
// CheckerIsActive below: the `tsan` label carries these tests, so a build
// where the checker silently compiled out fails loudly instead of reporting
// a hollow pass.

#include "io/annotations.h"

#include <gtest/gtest.h>

#include <string>

namespace scishuffle {
namespace {

#ifndef SCISHUFFLE_LOCK_ORDER_CHECK

TEST(LockOrderTest, CheckerIsActive) {
  GTEST_SKIP() << "built without SCISHUFFLE_LOCK_ORDER_CHECK";
}

#else  // SCISHUFFLE_LOCK_ORDER_CHECK

// Test-local levels far above the real hierarchy so these tests never
// perturb edges the production ranks could observe.
constexpr LockLevel kLow{900, "test.low"};
constexpr LockLevel kMid{910, "test.mid"};
constexpr LockLevel kHigh{920, "test.high"};
constexpr LockLevel kHighTwin{920, "test.high_twin"};

class LockOrderTest : public ::testing::Test {
 protected:
  void SetUp() override { lockorder::resetForTest(); }
  void TearDown() override { lockorder::resetForTest(); }
};

TEST_F(LockOrderTest, CheckerIsActive) {
  // The wiring contract CI asserts: tsan-labelled runs have the checker in.
  EXPECT_TRUE(lockorder::enabled());
  EXPECT_EQ(lockorder::violationCount(), 0u);
}

TEST_F(LockOrderTest, AscendingAcquisitionIsAccepted) {
  Mutex low{kLow};
  Mutex mid{kMid};
  Mutex high{kHigh};
  {
    MutexLock a(low);
    MutexLock b(mid);
    MutexLock c(high);
  }
  EXPECT_EQ(lockorder::violationCount(), 0u);
}

TEST_F(LockOrderTest, DescendingAcquisitionThrows) {
  Mutex low{kLow};
  Mutex high{kHigh};
  MutexLock outer(high);
  try {
    MutexLock inner(low);
    FAIL() << "descending acquisition was not rejected";
  } catch (const LockOrderError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("descending rank"), std::string::npos) << what;
    EXPECT_NE(what.find("test.low"), std::string::npos) << what;
    EXPECT_NE(what.find("test.high"), std::string::npos) << what;
    // Both the held lock and the offending acquisition report file:line.
    EXPECT_NE(what.find("lock_order_test.cc:"), std::string::npos) << what;
  }
  EXPECT_EQ(lockorder::violationCount(), 1u);
}

TEST_F(LockOrderTest, SameRankNestingThrows) {
  Mutex a{kHigh};
  Mutex b{kHighTwin};
  MutexLock outer(a);
  EXPECT_THROW({ MutexLock inner(b); }, LockOrderError);
  EXPECT_EQ(lockorder::violationCount(), 1u);
}

TEST_F(LockOrderTest, RecursiveAcquisitionThrows) {
  Mutex mu{kMid};
  MutexLock outer(mu);
  try {
    mu.lock();
    mu.unlock();
    FAIL() << "recursive acquisition was not rejected";
  } catch (const LockOrderError& e) {
    EXPECT_NE(std::string(e.what()).find("recursive acquisition"), std::string::npos);
  }
}

TEST_F(LockOrderTest, ViolationReportsObservedCycleChain) {
  Mutex low{kLow};
  Mutex high{kHigh};
  // Teach the graph the legal edge low -> high first...
  {
    MutexLock a(low);
    MutexLock b(high);
  }
  // ...then invert it. The report must spell out the full cycle as a
  // file:line chain through the observed edge.
  MutexLock outer(high);
  try {
    MutexLock inner(low);
    FAIL() << "inversion was not rejected";
  } catch (const LockOrderError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cycle through observed acquisition edges"), std::string::npos) << what;
    EXPECT_NE(what.find("test.low -> test.high"), std::string::npos) << what;
    EXPECT_NE(what.find("closes the cycle"), std::string::npos) << what;
  }
}

TEST_F(LockOrderTest, UnrankedMutexIsExemptFromValidation) {
  // Test-local mutexes default to unranked: tracked in reports, never
  // order-checked in either direction. The checker works by rank, so each
  // order gets its own pair: one pair taken both ways would be a real
  // lock-order cycle, which TSan's deadlock detector rightly reports. All
  // four stay alive, so no address is reused between the two orders.
  Mutex ranked{kMid};
  Mutex unranked;
  Mutex rankedToo{kMid};
  Mutex unrankedToo;
  {
    MutexLock a(ranked);
    MutexLock b(unranked);
  }
  {
    MutexLock a(unrankedToo);
    MutexLock b(rankedToo);
  }
  EXPECT_EQ(lockorder::violationCount(), 0u);
}

TEST_F(LockOrderTest, TryLockIsExemptButTracked) {
  Mutex low{kLow};
  Mutex high{kHigh};
  MutexLock outer(high);
  // try_lock cannot deadlock, so acquiring down-rank through it is legal...
  ASSERT_TRUE(low.try_lock());
  // ...but the hold is tracked: a plain descending lock now reports both.
  Mutex mid{kMid};
  try {
    mid.lock();
    mid.unlock();
    FAIL() << "descending lock under try_lock hold was not rejected";
  } catch (const LockOrderError& e) {
    EXPECT_NE(std::string(e.what()).find("test.low"), std::string::npos);
  }
  low.unlock();
}

TEST_F(LockOrderTest, MidScopeUnlockReleasesTracking) {
  Mutex low{kLow};
  Mutex high{kHigh};
  MutexLock outer(high);
  outer.unlock();
  // With `high` released, acquiring the lower rank is legal again.
  {
    MutexLock inner(low);
  }
  outer.lock();
  EXPECT_EQ(lockorder::violationCount(), 0u);
}

TEST_F(LockOrderTest, CondVarWaitKeepsHeldSetConsistent) {
  Mutex mu{kMid};
  CondVar cv;
  bool ready = false;
  MutexLock lock(mu);
  cv.notify_all();  // no waiter: exercises the notify path under the checker
  // A zero-length timed wait round-trips release/reacquire bookkeeping.
  while (!ready) {
    (void)cv.wait_for(lock, std::chrono::milliseconds(1));
    ready = true;
  }
  EXPECT_EQ(lockorder::violationCount(), 0u);
}

#endif  // SCISHUFFLE_LOCK_ORDER_CHECK

}  // namespace
}  // namespace scishuffle
