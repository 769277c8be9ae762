/// \file test_check.cpp
/// \brief CheckedMutex / lock-rank detector unit tests.
///
/// The runtime assertions only exist under GESMC_CHECKED_LOCKS (the
/// Debug/TSan CI legs); in Release builds this suite still compiles and
/// covers the wrapper's plain mutex behaviour.

#include "check/checked_mutex.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace {

using gesmc::CheckedCondVar;
using gesmc::CheckedLockGuard;
using gesmc::CheckedMutex;
using gesmc::CheckedUniqueLock;
using gesmc::LockRank;

TEST(CheckedMutex, GuardsLikeAPlainMutex) {
    CheckedMutex mutex(LockRank::kSharedExecutor, "test.counter");
    int counter = 0;
    std::vector<std::thread> threads;
    threads.reserve(4);
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 1000; ++i) {
                CheckedLockGuard lock(mutex);
                ++counter;
            }
        });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(counter, 4000);
}

TEST(CheckedMutex, TryLockReportsContention) {
    CheckedMutex mutex(LockRank::kSharedExecutor, "test.trylock");
    ASSERT_TRUE(mutex.try_lock());
    std::thread other([&] { EXPECT_FALSE(mutex.try_lock()); });
    other.join();
    mutex.unlock();
    ASSERT_TRUE(mutex.try_lock());
    mutex.unlock();
}

TEST(CheckedMutex, CondVarWaitRoundTrips) {
    CheckedMutex mutex(LockRank::kSharedExecutor, "test.cv");
    CheckedCondVar cv;
    bool ready = false;
    std::thread producer([&] {
        CheckedLockGuard lock(mutex);
        ready = true;
        cv.notify_one();
    });
    {
        CheckedUniqueLock lock(mutex);
        cv.wait(lock, [&] {
            mutex.assert_held();
            return ready;
        });
        EXPECT_TRUE(ready);
    }
    producer.join();
}

TEST(CheckedMutex, InRankAcquisitionOrderIsAccepted) {
    // outer (higher rank) then inner (lower rank) — the documented order.
    CheckedMutex outer(LockRank::kJobManager, "test.outer");
    CheckedMutex inner(LockRank::kMetricsRegistry, "test.inner");
    CheckedLockGuard outer_lock(outer);
    CheckedLockGuard inner_lock(inner);
}

#if defined(GESMC_CHECKED_LOCKS)

/// Captures violation reports instead of aborting, for same-process tests.
class ViolationCapture {
public:
    ViolationCapture() { previous_ = gesmc::set_lock_violation_handler(&record); }
    ~ViolationCapture() {
        gesmc::set_lock_violation_handler(previous_);
        report().clear();
    }

    static std::string& report() {
        static std::string r;
        return r;
    }

private:
    static void record(const char* text) { report() = text; }
    gesmc::LockViolationHandler previous_;
};

TEST(LockRankDetector, SeededInversionIsCaught) {
    ViolationCapture capture;
    CheckedMutex inner(LockRank::kSharedExecutor, "test.executor");
    CheckedMutex outer(LockRank::kServerConnections, "test.server");
    {
        CheckedLockGuard inner_lock(inner);
        // Inversion: the server lock ranks *above* the executor lock, so
        // taking it while the executor lock is held is the deadlock pattern
        // the rank order forbids.
        CheckedLockGuard outer_lock(outer);
    }
    const std::string& report = ViolationCapture::report();
    ASSERT_FALSE(report.empty()) << "inversion not reported";
    EXPECT_NE(report.find("lock-rank violation"), std::string::npos) << report;
    EXPECT_NE(report.find("test.server"), std::string::npos) << report;
    EXPECT_NE(report.find("test.executor"), std::string::npos) << report;
}

TEST(LockRankDetector, EqualRankAcquisitionIsCaught) {
    ViolationCapture capture;
    CheckedMutex a(LockRank::kCorpusLog, "test.log_a");
    CheckedMutex b(LockRank::kCorpusLog, "test.log_b");
    {
        CheckedLockGuard lock_a(a);
        CheckedLockGuard lock_b(b);  // same rank: ordering is undefined
    }
    EXPECT_NE(ViolationCapture::report().find("lock-rank violation"),
              std::string::npos);
}

TEST(LockRankDetector, RecursiveAcquisitionIsCaught) {
    ViolationCapture capture;
    CheckedMutex mutex(LockRank::kToolProgress, "test.recursive");
    mutex.lock();
    // The check runs before the underlying mutex is touched, so a recursive
    // try_lock is refused (never UB) and reported.
    EXPECT_FALSE(mutex.try_lock());
    EXPECT_NE(ViolationCapture::report().find("recursive"), std::string::npos);
    mutex.unlock();
}

TEST(LockRankDetector, AssertHeldFiresWhenUnheld) {
    ViolationCapture capture;
    CheckedMutex mutex(LockRank::kToolProgress, "test.unheld");
    mutex.assert_held();
    EXPECT_NE(ViolationCapture::report().find("assert_held"), std::string::npos);
}

TEST(LockRankDetector, RanksAreThreadLocal) {
    ViolationCapture capture;
    CheckedMutex low(LockRank::kMetricsRegistry, "test.low");
    CheckedMutex high(LockRank::kJobManager, "test.high");
    CheckedLockGuard low_lock(low);
    // Another thread holds nothing, so it may take the higher-ranked lock
    // even while this thread holds the lower-ranked one.
    std::thread other([&] { CheckedLockGuard high_lock(high); });
    other.join();
    EXPECT_TRUE(ViolationCapture::report().empty())
        << ViolationCapture::report();
}

#if GTEST_HAS_DEATH_TEST && !defined(__SANITIZE_THREAD__)
TEST(LockRankDetectorDeathTest, DefaultHandlerAbortsWithBothStacks) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    CheckedMutex inner(LockRank::kMetricsRegistry, "test.death_inner");
    CheckedMutex outer(LockRank::kToolProgress, "test.death_outer");
    EXPECT_DEATH(
        {
            CheckedLockGuard inner_lock(inner);
            CheckedLockGuard outer_lock(outer);
        },
        "lock-rank violation");
}
#endif

#endif  // GESMC_CHECKED_LOCKS

}  // namespace
