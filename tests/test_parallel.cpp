// Unit tests for the thread pool, spin barrier, and the thread budget /
// pool lease primitive behind hybrid K x T scheduling.
#include "parallel/pool_lease.hpp"
#include "parallel/thread_pool.hpp"

#include "util/check.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

namespace gesmc {
namespace {

TEST(ThreadPool, SingleThreadRunsInline) {
    ThreadPool pool(1);
    EXPECT_EQ(pool.num_threads(), 1u);
    const auto caller = std::this_thread::get_id();
    std::thread::id seen;
    pool.run([&](unsigned tid) {
        EXPECT_EQ(tid, 0u);
        seen = std::this_thread::get_id();
    });
    EXPECT_EQ(seen, caller);
}

TEST(ThreadPool, AllThreadIdsAppearExactlyOnce) {
    for (unsigned p : {2u, 3u, 4u, 8u}) {
        ThreadPool pool(p);
        std::vector<std::atomic<int>> hits(p);
        pool.run([&](unsigned tid) { hits[tid].fetch_add(1); });
        for (unsigned t = 0; t < p; ++t) EXPECT_EQ(hits[t].load(), 1) << "p=" << p << " t=" << t;
    }
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
    ThreadPool pool(4);
    std::atomic<std::uint64_t> sum{0};
    for (int round = 0; round < 200; ++round) {
        pool.run([&](unsigned tid) { sum.fetch_add(tid + 1); });
    }
    EXPECT_EQ(sum.load(), 200ull * (1 + 2 + 3 + 4));
}

TEST(ThreadPool, ForChunksCoversRangeDisjointly) {
    ThreadPool pool(3);
    std::vector<std::atomic<int>> cover(1000);
    pool.for_chunks(0, 1000, [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t i = lo; i < hi; ++i) cover[i].fetch_add(1);
    });
    for (auto& c : cover) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ForChunksEmptyRange) {
    ThreadPool pool(2);
    bool called = false;
    pool.for_chunks(5, 5, [&](unsigned, std::uint64_t, std::uint64_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPool, ForChunksMoreThreadsThanItems) {
    ThreadPool pool(8);
    std::atomic<std::uint64_t> total{0};
    pool.for_chunks(0, 3, [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
        total.fetch_add(hi - lo);
    });
    EXPECT_EQ(total.load(), 3u);
}

TEST(ThreadPool, DynamicChunksCoverRange) {
    ThreadPool pool(4);
    constexpr std::uint64_t n = 12345;
    std::vector<std::atomic<int>> cover(n);
    pool.for_chunks_dynamic(0, n, 17, [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t i = lo; i < hi; ++i) cover[i].fetch_add(1);
    });
    for (std::uint64_t i = 0; i < n; ++i) EXPECT_EQ(cover[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelSumMatchesSequential) {
    ThreadPool pool(4);
    constexpr std::uint64_t n = 1 << 20;
    std::vector<std::uint64_t> partial(pool.num_threads(), 0);
    pool.for_chunks(1, n + 1, [&](unsigned tid, std::uint64_t lo, std::uint64_t hi) {
        std::uint64_t s = 0;
        for (std::uint64_t i = lo; i < hi; ++i) s += i;
        partial[tid] = s;
    });
    const std::uint64_t total = std::accumulate(partial.begin(), partial.end(), std::uint64_t{0});
    EXPECT_EQ(total, n * (n + 1) / 2);
}

TEST(SpinBarrier, SynchronizesPhases) {
    constexpr unsigned p = 4;
    constexpr int phases = 50;
    ThreadPool pool(p);
    SpinBarrier barrier(p);
    // Every thread increments the phase counter; after the barrier all
    // threads must observe the full increment of the previous phase.
    std::vector<std::atomic<int>> counter(phases);
    pool.run([&](unsigned) {
        for (int ph = 0; ph < phases; ++ph) {
            counter[ph].fetch_add(1);
            barrier.arrive_and_wait();
            EXPECT_EQ(counter[ph].load(), static_cast<int>(p));
        }
    });
}

TEST(SpinBarrier, SingleParty) {
    SpinBarrier barrier(1);
    barrier.arrive_and_wait();
    barrier.arrive_and_wait();
    SUCCEED();
}

// ------------------------------------------------------------ ThreadBudget

TEST(ThreadBudget, LeasesCarryPoolsOfTheirWidth) {
    ThreadBudget budget(4);
    EXPECT_EQ(budget.total(), 4u);
    EXPECT_EQ(budget.leased(), 0u);

    PoolLease narrow = budget.acquire(1);
    EXPECT_EQ(narrow.width(), 1u);
    EXPECT_EQ(narrow.pool(), nullptr); // width-1 leases need no pool
    EXPECT_EQ(budget.leased(), 1u);

    PoolLease wide = budget.acquire(3);
    ASSERT_NE(wide.pool(), nullptr);
    EXPECT_EQ(wide.pool()->num_threads(), 3u);
    EXPECT_EQ(budget.leased(), 4u);

    // The leased pool is a working fork-join team.
    std::atomic<unsigned> hits{0};
    wide.pool()->run([&](unsigned) { hits.fetch_add(1); });
    EXPECT_EQ(hits.load(), 3u);

    narrow.release();
    wide.release();
    EXPECT_EQ(budget.leased(), 0u);
}

TEST(ThreadBudget, ReleasedPoolsAreReusedByWidth) {
    ThreadBudget budget(4);
    ThreadPool* first = nullptr;
    {
        PoolLease lease = budget.acquire(2);
        first = lease.pool();
        ASSERT_NE(first, nullptr);
    }
    PoolLease again = budget.acquire(2);
    EXPECT_EQ(again.pool(), first); // cached, not respawned
}

TEST(ThreadBudget, RejectsImpossibleWidths) {
    ThreadBudget budget(2);
    EXPECT_THROW((void)budget.acquire(0), Error);
    EXPECT_THROW((void)budget.acquire(3), Error);
}

TEST(ThreadBudget, FifoUnblocksAWideRequestAgainstNarrowTraffic) {
    // A whole-budget acquire queued behind a running narrow lease must be
    // granted once it drains, even while later narrow requests keep
    // arriving: FIFO admission means a late acquire(1) queues *behind* the
    // wide request although the budget has room for it, instead of barging
    // past it forever.
    ThreadBudget budget(4);
    PoolLease narrow = budget.acquire(1);

    std::atomic<int> grants{0};
    int wide_rank = -1;
    int late_rank = -1;
    std::thread wide([&] {
        PoolLease lease = budget.acquire(4);
        wide_rank = grants.fetch_add(1);
    });
    // Wait until the wide request is queued; it cannot be granted while the
    // narrow lease is out (1 + 4 > 4).
    while (budget.waiting() != 1u) std::this_thread::yield();
    std::thread late([&] {
        PoolLease lease = budget.acquire(1);
        late_rank = grants.fetch_add(1);
    });
    // The late request fits (1 + 1 <= 4) but is younger than the wide one:
    // it must queue, not be granted.  (A barging grant ends the wait too, so
    // a broken budget fails here instead of hanging.)
    while (budget.waiting() < 2u && grants.load() == 0) std::this_thread::yield();
    EXPECT_EQ(grants.load(), 0);
    EXPECT_EQ(budget.leased(), 1u);

    narrow.release();
    wide.join();
    late.join();
    EXPECT_EQ(wide_rank, 0);
    EXPECT_EQ(late_rank, 1);
    EXPECT_EQ(budget.leased(), 0u);
}

TEST(ThreadBudget, MixedWidthStressNeverOversubscribes) {
    // Hammer the budget from 8 threads with random-ish widths and assert
    // the oversubscription invariant from inside the leases: the summed
    // width of concurrently held leases never exceeds the budget.  Run
    // under TSan/ASan in CI this also shakes out gate races.
    constexpr unsigned kBudget = 4;
    constexpr unsigned kThreads = 8;
    constexpr unsigned kIterations = 200;
    ThreadBudget budget(kBudget);
    std::atomic<unsigned> active_width{0};
    std::atomic<unsigned> max_width{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (unsigned i = 0; i < kIterations; ++i) {
                const unsigned width = 1 + (t + i) % kBudget;
                PoolLease lease = budget.acquire(width);
                const unsigned now =
                    active_width.fetch_add(width, std::memory_order_relaxed) + width;
                unsigned seen = max_width.load(std::memory_order_relaxed);
                while (seen < now &&
                       !max_width.compare_exchange_weak(seen, now,
                                                        std::memory_order_relaxed)) {
                }
                if (lease.pool() != nullptr) {
                    std::atomic<unsigned> hits{0};
                    lease.pool()->run([&](unsigned) { hits.fetch_add(1); });
                    EXPECT_EQ(hits.load(), width);
                }
                active_width.fetch_sub(width, std::memory_order_relaxed);
            }
        });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_LE(max_width.load(), kBudget);
    EXPECT_GE(max_width.load(), 1u);
    EXPECT_EQ(budget.leased(), 0u);
}

} // namespace
} // namespace gesmc
