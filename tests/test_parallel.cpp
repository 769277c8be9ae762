// Unit tests for the fork-join thread pool.
#include "parallel/thread_pool.hpp"

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

} // namespace
} // namespace gesmc
