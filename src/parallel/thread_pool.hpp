/// \file thread_pool.hpp
/// \brief Persistent worker pool with fork-join parallel loops.
///
/// All parallel algorithms in the library (ParallelSuperstep, ParES,
/// ParGlobalES, the parallel permutation sampler, generators)
/// run on this pool.  A pool with P threads executes jobs with thread ids
/// 0..P-1 where id 0 is the calling thread, so a pool with num_threads()==1
/// never context-switches — important for the sequential baselines to be
/// measured without pool overhead.
#pragma once

#include "check/checked_mutex.hpp"

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace gesmc {

class ThreadPool {
public:
    /// Creates a pool that runs jobs on num_threads threads (including the
    /// caller). num_threads == 0 picks std::thread::hardware_concurrency().
    explicit ThreadPool(unsigned num_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] unsigned num_threads() const noexcept { return num_threads_; }

    /// Runs fn(thread_id) once on every thread of the pool and blocks until
    /// all invocations returned. fn must be safe to call concurrently.
    void run(const std::function<void(unsigned)>& fn);

    /// Statically chunked parallel loop over [begin, end): each thread
    /// receives one contiguous range. fn(thread_id, lo, hi).
    template <typename F>
    void for_chunks(std::uint64_t begin, std::uint64_t end, F&& fn) {
        const std::uint64_t n = end - begin;
        if (n == 0) return;
        const unsigned p = num_threads_;
        run([&](unsigned tid) {
            const std::uint64_t lo = begin + n * tid / p;
            const std::uint64_t hi = begin + n * (tid + 1) / p;
            if (lo < hi) fn(tid, lo, hi);
        });
    }

    /// Dynamically chunked parallel loop: threads grab chunks of `grain`
    /// items from a shared counter. Use for irregular per-item work.
    /// fn(thread_id, lo, hi).
    template <typename F>
    void for_chunks_dynamic(std::uint64_t begin, std::uint64_t end, std::uint64_t grain, F&& fn) {
        if (begin >= end) return;
        if (grain == 0) grain = 1;
        std::atomic<std::uint64_t> next{begin};
        run([&](unsigned tid) {
            for (;;) {
                const std::uint64_t lo = next.fetch_add(grain, std::memory_order_relaxed);
                if (lo >= end) break;
                fn(tid, lo, std::min(lo + grain, end));
            }
        });
    }

private:
    void worker_loop(unsigned tid);

    unsigned num_threads_;
    std::vector<std::thread> workers_;

    CheckedMutex mutex_{LockRank::kThreadPool, "ThreadPool"};
    CheckedCondVar cv_start_;
    CheckedCondVar cv_done_;
    /// Deliberately *not* GUARDED_BY(mutex_): run() clears it after the
    /// fork-join completes, synchronized by the active_ acq_rel handshake
    /// rather than the mutex (workers only read job_ under the lock, in an
    /// epoch where run() cannot be clearing it).
    const std::function<void(unsigned)>* job_ = nullptr;
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<unsigned> active_{0};
    bool stop_ GESMC_GUARDED_BY(mutex_) = false;
};

/// Reusable spinning barrier for phase synchronization *inside* a pool job
/// (e.g. between the rounds of ParallelSuperstep). Spin-then-yield keeps
/// latency low for the short phases typical of a superstep.
class SpinBarrier {
public:
    explicit SpinBarrier(unsigned parties) noexcept : parties_(parties) {}

    /// Blocks until all `parties` threads arrived; reusable across phases.
    void arrive_and_wait() noexcept {
        const std::uint64_t gen = generation_.load(std::memory_order_acquire);
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
            arrived_.store(0, std::memory_order_relaxed);
            generation_.fetch_add(1, std::memory_order_release);
            return;
        }
        unsigned spins = 0;
        while (generation_.load(std::memory_order_acquire) == gen) {
            if (++spins > 1024) std::this_thread::yield();
        }
    }

private:
    const unsigned parties_;
    std::atomic<unsigned> arrived_{0};
    std::atomic<std::uint64_t> generation_{0};
};

} // namespace gesmc
