/// \file pool_lease.hpp
/// \brief Machine-wide thread budget with width-counted sub-pool leases.
///
/// The scheduling primitive behind hybrid K×T execution (pipeline and
/// sampling service): one ThreadBudget owns a machine-level budget of P
/// threads, and clients *lease* disjoint worker teams of width T out of it.
/// While a lease of width T is outstanding, T of the budget's threads are
/// spoken for — the leasing thread itself counts as one, the lease's
/// ThreadPool contributes the other T-1 — so K = ⌊P/T⌋ equally wide chains
/// can compute at once, or any mix of widths whose sum stays ≤ P.  This
/// replaces both the pipeline's single private pool and the service's
/// binary shared/unique pool gate: a T=4 chain and four T=1 replicates of
/// different jobs now run simultaneously inside one budget.
///
/// Admission is FIFO-fair: acquire() requests are granted strictly in
/// arrival order, so a wide request (an intra-chain chain wanting the whole
/// budget) cannot be starved by a stream of later width-1 requests — the
/// budget drains until the wide request fits, then fills back up.
///
/// Leased pools are cached and reused by width, so steady-state hybrid runs
/// never spawn threads per replicate.  A width-1 lease carries no pool at
/// all (ThreadPool(1) would run inline anyway); chains receive
/// chain_threads = 1 and shared_pool = nullptr, exactly the classic
/// replicate-parallel slot.
///
/// Lifetime: every PoolLease must be released (destroyed) before its
/// ThreadBudget is destroyed.
#pragma once

#include "check/checked_mutex.hpp"
#include "parallel/thread_pool.hpp"

#include <cstdint>
#include <memory>
#include <vector>

namespace gesmc {

class ThreadBudget;

/// RAII handle to `width()` threads of a ThreadBudget.  Move-only; the
/// destructor returns the width (and the cached pool) to the budget.
class PoolLease {
public:
    PoolLease() = default;
    ~PoolLease() { release(); }

    PoolLease(const PoolLease&) = delete;
    PoolLease& operator=(const PoolLease&) = delete;
    PoolLease(PoolLease&& other) noexcept
        : budget_(other.budget_), width_(other.width_), pool_(std::move(other.pool_)) {
        other.budget_ = nullptr;
        other.width_ = 0;
    }
    PoolLease& operator=(PoolLease&& other) noexcept {
        if (this != &other) {
            release();
            budget_ = other.budget_;
            width_ = other.width_;
            pool_ = std::move(other.pool_);
            other.budget_ = nullptr;
            other.width_ = 0;
        }
        return *this;
    }

    /// Leased width; 0 for an empty (moved-from / default) lease.
    [[nodiscard]] unsigned width() const noexcept { return width_; }

    /// The leased fork-join pool of `width()` threads (the caller
    /// participates as thread 0), or nullptr when width() <= 1 — a
    /// single-threaded lease needs no pool.
    [[nodiscard]] ThreadPool* pool() const noexcept { return pool_.get(); }

    [[nodiscard]] explicit operator bool() const noexcept { return width_ > 0; }

    /// Returns the threads to the budget early (idempotent).
    void release() noexcept;

private:
    friend class ThreadBudget;
    PoolLease(ThreadBudget* budget, unsigned width,
              std::unique_ptr<ThreadPool> pool) noexcept
        : budget_(budget), width_(width), pool_(std::move(pool)) {}

    ThreadBudget* budget_ = nullptr;
    unsigned width_ = 0;
    std::unique_ptr<ThreadPool> pool_;
};

/// A budget of `total()` threads from which PoolLeases are carved.
class ThreadBudget {
public:
    /// `total` = 0 resolves to std::thread::hardware_concurrency().
    explicit ThreadBudget(unsigned total = 0);

    /// Destroys the cached idle pools.  All leases must be released first.
    ~ThreadBudget() = default;

    ThreadBudget(const ThreadBudget&) = delete;
    ThreadBudget& operator=(const ThreadBudget&) = delete;

    [[nodiscard]] unsigned total() const noexcept { return total_; }

    /// Outstanding leased width (0 when idle; never exceeds total()).
    [[nodiscard]] unsigned leased() const;

    /// acquire() calls currently queued (FIFO order).  Observability for
    /// tests and daemon status; racy by nature — a snapshot, not a fence.
    [[nodiscard]] std::uint64_t waiting() const;

    /// Blocks until `width` threads are free *and* every earlier acquire has
    /// been served (FIFO), then leases them.  Requires 1 <= width <= total().
    [[nodiscard]] PoolLease acquire(unsigned width);

private:
    friend class PoolLease;
    void release(unsigned width, std::unique_ptr<ThreadPool> pool) noexcept;
    /// Pops an idle cached pool of exactly `width`, or null on a cache
    /// miss — the caller spawns one *outside* the lock then.
    [[nodiscard]] std::unique_ptr<ThreadPool> take_cached_pool_locked(unsigned width)
        GESMC_REQUIRES(mutex_);

    const unsigned total_;

    mutable CheckedMutex mutex_{LockRank::kThreadBudget, "ThreadBudget"};
    CheckedCondVar cv_;
    unsigned leased_ GESMC_GUARDED_BY(mutex_) = 0;
    std::uint64_t next_ticket_ GESMC_GUARDED_BY(mutex_) = 0;  ///< issued to each acquire() on entry
    std::uint64_t now_serving_ GESMC_GUARDED_BY(mutex_) = 0;  ///< oldest unserved ticket
    /// Idle pools kept warm for reuse, keyed by exact width.
    std::vector<std::unique_ptr<ThreadPool>> idle_pools_ GESMC_GUARDED_BY(mutex_);
};

} // namespace gesmc
