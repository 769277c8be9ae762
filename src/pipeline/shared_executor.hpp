/// \file shared_executor.hpp
/// \brief The replicate executor: one thread budget shared by every run.
///
/// SharedExecutor hosts every replicate — of a standalone run (run_pipeline
/// builds a private one), of the graphs of one corpus run, and of the
/// sampling service's jobs — over one budget of P threads, while
/// preserving each run's resolved (K, T) schedule:
///
///   * Every run's replicates become tasks of the run's resolved chain
///     width T; one team of P task workers pops tasks *round-robin across
///     runs* (one replicate from each active run in turn, so a small run is
///     never FIFO-starved behind a thousand-replicate one) and leases T of
///     the budget's threads before computing.
///   * The width-counting lease is the admission gate: a T=4 chain of one
///     run and four T=1 replicates of other runs compute simultaneously,
///     and the total leased width never exceeds P.  Leases are granted in
///     ticket order, so a wide replicate waiting for the budget to drain is
///     never overtaken by narrow replicates that arrive after it.
///   * A lease of width T > 1 carries a team of T threads (the worker is
///     thread 0; width 1 needs none).  Returned teams are cached by width
///     and reused, so steady-state runs never spawn threads per replicate.
///   * A K = 1 run (intra-chain) is a ring entry like any other, capped at
///     one replicate in flight: its replicates run in index order, one at a
///     time, and other runs interleave between its chains; the
///     ChainConfig::shared_pool contract holds because every team is leased
///     to one replicate at a time.
#pragma once

#include "check/checked_mutex.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/scheduler.hpp"

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <thread>
#include <vector>

namespace gesmc {

/// Point-in-time load snapshot of a SharedExecutor — the numbers behind
/// the daemon's `metrics` frame (queue depth, lease occupancy).  Every
/// field but `inflight_replicates` is read in one locked pass; that one is
/// racy by nature, a snapshot rather than a fence.
struct ExecutorStats {
    unsigned threads = 0;                  ///< budget width P
    unsigned leased = 0;                   ///< width currently leased out
    std::uint64_t lease_waiters = 0;       ///< replicates queued for a lease
    std::uint64_t active_runs = 0;         ///< run() calls in flight
    std::uint64_t pending_replicates = 0;  ///< queued, not yet started
    std::uint64_t inflight_replicates = 0; ///< replicates computing now
};

/// Machine-wide replicate executor shared by all concurrently running jobs.
class SharedExecutor final {
public:
    /// `threads` = 0 resolves to hardware concurrency.
    explicit SharedExecutor(unsigned threads);
    ~SharedExecutor();

    SharedExecutor(const SharedExecutor&) = delete;
    SharedExecutor& operator=(const SharedExecutor&) = delete;

    /// Budget width P: what schedules resolve against, reported as
    /// RunReport::threads.
    [[nodiscard]] unsigned threads() const noexcept { return threads_; }

    [[nodiscard]] ExecutorStats stats() const;

    /// Runs `fn` once per replicate index in [0, replicates) under the
    /// schedule `request` resolves to on this budget; blocks until every
    /// body returned.  Bodies run on the task workers, concurrently across
    /// distinct indices, and must not throw — exceptions cannot cross
    /// thread boundaries; catch and record failures per replicate.  Each
    /// body completes its replicate end-to-end (run/resume, checkpoints,
    /// output graph, RunObserver::on_replicate_done) before returning, so
    /// results reach disk and observers as they finish.
    void run(std::uint64_t replicates, const ScheduleRequest& request,
             const std::function<void(const ReplicateSlot&)>& fn);

private:
    /// One concurrent run() call's replicates: the unit the task workers
    /// round-robin over.  Lives in active_ while it still has pending
    /// indices; `inflight` enforces the run's own K cap on top of the
    /// budget's machine-wide one.
    /// All mutable RunQueue fields are guarded by the *executor's* mutex_
    /// (not expressible as GUARDED_BY from a nested struct — the runtime
    /// rank detector and TSan still cover them).
    struct RunQueue {
        std::deque<std::uint64_t> pending;  ///< replicate indices not yet started
        unsigned width = 1;                 ///< T: lease width per replicate
        unsigned max_inflight = 1;          ///< K: the run's concurrency cap
        unsigned inflight = 0;              ///< replicates currently computing
        std::uint64_t remaining = 0;        ///< not yet *completed* replicates
        const std::function<void(const ReplicateSlot&)>* fn = nullptr;
        CheckedCondVar done_cv;             ///< signalled at remaining == 0
    };

    void worker_loop();
    /// Pops the next round-robin task whose run is under its K cap;
    /// null when nothing is currently runnable.
    std::shared_ptr<RunQueue> pick_task_locked(std::uint64_t& replicate)
        GESMC_REQUIRES(mutex_);
    /// Waits in ticket order until `width` threads of the budget are free,
    /// leases them and returns a cached team of that width (null on a miss
    /// or for width 1).
    std::unique_ptr<ThreadPool> lease(unsigned width);

    const unsigned threads_;  ///< budget width P

    /// Load tracking for stats(): workers update it around each body
    /// without holding mutex_.
    std::atomic<std::uint64_t> inflight_replicates_{0};

    mutable CheckedMutex mutex_{LockRank::kSharedExecutor, "SharedExecutor"};
    CheckedCondVar work_cv_;   ///< a run may have become runnable
    CheckedCondVar admit_cv_;  ///< width returned or a ticket served
    /// Round-robin ring of runs with pending replicates: workers pop from
    /// the front and rotate the run to the back.
    std::list<std::shared_ptr<RunQueue>> active_ GESMC_GUARDED_BY(mutex_);
    std::uint64_t active_runs_ GESMC_GUARDED_BY(mutex_) = 0; ///< run() calls in flight
    bool stopping_ GESMC_GUARDED_BY(mutex_) = false;
    unsigned leased_ GESMC_GUARDED_BY(mutex_) = 0;           ///< width held by leases
    std::uint64_t next_ticket_ GESMC_GUARDED_BY(mutex_) = 0; ///< issued to each lease()
    std::uint64_t now_serving_ GESMC_GUARDED_BY(mutex_) = 0; ///< oldest ungranted ticket
    /// Teams of finished replicates kept for reuse, oldest first.
    std::vector<std::unique_ptr<ThreadPool>> idle_teams_ GESMC_GUARDED_BY(mutex_);
    std::vector<std::thread> workers_;
};

} // namespace gesmc
