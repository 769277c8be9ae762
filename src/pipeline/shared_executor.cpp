#include "pipeline/shared_executor.hpp"

#include "util/check.hpp"

namespace gesmc {

SharedExecutor::SharedExecutor(unsigned threads) : budget_(threads) {
    const unsigned n = budget_.total();
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

SharedExecutor::~SharedExecutor() {
    {
        CheckedLockGuard lock(mutex_);
        stopping_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
}

unsigned SharedExecutor::threads() const noexcept { return budget_.total(); }

ExecutorStats SharedExecutor::stats() const {
    ExecutorStats s;
    s.threads = budget_.total();
    s.leased = budget_.leased();
    s.lease_waiters = budget_.waiting();
    s.inflight_replicates = inflight_replicates_.load(std::memory_order_relaxed);
    CheckedLockGuard lock(mutex_);
    s.active_runs = active_runs_;
    for (const auto& queue : active_) s.pending_replicates += queue->pending.size();
    return s;
}

std::shared_ptr<SharedExecutor::RunQueue>
SharedExecutor::pick_task_locked(std::uint64_t& replicate) {
    // One rotation over the active runs: take one replicate from the first
    // run under its own K cap, then move that run to the back of the ring —
    // each active job contributes one task per round, regardless of size.
    const std::size_t rounds = active_.size();
    for (std::size_t i = 0; i < rounds; ++i) {
        std::shared_ptr<RunQueue> queue = active_.front();
        active_.pop_front();
        if (queue->inflight < queue->max_inflight) {
            replicate = queue->pending.front();
            queue->pending.pop_front();
            ++queue->inflight;
            if (!queue->pending.empty()) active_.push_back(queue);
            return queue;
        }
        active_.push_back(queue); // at its cap; skip this round
    }
    return nullptr;
}

void SharedExecutor::worker_loop() {
    // The run of the replicate this worker just computed.  It is retired in
    // the critical section that picks the next task, so a worker takes on
    // the next replicate itself: a run's replicates stay on the threads,
    // and in the malloc arenas, they started in instead of spreading over
    // every worker.
    std::shared_ptr<RunQueue> finished;
    for (;;) {
        std::shared_ptr<RunQueue> queue;
        std::uint64_t replicate = 0;
        const bool retired = finished != nullptr;
        {
            CheckedUniqueLock lock(mutex_);
            if (finished != nullptr) {
                --finished->inflight;
                if (--finished->remaining == 0) finished->done_cv.notify_all();
                finished.reset();
            }
            work_cv_.wait(lock, [&] {
                mutex_.assert_held();
                if (stopping_ && active_.empty()) return true;
                queue = pick_task_locked(replicate);
                return queue != nullptr;
            });
            // Drain before exiting: a run() may still be counting down on
            // queued replicates when the destructor fires.
            if (queue == nullptr) return;
        }
        // A freed K slot may unblock peers too.
        if (retired) work_cv_.notify_all();
        {
            // The admission gate: every replicate computes under a leased
            // sub-pool of its run's width, so the total computing width
            // across all jobs never exceeds the budget.  Blocking here is
            // fine — the lease queue is FIFO, so a wide lease drains the
            // budget and narrow tasks queue behind it without starvation.
            PoolLease lease = budget_.acquire(queue->width);
            inflight_replicates_.fetch_add(1, std::memory_order_relaxed);
            (*queue->fn)(ReplicateSlot{replicate, lease.width(), lease.pool()});
            inflight_replicates_.fetch_sub(1, std::memory_order_relaxed);
        }
        finished = std::move(queue);
    }
}

void SharedExecutor::run(std::uint64_t replicates, const ScheduleRequest& request,
                         const std::function<void(const ReplicateSlot&)>& fn) {
    GESMC_CHECK(fn != nullptr, "null replicate body");
    if (replicates == 0) return;
    const ResolvedSchedule schedule = resolve_schedule(request, replicates, threads());

    // Hand the replicates to the shared worker team; K = 1 is the same
    // ring entry capped at one in flight, so its replicates run in index
    // order.  The queue is heap-shared with every worker: the final
    // decrement may race with run() returning, and a worker must never
    // touch a waiter's dead stack frame (fn itself is safe by reference —
    // run() cannot return until the last fn call completed).
    auto queue = std::make_shared<RunQueue>();
    for (std::uint64_t r = 0; r < replicates; ++r) queue->pending.push_back(r);
    queue->width = schedule.chain_threads;
    queue->max_inflight = schedule.max_concurrent;
    queue->remaining = replicates;
    queue->fn = &fn;
    CheckedUniqueLock lock(mutex_);
    GESMC_CHECK(!stopping_, "executor is shutting down");
    ++active_runs_;
    active_.push_back(queue);
    work_cv_.notify_all();
    queue->done_cv.wait(lock, [&queue] { return queue->remaining == 0; });
    --active_runs_;
}

} // namespace gesmc
