#include "pipeline/shared_executor.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

#include <algorithm>
#include <chrono>
#include <string>

namespace gesmc {

namespace {

obs::Histogram& lease_wait_us() {
    static obs::Histogram& h =
        obs::MetricsRegistry::instance().histogram("budget.lease_wait_us");
    return h;
}

} // namespace

SharedExecutor::SharedExecutor(unsigned threads)
    : threads_(threads == 0 ? std::max(1u, std::thread::hardware_concurrency()) : threads) {
    workers_.reserve(threads_);
    for (unsigned i = 0; i < threads_; ++i) {
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

ExecutorStats SharedExecutor::stats() const {
    ExecutorStats s;
    s.threads = threads_;
    s.inflight_replicates = inflight_replicates_.load(std::memory_order_relaxed);
    CheckedLockGuard lock(mutex_);
    s.leased = leased_;
    s.lease_waiters = next_ticket_ - now_serving_;
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

std::unique_ptr<ThreadPool> SharedExecutor::lease(unsigned width) {
    // FIFO: a wide lease drains the budget and narrow ones queue behind it,
    // so no width starves.
    const obs::TraceSpan span("lease.wait", "parallel", {{"width", width}});
    const bool measure = obs::metrics_enabled();
    const auto wait_start =
        measure ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point();
    std::unique_ptr<ThreadPool> team;
    {
        CheckedUniqueLock lock(mutex_);
        const std::uint64_t ticket = next_ticket_++;
        admit_cv_.wait(lock, [&] {
            mutex_.assert_held();
            return ticket == now_serving_ && leased_ + width <= threads_;
        });
        ++now_serving_;
        leased_ += width;
        const auto idle = std::find_if(idle_teams_.begin(), idle_teams_.end(),
                                       [width](const std::unique_ptr<ThreadPool>& t) {
                                           return t->num_threads() == width;
                                       });
        if (idle != idle_teams_.end()) {
            team = std::move(*idle);
            idle_teams_.erase(idle);
        }
    }
    // The next ticket may already fit alongside this one.
    admit_cv_.notify_all();
    if (measure) {
        lease_wait_us().record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - wait_start)
                .count()));
    }
    return team;
}

void SharedExecutor::worker_loop() {
    // The run of the replicate this worker just computed, and the team it
    // computed on.  Both are handed back in the critical section that picks
    // the next task, so a worker takes on the next replicate itself: a
    // run's replicates stay on the threads, and in the malloc arenas, they
    // started in instead of spreading over every worker.
    std::shared_ptr<RunQueue> finished;
    std::unique_ptr<ThreadPool> team;
    for (;;) {
        std::shared_ptr<RunQueue> queue;
        std::uint64_t replicate = 0;
        std::vector<std::unique_ptr<ThreadPool>> evicted;
        const bool retired = finished != nullptr;
        {
            CheckedUniqueLock lock(mutex_);
            if (finished != nullptr) {
                leased_ -= finished->width;
                if (team != nullptr) idle_teams_.push_back(std::move(team));
                // Bound the cache: idle teams hold at most P threads in sum,
                // so an executor serving many widths over time parks one
                // budget's worth of threads, not one team per width ever
                // leased.  Oldest first: recent widths are the likeliest to
                // be leased again.
                unsigned cached = 0;
                for (const auto& idle : idle_teams_) cached += idle->num_threads();
                while (cached > threads_) {
                    cached -= idle_teams_.front()->num_threads();
                    evicted.push_back(std::move(idle_teams_.front()));
                    idle_teams_.erase(idle_teams_.begin());
                }
                // Under the lock: this worker may go on to wait for work,
                // and the width it returned may admit the next ticket.
                admit_cv_.notify_all();
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
        }
        // Joined outside the lock, so a slow join never stalls the gate.
        evicted.clear();
        // Drain before exiting: a run() may still be counting down on
        // queued replicates when the destructor fires.
        if (queue == nullptr) return;
        // A freed K slot may unblock peers too.
        if (retired) work_cv_.notify_all();

        const unsigned width = queue->width;
        team = lease(width);
        // Cache miss: spawn the team outside the lock — thread creation must
        // not stall the gate, and the width is already reserved.
        if (width > 1 && team == nullptr) team = std::make_unique<ThreadPool>(width);
        inflight_replicates_.fetch_add(1, std::memory_order_relaxed);
        (*queue->fn)(ReplicateSlot{replicate, width, team.get()});
        inflight_replicates_.fetch_sub(1, std::memory_order_relaxed);
        finished = std::move(queue);
    }
}

void SharedExecutor::run(std::uint64_t replicates, const ScheduleRequest& request,
                         const std::function<void(const ReplicateSlot&)>& fn) {
    GESMC_CHECK(fn != nullptr, "null replicate body");
    if (replicates == 0) return;
    const ResolvedSchedule schedule = resolve_schedule(request, replicates, threads_);
    GESMC_CHECK(schedule.chain_threads >= 1 && schedule.chain_threads <= threads_,
                "chain width " + std::to_string(schedule.chain_threads) + " outside [1, " +
                    std::to_string(threads_) + "]");

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
