#include "parallel/pool_lease.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

#include <algorithm>
#include <chrono>

namespace gesmc {

namespace {

/// budget.* metrics shared by every ThreadBudget in the process (batch runs
/// and the daemon have exactly one, so process-wide names are unambiguous;
/// a test creating several budgets just sums into the same counters).
struct BudgetMetrics {
    obs::Counter& leases =
        obs::MetricsRegistry::instance().counter("budget.leases.acquired");
    obs::Histogram& wait_us =
        obs::MetricsRegistry::instance().histogram("budget.lease_wait_us");
    obs::Gauge& leased_width =
        obs::MetricsRegistry::instance().gauge("budget.leased_width");
    obs::Gauge& waiting = obs::MetricsRegistry::instance().gauge("budget.waiting");
};

BudgetMetrics& budget_metrics() {
    static BudgetMetrics& m = *new BudgetMetrics();
    return m;
}

} // namespace

void PoolLease::release() noexcept {
    if (budget_ == nullptr) return;
    budget_->release(width_, std::move(pool_));
    budget_ = nullptr;
    width_ = 0;
}

ThreadBudget::ThreadBudget(unsigned total)
    : total_(total == 0 ? std::max(1u, std::thread::hardware_concurrency()) : total) {}

unsigned ThreadBudget::leased() const {
    CheckedLockGuard lock(mutex_);
    return leased_;
}

std::uint64_t ThreadBudget::waiting() const {
    CheckedLockGuard lock(mutex_);
    return next_ticket_ - now_serving_;
}

std::unique_ptr<ThreadPool> ThreadBudget::take_cached_pool_locked(unsigned width) {
    for (auto it = idle_pools_.begin(); it != idle_pools_.end(); ++it) {
        if ((*it)->num_threads() == width) {
            std::unique_ptr<ThreadPool> pool = std::move(*it);
            idle_pools_.erase(it);
            return pool;
        }
    }
    return nullptr;
}

PoolLease ThreadBudget::acquire(unsigned width) {
    GESMC_CHECK(width >= 1 && width <= total_,
                "thread budget: lease of width " + std::to_string(width) +
                    " outside [1, " + std::to_string(total_) + "]");
    std::unique_ptr<ThreadPool> pool;
    {
        const obs::TraceSpan span("lease.wait", "parallel", {{"width", width}});
        const bool measure = obs::metrics_enabled();
        const auto wait_start = measure ? std::chrono::steady_clock::now()
                                        : std::chrono::steady_clock::time_point();
        CheckedUniqueLock lock(mutex_);
        const std::uint64_t ticket = next_ticket_++;
        if (measure) budget_metrics().waiting.set(static_cast<std::int64_t>(
            next_ticket_ - now_serving_));
        cv_.wait(lock, [&] {
            mutex_.assert_held();
            return ticket == now_serving_ && leased_ + width <= total_;
        });
        ++now_serving_;
        leased_ += width;
        if (measure) {
            BudgetMetrics& m = budget_metrics();
            m.leases.add(1);
            m.wait_us.record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - wait_start)
                    .count()));
            m.leased_width.set(leased_);
            m.waiting.set(static_cast<std::int64_t>(next_ticket_ - now_serving_));
        }
        if (width > 1) pool = take_cached_pool_locked(width);
    }
    // The next ticket may already fit alongside this one — wake the queue.
    cv_.notify_all();
    // Cache miss: spawn the pool *after* dropping the lock — thread
    // creation syscalls must not stall the machine-wide admission gate
    // (the width is already reserved, so the accounting stays exact).
    if (width > 1 && pool == nullptr) {
        try {
            pool = std::make_unique<ThreadPool>(width);
        } catch (...) {
            release(width, nullptr); // give the reserved width back
            throw;
        }
    }
    return PoolLease(this, width, std::move(pool));
}

void ThreadBudget::release(unsigned width, std::unique_ptr<ThreadPool> pool) noexcept {
    // Pools evicted beyond the cache bound; destroyed (threads joined)
    // outside the lock so a slow join never stalls the admission gate.
    std::vector<std::unique_ptr<ThreadPool>> evicted;
    {
        CheckedLockGuard lock(mutex_);
        leased_ -= width;
        if (obs::metrics_enabled()) budget_metrics().leased_width.set(leased_);
        if (pool != nullptr) idle_pools_.push_back(std::move(pool));
        // Bound the cache: parked pools may hold at most total_ worker
        // threads in sum, so a long-lived budget serving many widths over
        // time caps its idle footprint at one budget's worth of threads
        // instead of growing with every width ever leased.  Oldest first:
        // recently used widths are the likeliest to be leased again.
        unsigned cached = 0;
        for (const auto& idle : idle_pools_) cached += idle->num_threads();
        while (cached > total_ && !idle_pools_.empty()) {
            cached -= idle_pools_.front()->num_threads();
            evicted.push_back(std::move(idle_pools_.front()));
            idle_pools_.erase(idle_pools_.begin());
        }
    }
    cv_.notify_all();
    evicted.clear();
}

} // namespace gesmc
