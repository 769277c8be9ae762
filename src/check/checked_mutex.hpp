/// \file checked_mutex.hpp
/// \brief Annotated mutex wrapper with an optional runtime lock-rank detector.
///
/// Every `std::mutex` in the concurrent subsystems is wrapped in a
/// `CheckedMutex` that carries (1) Clang thread-safety capability
/// attributes, so the clang CI leg statically proves lock discipline under
/// `-Wthread-safety -Werror`, and (2) a documented `LockRank` used by a
/// runtime deadlock detector compiled in only when the `GESMC_CHECKED_LOCKS`
/// CMake option defines the macro of the same name (Debug / TSan CI legs).
///
/// Ranking convention: **higher rank = outer lock**.  A thread may only
/// acquire a mutex whose rank is *strictly lower* than every rank it
/// already holds.  Any acquisition order consistent with the global rank
/// table is deadlock-free; an inversion aborts immediately with the held
/// stack and a backtrace instead of deadlocking some unlucky night in
/// production.  In Release builds the wrapper is exactly a `std::mutex`
/// (the rank is not even stored).
///
/// The full rank table with the nesting evidence for each edge lives in
/// docs/static_analysis.md; keep the two in sync.
#pragma once

#include <condition_variable>
#include <mutex>

#include "check/thread_safety.hpp"

namespace gesmc {

/// Global lock ranks, outermost (largest) to innermost (smallest).
///
/// Gaps are deliberate so future locks slot in without renumbering.  The
/// order encodes every nesting that exists today; docs/static_analysis.md
/// gives the evidence for each rank.
enum class LockRank : int {
    kMetricsRegistry = 0,    ///< obs/metrics.cpp registry maps (innermost leaf)
    kEventLogSink = 5,       ///< obs/log.cpp event-log sink (emits from any layer)
    kTelemetryRing = 8,      ///< obs/timeseries.cpp sampler ring buffer
    kTraceSession = 10,      ///< obs/trace.cpp event buffer
    kThreadPool = 20,        ///< parallel/thread_pool.cpp fork-join state
    kSocketObserver = 40,    ///< service/server.cpp per-job frame stream
    kSharedExecutor = 50,    ///< pipeline/shared_executor.cpp run queues and leases
    kCorpusRowStream = 60,   ///< pipeline/corpus.cpp ndjson row stream
    kCorpusLog = 62,         ///< pipeline/corpus.cpp progress log
    kJobManager = 70,        ///< service/job_manager.cpp job table
    kServerConnections = 80, ///< service/server.cpp connection registry
    kToolProgress = 90,      ///< tools/ progress printers (outermost)
};

#if defined(GESMC_CHECKED_LOCKS)

namespace check_detail {

/// Validates that acquiring (`mutex`, `rank`) now would respect the rank
/// order; on violation invokes the handler (abort by default) and returns
/// false.  Runs *before* the underlying lock call: a genuine inversion
/// under contention would deadlock inside the lock, so checking afterwards
/// would report nothing.
bool check_acquire(const void* mutex, int rank, const char* name);

/// Pushes (`mutex`, `rank`) onto this thread's held stack (no checks).
void record_acquire(const void* mutex, int rank, const char* name);

/// Record the release of `mutex` (need not be LIFO).
void note_release(const void* mutex);

/// Abort (via the violation handler) unless `mutex` is held by this thread.
void note_assert_held(const void* mutex, const char* name);

}  // namespace check_detail

/// Test hook: replace the abort-with-stacks behaviour.  The handler
/// receives a multi-line human-readable report.  Passing `nullptr`
/// restores the default (print to stderr + backtrace + `std::abort`).
/// Returns the previous handler.  Only available in checked builds.
using LockViolationHandler = void (*)(const char* report);
LockViolationHandler set_lock_violation_handler(LockViolationHandler handler);

#endif  // GESMC_CHECKED_LOCKS

/// A `std::mutex` carrying Clang capability attributes and a lock rank.
///
/// Not copyable or movable (like `std::mutex`).  In unchecked builds the
/// rank and name are discarded at construction and the calls compile to
/// bare `std::mutex` operations.
class GESMC_CAPABILITY("mutex") CheckedMutex {
public:
#if defined(GESMC_CHECKED_LOCKS)
    explicit CheckedMutex(LockRank rank, const char* name)
        : rank_(static_cast<int>(rank)), name_(name) {}
#else
    explicit CheckedMutex(LockRank /*rank*/, const char* /*name*/) {}
#endif

    CheckedMutex(const CheckedMutex&) = delete;
    CheckedMutex& operator=(const CheckedMutex&) = delete;

    void lock() GESMC_ACQUIRE() {
#if defined(GESMC_CHECKED_LOCKS)
        check_detail::check_acquire(this, rank_, name_);
#endif
        inner_.lock();
#if defined(GESMC_CHECKED_LOCKS)
        check_detail::record_acquire(this, rank_, name_);
#endif
    }

    void unlock() GESMC_RELEASE() {
#if defined(GESMC_CHECKED_LOCKS)
        check_detail::note_release(this);
#endif
        inner_.unlock();
    }

    bool try_lock() GESMC_TRY_ACQUIRE(true) {
#if defined(GESMC_CHECKED_LOCKS)
        // try_lock participates in the rank order too: a try-acquire of an
        // out-of-rank mutex that happens to succeed is the same latent
        // deadlock, just not on this run.  Checking first also keeps a
        // recursive try_lock away from the underlying mutex (UB).
        if (!check_detail::check_acquire(this, rank_, name_)) return false;
#endif
        if (!inner_.try_lock()) return false;
#if defined(GESMC_CHECKED_LOCKS)
        check_detail::record_acquire(this, rank_, name_);
#endif
        return true;
    }

    /// Runtime + static assertion that the calling thread holds this mutex.
    /// Use inside condition-variable wait predicates so the analysis (and
    /// the checked build) know guarded members are safe to read there.
    void assert_held() const GESMC_ASSERT_CAPABILITY(this) {
#if defined(GESMC_CHECKED_LOCKS)
        check_detail::note_assert_held(this, name_);
#endif
    }

private:
    friend class CheckedUniqueLock;

    std::mutex inner_;
#if defined(GESMC_CHECKED_LOCKS)
    int rank_;
    const char* name_;
#endif
};

/// RAII guard, `std::lock_guard` shaped.  Scoped capability for Clang.
class GESMC_SCOPED_CAPABILITY CheckedLockGuard {
public:
    explicit CheckedLockGuard(CheckedMutex& mutex) GESMC_ACQUIRE(mutex)
        : mutex_(mutex) {
        mutex_.lock();
    }

    ~CheckedLockGuard() GESMC_RELEASE() { mutex_.unlock(); }

    CheckedLockGuard(const CheckedLockGuard&) = delete;
    CheckedLockGuard& operator=(const CheckedLockGuard&) = delete;

private:
    CheckedMutex& mutex_;
};

/// Re-lockable guard, `std::unique_lock` shaped, usable with
/// `CheckedCondVar`.  Internally adopts the wrapped `std::mutex` into a
/// `std::unique_lock` so waits use the native condition variable (no
/// `condition_variable_any` overhead in Release builds).
class GESMC_SCOPED_CAPABILITY CheckedUniqueLock {
public:
    explicit CheckedUniqueLock(CheckedMutex& mutex) GESMC_ACQUIRE(mutex)
        : mutex_(mutex) {
        mutex_.lock();
        inner_ = std::unique_lock<std::mutex>(mutex_.inner_, std::adopt_lock);
    }

    ~CheckedUniqueLock() GESMC_RELEASE() {
        if (inner_.owns_lock()) release_bookkeeping();
    }

    CheckedUniqueLock(const CheckedUniqueLock&) = delete;
    CheckedUniqueLock& operator=(const CheckedUniqueLock&) = delete;

    void lock() GESMC_ACQUIRE() {
#if defined(GESMC_CHECKED_LOCKS)
        check_detail::check_acquire(&mutex_, mutex_.rank_, mutex_.name_);
#endif
        inner_.lock();
#if defined(GESMC_CHECKED_LOCKS)
        check_detail::record_acquire(&mutex_, mutex_.rank_, mutex_.name_);
#endif
    }

    void unlock() GESMC_RELEASE() {
        release_bookkeeping();
        // (bookkeeping first: the rank entry must go before another thread
        // can acquire and re-register the same mutex address.)
    }

    bool owns_lock() const noexcept { return inner_.owns_lock(); }

private:
    friend class CheckedCondVar;

    void release_bookkeeping() {
#if defined(GESMC_CHECKED_LOCKS)
        check_detail::note_release(&mutex_);
#endif
        inner_.unlock();
    }

    CheckedMutex& mutex_;
    std::unique_lock<std::mutex> inner_;
};

/// Condition variable paired with `CheckedMutex` via `CheckedUniqueLock`.
///
/// The rank bookkeeping deliberately keeps the mutex registered as "held"
/// across the wait: a blocked thread acquires nothing, so it cannot create
/// an inversion, and on wake-up the lock is held again — exactly the state
/// the bookkeeping already describes.
class CheckedCondVar {
public:
    void notify_one() noexcept { cv_.notify_one(); }
    void notify_all() noexcept { cv_.notify_all(); }

    void wait(CheckedUniqueLock& lock) { cv_.wait(lock.inner_); }

    template <typename Predicate>
    void wait(CheckedUniqueLock& lock, Predicate pred) {
        cv_.wait(lock.inner_, std::move(pred));
    }

    template <typename Rep, typename Period, typename Predicate>
    bool wait_for(CheckedUniqueLock& lock,
                  const std::chrono::duration<Rep, Period>& dur,
                  Predicate pred) {
        return cv_.wait_for(lock.inner_, dur, std::move(pred));
    }

private:
    std::condition_variable cv_;
};

}  // namespace gesmc
