/// \file checked_mutex.cpp
/// \brief Runtime lock-rank detector (compiled only under GESMC_CHECKED_LOCKS).

#include "check/checked_mutex.hpp"

#if defined(GESMC_CHECKED_LOCKS)

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__GLIBC__)
#include <execinfo.h>
#endif

namespace gesmc {
namespace check_detail {
namespace {

/// Far above any legitimate nesting, and small enough to keep the
/// thread-local trivially cheap.
constexpr int kMaxHeldLocks = 16;

struct HeldLock {
    const void* mutex;
    int rank;
    const char* name;
};

struct HeldStack {
    HeldLock locks[kMaxHeldLocks];
    int depth = 0;
};

thread_local HeldStack t_held;

std::atomic<LockViolationHandler> g_handler{nullptr};

void default_handler(const char* report) {
    std::fputs(report, stderr);
#if defined(__GLIBC__)
    std::fputs("current thread backtrace:\n", stderr);
    void* frames[64];
    int n = backtrace(frames, 64);
    backtrace_symbols_fd(frames, n, /*fd=*/2);
#endif
    std::fflush(stderr);
    std::abort();
}

void report_violation(const char* what, const void* mutex, int rank,
                      const char* name) {
    // Built with snprintf (not iostream/string) so the path works even if
    // the violation fires during static destruction or under allocation
    // pressure.
    char buf[2048];
    int off = std::snprintf(
        buf, sizeof(buf),
        "gesmc lock-rank violation: %s\n"
        "  attempted: %-24s rank %3d  (%p)\n"
        "  held by this thread (outermost first):\n",
        what, name != nullptr ? name : "?", rank, mutex);
    for (int i = 0; i < t_held.depth && off < static_cast<int>(sizeof(buf)); ++i) {
        off += std::snprintf(
            buf + off, sizeof(buf) - static_cast<std::size_t>(off),
            "    [%d] %-24s rank %3d  (%p)\n", i,
            t_held.locks[i].name != nullptr ? t_held.locks[i].name : "?",
            t_held.locks[i].rank, t_held.locks[i].mutex);
    }
    if (t_held.depth == 0 && off < static_cast<int>(sizeof(buf))) {
        std::snprintf(buf + off, sizeof(buf) - static_cast<std::size_t>(off),
                      "    (none)\n");
    }
    LockViolationHandler handler = g_handler.load(std::memory_order_acquire);
    (handler != nullptr ? handler : &default_handler)(buf);
}

}  // namespace

bool check_acquire(const void* mutex, int rank, const char* name) {
    for (int i = 0; i < t_held.depth; ++i) {
        if (t_held.locks[i].mutex == mutex) {
            report_violation("recursive acquisition of a non-recursive mutex",
                            mutex, rank, name);
            return false;  // only reached with a non-aborting test handler
        }
        if (t_held.locks[i].rank <= rank) {
            report_violation(
                "acquiring a rank >= one already held (higher rank = outer; "
                "see docs/static_analysis.md)",
                mutex, rank, name);
            return false;
        }
    }
    if (t_held.depth >= kMaxHeldLocks) {
        report_violation("held-lock stack overflow (kMaxHeldLocks)", mutex,
                        rank, name);
        return false;
    }
    return true;
}

void record_acquire(const void* mutex, int rank, const char* name) {
    if (t_held.depth >= kMaxHeldLocks) return;  // reported by check_acquire
    t_held.locks[t_held.depth++] = HeldLock{mutex, rank, name};
}

void note_release(const void* mutex) {
    // Releases need not be LIFO (unique_lock allows arbitrary order), so
    // scan rather than pop.
    for (int i = t_held.depth - 1; i >= 0; --i) {
        if (t_held.locks[i].mutex == mutex) {
            for (int j = i; j + 1 < t_held.depth; ++j) {
                t_held.locks[j] = t_held.locks[j + 1];
            }
            --t_held.depth;
            return;
        }
    }
    report_violation("releasing a mutex this thread does not hold", mutex,
                    /*rank=*/-1, "?");
}

void note_assert_held(const void* mutex, const char* name) {
    for (int i = 0; i < t_held.depth; ++i) {
        if (t_held.locks[i].mutex == mutex) return;
    }
    report_violation("assert_held on a mutex this thread does not hold", mutex,
                    /*rank=*/-1, name);
}

}  // namespace check_detail

LockViolationHandler set_lock_violation_handler(LockViolationHandler handler) {
    return check_detail::g_handler.exchange(handler, std::memory_order_acq_rel);
}

}  // namespace gesmc

#endif  // GESMC_CHECKED_LOCKS
