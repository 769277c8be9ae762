/// \file scheduler.hpp
/// \brief Replicate scheduling over a machine-level thread budget.
///
/// The pipeline's central scheduling decision (cf. Bhuiyan et al.: replicate-
/// and intra-chain parallelism must be traded off together) is *where* the
/// machine's budget of P threads goes.  Every run resolves to a (K, T) point
/// — K replicates computing concurrently, each chain on a leased team of
/// width T, with K·T ≤ P.  SharedExecutor (shared_executor.hpp) leases the
/// teams and runs every point:
///
///   * kReplicates — T = 1, K = min(P, R).  The R replicates are the
///     parallel work items; each chain runs single-threaded.  Best when
///     R >= P (throughput regime: many short chains, zero synchronization
///     inside a superstep).
///   * kIntraChain — K = 1, T = P.  Replicates run strictly one after
///     another, each chain borrowing a whole-budget pool for its parallel
///     supersteps.  Best when R is tiny or the graph is huge (latency
///     regime: few long chains that each saturate the machine).
///   * kHybrid — the middle of the tradeoff: K = ⌊P/T⌋ replicates at once
///     with T threads each.  T comes from `chain-threads` (or is derived as
///     ⌊P / min(R, P)⌋), K is optionally capped by `max-concurrent`.
///   * kAuto — budget-aware: a pinned `chain-threads` selects the policy
///     that realizes it (T = 1 → kReplicates, T >= P → kIntraChain, else
///     kHybrid with K = ⌊P/T⌋); unpinned, it picks kReplicates iff R >= P.
///
/// Replicate outputs are identical under every (K, T) point: every chain
/// is exact and draws all randomness from counter-based streams keyed by
/// its (derived) seed, so results depend neither on the thread count nor
/// on execution order.
#pragma once

#include "pipeline/config.hpp"

#include <cstdint>

namespace gesmc {

class ThreadPool;

/// What a run asks the executor for — the raw config knobs, resolved
/// against the executor's budget width at run time.
struct ScheduleRequest {
    SchedulePolicy policy = SchedulePolicy::kAuto;
    unsigned chain_threads = 0;   ///< T; 0 = derive from the policy
    unsigned max_concurrent = 0;  ///< K cap; 0 = whatever the budget admits
};

/// The (K, T) point a request resolves to on a budget of P threads.
struct ResolvedSchedule {
    SchedulePolicy policy = SchedulePolicy::kReplicates; ///< never kAuto
    unsigned chain_threads = 1;   ///< T: threads leased per chain
    unsigned max_concurrent = 1;  ///< K: replicates computing at once
};

/// Resolves `request` against `replicates` and a budget of `budget`
/// threads.  Guarantees 1 <= T <= max(1, budget) and
/// K * T <= max(1, budget); K is additionally clamped to `replicates`.
[[nodiscard]] ResolvedSchedule resolve_schedule(const ScheduleRequest& request,
                                                std::uint64_t replicates,
                                                unsigned budget) noexcept;

/// Execution context handed to each replicate body.  `shared_pool` is the
/// replicate's *leased* team: `chain_threads` threads of the executor's
/// budget, leased to this replicate alone (null when chain_threads == 1 —
/// a single-threaded chain needs no pool).
struct ReplicateSlot {
    std::uint64_t index;      ///< replicate index in [0, R)
    unsigned chain_threads;   ///< T: threads the chain may use
    ThreadPool* shared_pool;  ///< leased pool to borrow (null: single-threaded)
};

} // namespace gesmc
