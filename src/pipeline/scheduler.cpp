#include "pipeline/scheduler.hpp"

#include <algorithm>

namespace gesmc {

namespace {

/// K = ⌊P/T⌋ bounded by the replicate count and the optional user cap.
unsigned concurrency_for(unsigned budget, unsigned chain_threads,
                         std::uint64_t replicates, unsigned cap) noexcept {
    unsigned k = std::max(1u, budget / std::max(1u, chain_threads));
    if (cap > 0) k = std::min(k, cap);
    if (replicates > 0 && replicates < k) k = static_cast<unsigned>(replicates);
    return k;
}

} // namespace

ResolvedSchedule resolve_schedule(const ScheduleRequest& request,
                                  std::uint64_t replicates, unsigned budget) noexcept {
    const unsigned p = std::max(1u, budget);
    // A pinned chain-threads never exceeds the budget: leases of width > P
    // could not be granted.
    const unsigned pinned = std::min(request.chain_threads, p);

    ResolvedSchedule out;
    SchedulePolicy policy = request.policy;
    if (policy == SchedulePolicy::kAuto) {
        if (pinned > 0) {
            // Budget-aware auto: the pinned width selects the policy that
            // realizes it.  (The pre-budget behavior compared R against the
            // full pool width even when chain-threads was pinned.)
            policy = pinned == 1 ? SchedulePolicy::kReplicates
                     : pinned >= p ? SchedulePolicy::kIntraChain
                                   : SchedulePolicy::kHybrid;
        } else {
            policy = replicates >= p ? SchedulePolicy::kReplicates
                                     : SchedulePolicy::kIntraChain;
        }
    }

    switch (policy) {
    case SchedulePolicy::kReplicates:
        out.policy = SchedulePolicy::kReplicates;
        out.chain_threads = 1;
        out.max_concurrent = concurrency_for(p, 1, replicates, request.max_concurrent);
        return out;
    case SchedulePolicy::kIntraChain:
        out.policy = SchedulePolicy::kIntraChain;
        out.chain_threads = pinned > 0 ? pinned : p;
        out.max_concurrent = 1;
        return out;
    case SchedulePolicy::kHybrid: {
        out.policy = SchedulePolicy::kHybrid;
        unsigned t = pinned;
        if (t == 0) {
            // Spread the budget over the replicates: K = min(R, P) teams of
            // T = ⌊P/K⌋ threads — the widest teams that still run all of R
            // concurrently when R < P (T = 1 when R >= P).  Floor, not
            // ceiling: ⌈P/K⌉-wide teams would not all fit in the budget
            // when K does not divide P, silently serializing part of R.
            const unsigned k0 = concurrency_for(p, 1, replicates, request.max_concurrent);
            t = std::max(1u, p / k0);
        }
        out.chain_threads = std::min(std::max(1u, t), p);
        out.max_concurrent =
            concurrency_for(p, out.chain_threads, replicates, request.max_concurrent);
        return out;
    }
    case SchedulePolicy::kAuto:
        break; // unreachable: resolved above
    }
    return out;
}

} // namespace gesmc
