#include "hashing/concurrent_edge_set.hpp"

#include "obs/trace.hpp"

namespace gesmc {

ConcurrentEdgeSet::ConcurrentEdgeSet(std::uint64_t max_live_keys, EdgeSetBackend backend)
    : backend_(backend) {
    if (backend == EdgeSetBackend::kLockFree) {
        lockfree_ = std::make_unique<LockFreeEdgeSet>(max_live_keys);
    } else {
        locked_ = std::make_unique<LockedEdgeSet>(max_live_keys);
    }
}

void ConcurrentEdgeSet::refill(std::span<const std::uint64_t> keys, ThreadPool& pool) {
    const obs::TraceSpan span("edgeset.refill", "hashing");
    if (locked_) {
        locked_->refill(keys, pool);
    } else {
        lockfree_->refill(keys);
    }
}

} // namespace gesmc
