/// \file pool_ref.hpp
/// \brief Owning-or-borrowing handle to a ThreadPool.
///
/// Chains historically constructed a private pool from ChainConfig::threads.
/// The batch-sampling pipeline runs many chains against one machine-level
/// thread budget, so every parallel chain now holds a PoolRef: it either
/// owns a freshly spawned pool (the classic standalone behaviour) or
/// borrows an externally owned one (ChainConfig::shared_pool).  A borrowed
/// pool must outlive the handle, and — since ThreadPool::run is a single
/// fork-join job — at most one chain may execute on it at any moment; the
/// executor guarantees this by handing each chain an exclusively *leased*
/// team of its budget (pipeline/shared_executor.hpp), returned only when
/// the replicate is done.
#pragma once

#include "parallel/thread_pool.hpp"

#include <memory>

namespace gesmc {

class PoolRef {
public:
    /// Owns a new pool with `threads` workers (0 = hardware concurrency).
    explicit PoolRef(unsigned threads)
        : owned_(std::make_unique<ThreadPool>(threads)), pool_(owned_.get()) {}

    /// Borrows `shared`; the caller keeps ownership and must keep the pool
    /// alive for the lifetime of this handle.
    explicit PoolRef(ThreadPool& shared) noexcept : pool_(&shared) {}

    PoolRef(PoolRef&&) noexcept = default;
    PoolRef& operator=(PoolRef&&) noexcept = default;

    [[nodiscard]] ThreadPool& operator*() const noexcept { return *pool_; }
    [[nodiscard]] ThreadPool* operator->() const noexcept { return pool_; }

private:
    std::unique_ptr<ThreadPool> owned_; ///< null when borrowing
    ThreadPool* pool_;
};

/// The chain constructors' one-liner: borrow `shared` when provided,
/// otherwise spawn a private pool with `threads` workers.
inline PoolRef make_pool_ref(ThreadPool* shared, unsigned threads) {
    return shared != nullptr ? PoolRef(*shared) : PoolRef(threads);
}

} // namespace gesmc
