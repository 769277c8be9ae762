/// \file concurrent_edge_set.hpp
/// \brief Concurrent edge hash set facade over two backends (§5.2).
///
/// The paper stores each edge in a 64-bit-wide bucket: 56 bits hold the
/// (canonical) edge key, 8 bits are reserved for locking.  A processing
/// unit acquires a lock by compare-and-swapping its thread id into the lock
/// bits, which succeeds only if the bucket held the edge in an unlocked
/// state.  Buckets are *stable*: once a key is placed it never moves until
/// erased (open addressing with tombstones), so a bucket index is a valid
/// handle for unlock/erase.  This supports graphs with up to 2^28 nodes and
/// up to 254 threads — the same restriction as the paper.
///
/// Two interchangeable backends implement that contract (selection via
/// EdgeSetBackend, full comparison in docs/hashing.md):
///
///   * EdgeSetBackend::kLocked   — LockedEdgeSet: per-bucket CAS plus 4096
///     striped byte locks serializing same-key insert/erase, tombstones
///     recycled in place;
///   * EdgeSetBackend::kLockFree — LockFreeEdgeSet: CAS-only linear probing
///     over cache-line-aligned buckets, bounded probe-sequence length, and
///     epoch-reclaimed rebuilds so readers never block.
///
/// The backend is a runtime knob threaded through ChainConfig; exact chains
/// produce byte-identical trajectories on either (asserted by the
/// backend-matrix suite in test_pipeline), so it never enters ChainState.
///
/// Thread-safety contract (both backends):
///  * contains is lock-free and may run concurrently with everything else;
///  * insert / erase are safe under arbitrary concurrency;
///  * insert_unique / erase_unique are variants whose callers guarantee
///    that no two threads operate on the *same key* concurrently — exactly
///    the situation in the batch update phase of ParallelSuperstep (at most
///    one legal inserter / eraser per edge).  On the locked backend they
///    skip the stripe lock; on the lock-free backend they are the same code
///    as insert / erase;
///  * try_lock / try_insert_and_lock / erase_locked / unlock implement the
///    ticket semantics of NaiveParES (§5.1).  Bucket handles are
///    invalidated by rebuild(), so no ticket may be held across one;
///  * rebuild() and refill() only at quiescent points.  On the lock-free
///    backend, readers that may overlap a rebuild hold a ReadGuard;
///  * size() and needs_rebuild() sum per-thread count cells, so they are
///    exact only at quiescent points.
///
/// Tombstones accumulate under erase; when their share crosses a threshold
/// (or, lock-free only, a placement overflows the PSL bound), callers
/// rebuild at a quiescent point: maybe_rebuild(), or — when they hold the
/// exact live key list, as the chains do between supersteps — refill()
/// with that list on their pool.
#pragma once

#include "hashing/edge_set_backend.hpp"
#include "hashing/epoch.hpp"
#include "hashing/locked_edge_set.hpp"
#include "hashing/lockfree_edge_set.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/bounded.hpp"
#include "util/check.hpp"

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

namespace gesmc {

class ConcurrentEdgeSet {
public:
    static constexpr std::uint64_t kKeyBits = 56;
    static constexpr std::uint64_t kKeyMask = (1ULL << kKeyBits) - 1;
    static constexpr std::uint64_t kEmpty = 0;
    static constexpr std::uint64_t kTomb = kKeyMask; // all key bits set: encodes the
                                                     // impossible loop (2^28-1, 2^28-1)

    /// Result of try_insert_and_lock.
    using InsertLock = EdgeSetInsertLock;

    /// Bounds on sample_uniform's random probing before it falls back to a
    /// count-and-index scan: at the sizing headroom's >= 1/4 live load a
    /// draw hits a live bucket with p >= 1/4, so 64 draws fail with
    /// p <= (3/4)^64 ~ 1e-8 — the scan is a sparse-table / tombstone-flood
    /// escape hatch, not a steady state.
    static constexpr unsigned kMaxSampleDraws = 64;

    /// Creates a set sized for `max_live_keys` simultaneously live keys.
    explicit ConcurrentEdgeSet(std::uint64_t max_live_keys,
                               EdgeSetBackend backend = EdgeSetBackend::kLocked);

    ConcurrentEdgeSet(const ConcurrentEdgeSet&) = delete;
    ConcurrentEdgeSet& operator=(const ConcurrentEdgeSet&) = delete;

    [[nodiscard]] EdgeSetBackend backend() const noexcept { return backend_; }

    [[nodiscard]] std::uint64_t size() const noexcept {
        return locked_ ? locked_->size() : lockfree_->size();
    }
    [[nodiscard]] std::uint64_t bucket_count() const noexcept {
        return locked_ ? locked_->bucket_count() : lockfree_->bucket_count();
    }

    /// Lock-free existence query (ignores lock bits). key in (0, 2^56-1).
    [[nodiscard]] bool contains(std::uint64_t key) const noexcept {
        return locked_ ? locked_->contains(key) : lockfree_->contains(key);
    }

    /// Issues a prefetch for the probe window of key (paper §5.4).
    void prefetch(std::uint64_t key) const noexcept {
        locked_ ? locked_->prefetch(key) : lockfree_->prefetch(key);
    }

    /// General-purpose insert; returns false if the key was present.
    bool insert(std::uint64_t key) {
        return locked_ ? locked_->insert(key) : lockfree_->insert(key);
    }

    /// General-purpose erase; returns false if the key was absent.
    bool erase(std::uint64_t key) {
        return locked_ ? locked_->erase(key) : lockfree_->erase(key);
    }

    /// Insert under the no-concurrent-same-key contract. Returns false if
    /// present.
    bool insert_unique(std::uint64_t key) {
        return locked_ ? locked_->insert_unique(key) : lockfree_->insert_unique(key);
    }

    /// Erase under the no-concurrent-same-key contract. Returns false if
    /// absent.
    bool erase_unique(std::uint64_t key) {
        return locked_ ? locked_->erase_unique(key) : lockfree_->erase_unique(key);
    }

    // ------------------------------------------------------------- tickets

    /// Attempts to lock an existing unlocked key. Returns the bucket index
    /// on success. tid must be in [0, 254); the stored owner is tid+1.
    std::optional<std::uint64_t> try_lock(std::uint64_t key, unsigned tid) noexcept {
        return locked_ ? locked_->try_lock(key, tid) : lockfree_->try_lock(key, tid);
    }

    /// Attempts to insert key in locked state. On kInserted the bucket index
    /// is stored in slot_out and the caller owns the lock.
    InsertLock try_insert_and_lock(std::uint64_t key, unsigned tid, std::uint64_t& slot_out) {
        return locked_ ? locked_->try_insert_and_lock(key, tid, slot_out)
                       : lockfree_->try_insert_and_lock(key, tid, slot_out);
    }

    /// Releases a lock acquired by try_lock / try_insert_and_lock.
    void unlock(std::uint64_t slot) noexcept {
        locked_ ? locked_->unlock(slot) : lockfree_->unlock(slot);
    }

    /// Erases the key in a bucket currently locked by the caller.
    void erase_locked(std::uint64_t slot) noexcept {
        locked_ ? locked_->erase_locked(slot) : lockfree_->erase_locked(slot);
    }

    // ------------------------------------------------------------- service

    /// True when tombstones crossed the rebuild threshold (lock-free: or a
    /// placement overflowed the PSL bound).
    [[nodiscard]] bool needs_rebuild() const noexcept {
        return locked_ ? locked_->needs_rebuild() : lockfree_->needs_rebuild();
    }

    /// Compacts tombstones away. NOT safe against concurrent writers: call
    /// at a quiescent point.  Lock-free backend: concurrent readers are
    /// fine if they hold a ReadGuard (the old table is epoch-retired).
    void rebuild() { locked_ ? locked_->rebuild() : lockfree_->rebuild(); }

    /// rebuild() iff needs_rebuild().
    void maybe_rebuild() {
        if (needs_rebuild()) rebuild();
    }

    /// Empties the set and inserts `keys` on the pool's threads.  Contract:
    /// the keys are distinct and in the key domain, and the caller is
    /// quiescent (no other operation overlaps).  Which bucket a key lands
    /// in depends on thread timing; no output may depend on the layout.
    /// The lock-free backend serves this serially with its own rebuild.
    void refill(std::span<const std::uint64_t> keys, ThreadPool& pool);

    /// Largest placement distance from home the backend has observed (the
    /// lock-free backend keeps this <= kMaxPsl between rebuilds; the locked
    /// backend only tracks it while measuring).
    [[nodiscard]] std::uint64_t max_psl() const noexcept {
        return locked_ ? locked_->max_psl() : lockfree_->max_psl();
    }

    /// The key in bucket `idx`, or 0 when the bucket is empty/tombstone.
    [[nodiscard]] std::uint64_t key_at_bucket(std::uint64_t idx) const noexcept {
        return locked_ ? locked_->key_at_bucket(idx) : lockfree_->key_at_bucket(idx);
    }

    /// Direct access to the lock-free backend (nullptr on kLocked) for
    /// backend-specific tests: PSL overflow state, epoch limbo depth.
    [[nodiscard]] LockFreeEdgeSet* lockfree_backend() noexcept { return lockfree_.get(); }

    /// Pins the epoch for readers that may overlap a rebuild() on the
    /// lock-free backend; a no-op on the locked backend (whose rebuild
    /// mutates in place and tolerates no concurrent readers at all — the
    /// guard cannot help there, see docs/hashing.md).
    class ReadGuard {
    public:
        explicit ReadGuard(const ConcurrentEdgeSet& set) {
            if (set.lockfree_) guard_.emplace(set.lockfree_->epochs());
        }

    private:
        std::optional<EpochDomain::Guard> guard_;
    };

    /// Calls fn(key) for every live key. NOT thread-safe against writers.
    template <typename F>
    void for_each(F&& fn) const {
        if (locked_) {
            locked_->for_each(std::forward<F>(fn));
        } else {
            lockfree_->for_each(std::forward<F>(fn));
        }
    }

    /// Samples a uniformly random live key by probing random buckets
    /// (paper §5.3, "sample directly from the hash-set" option).  NOT
    /// thread-safe against writers.  Expected draws: 1 / load factor.
    /// Draws are capped at kMaxSampleDraws: a sparse or tombstone-flooded
    /// table (possible when callers defer maybe_rebuild) falls back to
    /// counting the live keys and returning a uniformly drawn one by index,
    /// so a call can never spin unboundedly.  Each rejection draw is
    /// uniform over the live keys and so is the fallback, hence the
    /// mixture stays exactly uniform.
    template <typename Urbg>
    [[nodiscard]] std::uint64_t sample_uniform(Urbg& gen) const {
        const std::uint64_t buckets = bucket_count();
        for (unsigned draw = 0; draw < kMaxSampleDraws; ++draw) {
            const std::uint64_t key = key_at_bucket(uniform_below(gen, buckets));
            if (key != kEmpty) return key;
        }
        std::uint64_t live = 0;
        for (std::uint64_t i = 0; i < buckets; ++i) {
            if (key_at_bucket(i) != kEmpty) ++live;
        }
        GESMC_CHECK(live > 0, "cannot sample from an empty set");
        std::uint64_t r = uniform_below(gen, live);
        for (std::uint64_t i = 0; i < buckets; ++i) {
            const std::uint64_t key = key_at_bucket(i);
            if (key != kEmpty && r-- == 0) return key;
        }
        GESMC_CHECK(false, "live keys changed under sample_uniform");
        return kEmpty;
    }

private:
    EdgeSetBackend backend_;
    // Exactly one is non-null; dispatch tests `locked_` (a never-changing,
    // perfectly predicted branch) so both paths stay inline-able.
    std::unique_ptr<LockedEdgeSet> locked_;
    std::unique_ptr<LockFreeEdgeSet> lockfree_;
};

} // namespace gesmc
