/// \file concurrent_edge_set.hpp
/// \brief Concurrent edge hash set (paper §5.2).
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
/// Same-key insert/erase races of the general API are serialized by 4096
/// striped byte spinlocks; tombstones are recycled in place when an
/// insert's probe chain passes one.  Live and tombstone counts are
/// per-thread cells (count_cells.hpp).  docs/hashing.md has the design.
///
/// Thread-safety contract:
///  * contains is lock-free and may run concurrently with everything else;
///  * insert / erase are safe under arbitrary concurrency;
///  * insert_unique / erase_unique are variants whose callers guarantee
///    that no two threads operate on the *same key* concurrently — exactly
///    the situation in the batch update phase of ParallelSuperstep (at most
///    one legal inserter / eraser per edge, Observation 2).  They skip the
///    stripe lock;
///  * try_lock / try_insert_and_lock / erase_locked / unlock implement the
///    ticket semantics of NaiveParES (§5.1).  Bucket handles are
///    invalidated by rebuild(), so no ticket may be held across one;
///  * rebuild() and refill() only at quiescent points;
///  * size() and needs_rebuild() sum per-thread count cells, so they are
///    exact only at quiescent points.
///
/// Keys live in (kEmpty, kTomb).  The inserts reject any other key; the
/// lookups and erases report it absent and leave the table untouched.
///
/// Tombstones accumulate under erase; when their share crosses a threshold,
/// callers rebuild at a quiescent point: maybe_rebuild(), or — when they
/// hold the exact live key list, as the chains do between supersteps —
/// refill() with that list on their pool.
#pragma once

#include "hashing/count_cells.hpp"
#include "hashing/edge_set_backend.hpp"
#include "hashing/hash.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/bounded.hpp"
#include "util/check.hpp"
#include "util/prefetch.hpp"

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace gesmc {

class ConcurrentEdgeSet {
public:
    static constexpr std::uint64_t kKeyBits = 56;
    static constexpr std::uint64_t kKeyMask = (1ULL << kKeyBits) - 1;
    static constexpr std::uint64_t kEmpty = 0;
    static constexpr std::uint64_t kTomb = kKeyMask; // all key bits set: encodes the
                                                     // impossible loop (2^28-1, 2^28-1)

    /// Result of try_insert_and_lock.
    enum class InsertLock { kInserted, kExists, kExistsLocked };

    /// Bounds on sample_uniform's random probing before it falls back to a
    /// count-and-index scan: at the sizing headroom's >= 1/4 live load a
    /// draw hits a live bucket with p >= 1/4, so 64 draws fail with
    /// p <= (3/4)^64 ~ 1e-8 — the scan is a sparse-table / tombstone-flood
    /// escape hatch, not a steady state.
    static constexpr unsigned kMaxSampleDraws = 64;

    /// Creates a set sized for `max_live_keys` simultaneously live keys.
    /// The second parameter is a stub (edge_set_backend.hpp).
    explicit ConcurrentEdgeSet(std::uint64_t max_live_keys,
                               EdgeSetBackend = EdgeSetBackend::kLocked);

    ConcurrentEdgeSet(const ConcurrentEdgeSet&) = delete;
    ConcurrentEdgeSet& operator=(const ConcurrentEdgeSet&) = delete;

    [[nodiscard]] std::uint64_t size() const noexcept { return counts_.live(); }
    [[nodiscard]] std::uint64_t bucket_count() const noexcept { return table_.size(); }

    /// Lock-free existence query (ignores lock bits).
    [[nodiscard]] bool contains(std::uint64_t key) const noexcept;

    /// Issues a prefetch for the probe window of key (paper §5.4).
    void prefetch(std::uint64_t key) const noexcept {
        prefetch_read_2lines(&table_[home(key)]);
    }

    /// General-purpose insert; returns false if the key was present.
    bool insert(std::uint64_t key);

    /// General-purpose erase; returns false if the key was absent.
    bool erase(std::uint64_t key);

    /// Insert under the no-concurrent-same-key contract. Returns false if
    /// present.
    bool insert_unique(std::uint64_t key);

    /// Erase under the no-concurrent-same-key contract. Returns false if
    /// absent.
    bool erase_unique(std::uint64_t key);

    // ------------------------------------------------------------- tickets

    /// Attempts to lock an existing unlocked key. Returns the bucket index
    /// on success. tid must be in [0, 254); the stored owner is tid+1.
    std::optional<std::uint64_t> try_lock(std::uint64_t key, unsigned tid) noexcept;

    /// Attempts to insert key in locked state. On kInserted the bucket index
    /// is stored in slot_out and the caller owns the lock.
    InsertLock try_insert_and_lock(std::uint64_t key, unsigned tid, std::uint64_t& slot_out);

    /// Releases a lock acquired by try_lock / try_insert_and_lock.
    void unlock(std::uint64_t slot) noexcept;

    /// Erases the key in a bucket currently locked by the caller.
    void erase_locked(std::uint64_t slot) noexcept;

    // ------------------------------------------------------------- service

    /// True when tombstones crossed the rebuild threshold.
    [[nodiscard]] bool needs_rebuild() const noexcept {
        return counts_.tombs() > table_.size() / 4;
    }

    /// Compacts tombstones away. NOT safe against concurrent operations:
    /// call at a quiescent point.
    void rebuild();

    /// rebuild() iff needs_rebuild().
    void maybe_rebuild() {
        if (needs_rebuild()) rebuild();
    }

    /// Empties the set and inserts `keys` on the pool's threads.  Contract:
    /// the keys are distinct and in the key domain, and the caller is
    /// quiescent (no other operation overlaps).  Which bucket a key lands
    /// in depends on thread timing; no output may depend on the layout.
    void refill(std::span<const std::uint64_t> keys, ThreadPool& pool);

    /// The key in bucket `idx`, or 0 when the bucket is empty/tombstone.
    [[nodiscard]] std::uint64_t key_at_bucket(std::uint64_t idx) const noexcept {
        const std::uint64_t key = table_[idx].load(std::memory_order_relaxed) & kKeyMask;
        return (key == kTomb) ? 0 : key;
    }

    /// Calls fn(key) for every live key. NOT thread-safe against writers.
    template <typename F>
    void for_each(F&& fn) const {
        for (const auto& bucket : table_) {
            const std::uint64_t key = bucket.load(std::memory_order_relaxed) & kKeyMask;
            if (key != kEmpty && key != kTomb) fn(key);
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
    [[nodiscard]] std::uint64_t home(std::uint64_t key) const noexcept {
        return edge_hash(key) >> shift_;
    }

    [[nodiscard]] std::atomic<std::uint8_t>& stripe(std::uint64_t key) noexcept {
        return stripes_[(edge_hash(key) >> 8) & (kStripes - 1)];
    }

    void lock_stripe(std::atomic<std::uint8_t>& s) noexcept;
    void unlock_stripe(std::atomic<std::uint8_t>& s) noexcept;
    void note_psl(std::uint64_t distance) noexcept;

    bool insert_impl(std::uint64_t key, std::uint64_t locked_state, std::uint64_t* slot_out,
                     bool* exists_locked_out);

    /// Claims the first empty bucket of a key known to be absent from a
    /// tombstone-free table; returns its distance from home.
    std::uint64_t place(std::uint64_t key) noexcept;

    static constexpr std::uint64_t kStripes = 4096;

    std::vector<std::atomic<std::uint64_t>> table_;
    std::vector<std::atomic<std::uint8_t>> stripes_;
    std::uint64_t mask_ = 0;
    unsigned shift_ = 64;
    CountCells counts_;
    std::atomic<std::uint64_t> psl_max_{0}; // feeds the hashset.psl_max gauge
};

} // namespace gesmc
