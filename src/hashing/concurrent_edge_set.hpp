/// \file concurrent_edge_set.hpp
/// \brief Concurrent edge hash set (paper §5.2).
///
/// Each edge lives in one 64-bit atomic bucket word that holds its
/// (canonical) key.  Open addressing with linear probing and tombstones:
/// once a key is placed it never moves until erased, and an insert
/// recycles the first tombstone its probe chain passes.  Keys are the
/// 56-bit edge keys of graphs with up to 2^28 nodes, the paper's
/// restriction.  Live and tombstone counts are per-thread cells
/// (count_cells.hpp).  docs/hashing.md has the design.
///
/// Thread-safety contract, one writer model:
///  * contains and prefetch are lock-free and may run concurrently with
///    the writers;
///  * insert_unique / erase_unique may run concurrently as long as no two
///    threads write the *same key* at once — exactly the situation in the
///    apply passes of ParallelSuperstep (at most one legal inserter or
///    eraser per edge, Observation 2);
///  * refill() only at quiescent points;
///  * size() and needs_rebuild() sum per-thread count cells, so they are
///    exact only at quiescent points.
///
/// Keys live in (kEmpty, kTomb).  insert_unique rejects any other key;
/// contains and erase_unique report it absent and leave the table
/// untouched.
///
/// Tombstones accumulate under erase; when their share crosses a threshold
/// (needs_rebuild), callers that hold the exact live key list — the chains
/// between supersteps — refill() the set with it on their pool.
///
/// The buckets live in a TableStorage (util/table_storage.hpp), on huge
/// pages from 2 MiB up; the key-span constructor first-touches them on its
/// pool.
#pragma once

#include "hashing/count_cells.hpp"
#include "hashing/edge_set_backend.hpp"
#include "hashing/hash.hpp"
#include "parallel/thread_pool.hpp"
#include "util/prefetch.hpp"
#include "util/table_storage.hpp"

#include <atomic>
#include <cstdint>
#include <span>

namespace gesmc {

class ConcurrentEdgeSet {
public:
    static constexpr std::uint64_t kEmpty = 0;
    static constexpr std::uint64_t kTomb = (1ULL << 56) - 1; // encodes the impossible
                                                             // loop (2^28-1, 2^28-1)

    /// Creates a set sized for `max_live_keys` simultaneously live keys.
    /// The second parameter is a stub (edge_set_backend.hpp).
    explicit ConcurrentEdgeSet(std::uint64_t max_live_keys,
                               EdgeSetBackend = EdgeSetBackend::kLocked);

    /// Creates a set sized for `keys.size()` live keys holding `keys`,
    /// built on the pool's threads.  Same contract as refill().
    ConcurrentEdgeSet(std::span<const std::uint64_t> keys, ThreadPool& pool);

    ConcurrentEdgeSet(const ConcurrentEdgeSet&) = delete;
    ConcurrentEdgeSet& operator=(const ConcurrentEdgeSet&) = delete;

    [[nodiscard]] std::uint64_t size() const noexcept { return counts_.live(); }
    [[nodiscard]] std::uint64_t bucket_count() const noexcept { return table_.size(); }

    /// Lock-free existence query.
    [[nodiscard]] bool contains(std::uint64_t key) const noexcept;

    /// Issues a prefetch for the probe window of key (paper §5.4).
    void prefetch(std::uint64_t key) const noexcept {
        prefetch_read_2lines(&table_[home(key)]);
    }

    /// Inserts key; returns false if present.  No other thread may write
    /// the same key concurrently.
    bool insert_unique(std::uint64_t key);

    /// Erases key; returns false if absent.  No other thread may write the
    /// same key concurrently.
    bool erase_unique(std::uint64_t key);

    /// True when tombstones crossed the rebuild threshold.
    [[nodiscard]] bool needs_rebuild() const noexcept {
        return counts_.tombs() > table_.size() / 4;
    }

    /// Empties the set and inserts `keys` on the pool's threads.  Contract:
    /// the keys are distinct and in the key domain, and the caller is
    /// quiescent (no other operation overlaps).  Which bucket a key lands
    /// in depends on thread timing; no output may depend on the layout.
    void refill(std::span<const std::uint64_t> keys, ThreadPool& pool);

    /// Calls fn(key) for every live key. NOT thread-safe against writers.
    template <typename F>
    void for_each(F&& fn) const {
        for (const auto& bucket : table_) {
            const std::uint64_t key = bucket.load(std::memory_order_relaxed);
            if (key != kEmpty && key != kTomb) fn(key);
        }
    }

private:
    [[nodiscard]] std::uint64_t home(std::uint64_t key) const noexcept {
        return edge_hash(key) >> shift_;
    }

    void note_psl(std::uint64_t distance) noexcept;

    /// Claims the first empty bucket of a key known to be absent from a
    /// tombstone-free table; returns its distance from home.
    std::uint64_t place(std::uint64_t key) noexcept;

    /// Places `keys` into the empty table on the pool's threads.
    void fill(std::span<const std::uint64_t> keys, ThreadPool& pool);

    TableStorage<std::atomic<std::uint64_t>> table_;
    std::uint64_t mask_ = 0;
    unsigned shift_ = 64;
    CountCells counts_;
    std::atomic<std::uint64_t> psl_max_{0}; // feeds the hashset.psl_max gauge
};

/// The set behind the contains/erase/insert interface of
/// apply_switch_sequential (core/sequential_apply.hpp), for a caller that
/// is its only writer: erase and insert are the *_unique operations.
struct OneWriterSet {
    ConcurrentEdgeSet& set;
    [[nodiscard]] bool contains(std::uint64_t key) const { return set.contains(key); }
    void erase(std::uint64_t key) { set.erase_unique(key); }
    void insert(std::uint64_t key) { set.insert_unique(key); }
};

} // namespace gesmc
