/// \file dependency_table.hpp
/// \brief The concurrent dependency table T of ParallelSuperstep (paper §4).
///
/// For a superstep of switches sigma_1..sigma_l without source dependencies,
/// the table stores per edge e:
///   * at most one ERASE tuple (e, p): switch sigma_p has e as source edge
///     (unique by Observation 2 of the paper), and
///   * a list of INSERT tuples (e, q): every switch sigma_q that has e as a
///     target edge.
/// Switch *statuses* (undecided / legal / illegal) are shared by all four
/// tuples of a switch, so they live in one external status array indexed by
/// switch id rather than per tuple; lookups return switch indices and the
/// caller reads the status array.  The paper's implicit tuple
/// (e, infinity, erase, illegal) for graph edges untouched by the batch is
/// realized by the caller consulting the graph's edge set when no erase
/// tuple exists.
///
/// Layout: one 32-byte slot per edge (key, erase index, insert-list head,
/// and a round-tagged memo of the minimum live inserter) so that a probe
/// plus both dependency lookups cost a single cache line.  The decision
/// loop first resolves the slot with find_slot() and then reads both roles
/// through the slot handle.
///
/// Concurrency: registration (phase A) runs fully in parallel — slots are
/// claimed by CAS, insert tuples are pushed onto a per-edge lock-free list
/// whose nodes are preallocated in an arena (node 2k+b is target b of
/// switch k, so no allocation happens during a superstep).  Lookups during
/// the decision rounds are wait-free probes.  reset() only touches slots
/// used by the previous superstep.
///
/// Memory: the slots live in a TableStorage (util/table_storage.hpp), on
/// huge pages from 2 MiB up, first touched on the constructor's pool.
#pragma once

#include "hashing/hash.hpp"
#include "parallel/thread_pool.hpp"
#include "util/bits.hpp"
#include "util/cache_padded.hpp"
#include "util/check.hpp"
#include "util/prefetch.hpp"
#include "util/table_storage.hpp"

#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

namespace gesmc {

/// Status values for switches within a superstep. Transitions are
/// monotone: kUndecided -> {kLegal, kIllegal}; never back.
enum class SwitchStatus : std::uint8_t { kUndecided = 0, kLegal = 1, kIllegal = 2 };

class DependencyTable {
public:
    static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
    static constexpr std::uint64_t kNoSlot = ~std::uint64_t{0};

    /// Sizes the table for supersteps with up to max_switches switches.
    /// The slots are initialized on `pool` (null: by the caller).
    explicit DependencyTable(std::uint64_t max_switches, ThreadPool* pool = nullptr);

    DependencyTable(const DependencyTable&) = delete;
    DependencyTable& operator=(const DependencyTable&) = delete;

    /// Prepares for a superstep of `num_switches` switches: clears the slots
    /// touched by the previous superstep (parallel, O(previously touched)).
    void begin_superstep(std::uint64_t num_switches, ThreadPool& pool);

    /// Registers sigma_k erasing edge `key`. At most one switch per key may
    /// ever be registered as eraser within a superstep (Observation 2).
    /// tid identifies the calling pool thread (for the touched-slot list).
    void register_erase(std::uint64_t key, std::uint32_t k, unsigned tid);

    /// Registers target `which` (0 or 1) of sigma_k inserting edge `key`.
    void register_insert(std::uint64_t key, std::uint32_t k, unsigned which, unsigned tid);

    /// Resolves the slot of `key`, or kNoSlot. One probe serves both the
    /// erase and the insert lookup below.
    [[nodiscard]] std::uint64_t find_slot(std::uint64_t key) const noexcept;

    /// Index of the switch erasing the slot's edge, or kNone.
    [[nodiscard]] std::uint32_t erase_idx_at(std::uint64_t slot) const noexcept {
        return slots_[slot].erase_idx.load(std::memory_order_acquire);
    }

    /// Smallest switch index q with an insert tuple on this slot whose
    /// status is not illegal; kNone if all inserters are illegal. The
    /// caller's own tuple is part of the list.
    ///
    /// `round_id` must strictly increase across decision rounds (and
    /// supersteps): the result of the per-edge list walk is memoized under
    /// that tag, so an edge targeted by L switches costs one O(L) walk per
    /// round instead of O(L) per lookup — without the memo, hub-hub edges
    /// of skewed graphs (thousands of inserters, Theorem 3) degrade a
    /// round to O(L^2).  Memoized values can only be stale towards *larger*
    /// true minima (status transitions are monotone), which callers treat
    /// as "wait one round" — conservative and progress-preserving.
    [[nodiscard]] std::uint32_t
    insert_min_at(std::uint64_t slot, const std::vector<std::atomic<SwitchStatus>>& status,
                  std::uint32_t round_id) const noexcept;

    /// Convenience wrappers (used by tests; the hot path uses find_slot).
    [[nodiscard]] std::uint32_t lookup_erase(std::uint64_t key) const noexcept {
        const std::uint64_t slot = find_slot(key);
        return slot == kNoSlot ? kNone : erase_idx_at(slot);
    }
    [[nodiscard]] std::uint32_t
    lookup_insert_min(std::uint64_t key, const std::vector<std::atomic<SwitchStatus>>& status,
                      std::uint32_t round_id) const noexcept {
        const std::uint64_t slot = find_slot(key);
        return slot == kNoSlot ? kNone : insert_min_at(slot, status, round_id);
    }

    /// Prefetches the probe window of `key` (paper §5.4).
    void prefetch(std::uint64_t key) const noexcept {
        prefetch_read_2lines(&slots_[home(key)]);
    }

    [[nodiscard]] std::uint64_t bucket_count() const noexcept { return slots_.size(); }

private:
    /// One cache-line-quarter per edge: probe + both lookups hit one line.
    struct alignas(32) Slot {
        std::atomic<std::uint64_t> key;
        std::atomic<std::uint32_t> erase_idx;
        std::atomic<std::uint32_t> insert_head; ///< arena node id or kNone
        std::atomic<std::uint64_t> insert_min_cache; ///< (round_id << 32) | min
    };

    [[nodiscard]] std::uint64_t home(std::uint64_t key) const noexcept {
        return edge_hash(key) >> shift_;
    }

    /// Finds the slot of `key`, claiming an empty one if absent.
    std::uint64_t find_or_claim(std::uint64_t key, unsigned tid);

    static constexpr std::uint64_t kEmptyKey = 0;

    mutable TableStorage<Slot> slots_;
    std::vector<std::atomic<std::uint32_t>> arena_next_; // node 2k+b -> next node
    /// Per-thread claimed slots, one cache line per thread: every claim
    /// appends to its thread's list.
    std::vector<CachePadded<std::vector<std::uint64_t>>> touched_;
    std::uint64_t mask_ = 0;
    unsigned shift_ = 64;
};

} // namespace gesmc
