/// \file robin_set.hpp
/// \brief Sequential robin-hood hash set for 64-bit keys (paper §5.2).
///
/// The paper's preliminary experiments identified robin-hood hashing with a
/// maximum load factor of 1/2 and power-of-two bucket counts as the fastest
/// sequential representation for the roughly balanced mix of insertions,
/// deletions and existence queries that edge switching produces.  This
/// implementation uses
///   * open addressing with linear probing and robin-hood displacement,
///   * backward-shift deletion (no tombstones, probe chains stay short),
///   * a two-step prefetch API (prepare/execute) so SeqES can overlap the
///     memory latency of independent queries (paper §5.4).
///
/// Key 0 is reserved as the empty sentinel; edge keys are canonical
/// encodings of simple edges {u,v} with u < v, which are never 0.
#pragma once

#include "hashing/hash.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"
#include "util/prefetch.hpp"

#include <cstdint>
#include <vector>

namespace gesmc {

class RobinSet {
public:
    /// Creates a set able to hold `expected_keys` at load factor <= 1/2.
    explicit RobinSet(std::uint64_t expected_keys = 16) { rehash_for(expected_keys); }

    [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
    [[nodiscard]] std::uint64_t bucket_count() const noexcept { return table_.size(); }
    [[nodiscard]] double load_factor() const noexcept {
        return static_cast<double>(size_) / static_cast<double>(table_.size());
    }

    /// True iff key is present; false for the reserved key 0.
    [[nodiscard]] bool contains(std::uint64_t key) const noexcept {
        std::uint64_t idx = home(key);
        std::uint64_t dist = 0;
        for (;;) {
            const std::uint64_t k = table_[idx];
            if (k == kEmpty) return false;
            if (k == key) return true;
            // Robin-hood invariant: if the resident key is closer to its
            // home than we are to ours, the key cannot be further along.
            if (probe_distance(k, idx) < dist) return false;
            idx = (idx + 1) & mask_;
            ++dist;
        }
    }

    /// Inserts key; returns false if already present. key must be non-zero.
    /// A duplicate insert never rehashes (and thus never invalidates
    /// outstanding Prepared handles): the table only grows when the key is
    /// actually added.
    bool insert(std::uint64_t key) {
        GESMC_CHECK(key != kEmpty, "key 0 is reserved");
        // Probe without mutating until the key is proven absent: the robin-
        // hood invariant bounds the search at the first resident closer to
        // its home than we are to ours.
        std::uint64_t idx = home(key);
        std::uint64_t dist = 0;
        for (;;) {
            const std::uint64_t k = table_[idx];
            if (k == key) return false;
            if (k == kEmpty || probe_distance(k, idx) < dist) break;
            idx = (idx + 1) & mask_;
            ++dist;
        }
        if ((size_ + 1) * 2 > table_.size()) {
            rehash_for(size_ * 2 + 8);
            idx = home(key);
            dist = 0;
            while (table_[idx] != kEmpty && probe_distance(table_[idx], idx) >= dist) {
                idx = (idx + 1) & mask_;
                ++dist;
            }
        }
        // Rob the rich: displace residents closer to their home while
        // carrying the evicted key forward. The key is known absent here.
        std::uint64_t carry = key;
        for (;;) {
            const std::uint64_t k = table_[idx];
            if (k == kEmpty) {
                table_[idx] = carry;
                ++size_;
                return true;
            }
            const std::uint64_t res_dist = probe_distance(k, idx);
            if (res_dist < dist) {
                table_[idx] = carry;
                carry = k;
                dist = res_dist;
            }
            idx = (idx + 1) & mask_;
            ++dist;
        }
    }

    /// Removes key; returns false if absent. Backward-shift deletion.
    bool erase(std::uint64_t key) noexcept {
        std::uint64_t idx = home(key);
        std::uint64_t dist = 0;
        for (;;) {
            const std::uint64_t k = table_[idx];
            if (k == kEmpty) return false;
            if (k == key) break;
            if (probe_distance(k, idx) < dist) return false;
            idx = (idx + 1) & mask_;
            ++dist;
        }
        // Shift successors back until an empty slot or a key at its home.
        for (;;) {
            const std::uint64_t next = (idx + 1) & mask_;
            const std::uint64_t k = table_[next];
            if (k == kEmpty || probe_distance(k, next) == 0) {
                table_[idx] = kEmpty;
                break;
            }
            table_[idx] = k;
            idx = next;
        }
        --size_;
        return true;
    }

    // ------------------------------------------------------------------
    // Two-step (prefetching) interface, paper §5.4: hash the key and issue
    // a prefetch now, perform the table operation later.
    // ------------------------------------------------------------------

    struct Prepared {
        std::uint64_t key;
        std::uint64_t idx;
    };

    [[nodiscard]] Prepared prepare(std::uint64_t key) const noexcept {
        const Prepared p{key, home(key)};
        prefetch_read_2lines(&table_[p.idx]);
        return p;
    }

    /// contains() that starts probing at the prepared (prefetched) bucket.
    /// Only valid if no rehash happened since prepare().
    [[nodiscard]] bool contains_prepared(const Prepared& p) const noexcept {
        std::uint64_t idx = p.idx;
        std::uint64_t dist = 0;
        for (;;) {
            const std::uint64_t k = table_[idx];
            if (k == kEmpty) return false;
            if (k == p.key) return true;
            if (probe_distance(k, idx) < dist) return false;
            idx = (idx + 1) & mask_;
            ++dist;
        }
    }

    /// True iff an insert may trigger a rehash (invalidating Prepared
    /// handles). SeqES reserves capacity up-front so this stays false.
    [[nodiscard]] bool would_rehash_on_insert() const noexcept {
        return (size_ + 1) * 2 > table_.size();
    }

    /// Grows the table so that `expected_keys` fit at load <= 1/2 with one
    /// insert of headroom (matching rehash_for): after reserve(m) and m
    /// inserts, would_rehash_on_insert() is guaranteed false.
    void reserve(std::uint64_t expected_keys) {
        if (expected_keys * 2 + 1 > table_.size()) rehash_for(expected_keys);
    }

    void clear() noexcept {
        std::fill(table_.begin(), table_.end(), kEmpty);
        size_ = 0;
    }

    /// Calls fn(key) for every stored key (unspecified order).
    template <typename F>
    void for_each(F&& fn) const {
        for (const std::uint64_t k : table_)
            if (k != kEmpty) fn(k);
    }

private:
    static constexpr std::uint64_t kEmpty = 0;

    [[nodiscard]] std::uint64_t home(std::uint64_t key) const noexcept {
        return edge_hash(key) >> shift_;
    }

    [[nodiscard]] std::uint64_t probe_distance(std::uint64_t key, std::uint64_t idx) const noexcept {
        return (idx - home(key)) & mask_;
    }

    void rehash_for(std::uint64_t expected_keys) {
        // +1 gives one insert of headroom at exactly `expected_keys` keys:
        // reserve(m) must leave would_rehash_on_insert() false even when 2m
        // is itself a power of two (e.g. m = 8), or SeqES's stable-prepare
        // invariant breaks on small graphs.
        const std::uint64_t cap =
            next_pow2(std::max<std::uint64_t>(16, expected_keys * 2 + 1));
        std::vector<std::uint64_t> old = std::move(table_);
        table_.assign(cap, kEmpty);
        mask_ = cap - 1;
        shift_ = 64 - log2_floor(cap);
        size_ = 0;
        for (const std::uint64_t k : old)
            if (k != kEmpty) insert(k);
    }

    std::vector<std::uint64_t> table_;
    std::uint64_t mask_ = 0;
    unsigned shift_ = 64;
    std::uint64_t size_ = 0;
};

} // namespace gesmc
