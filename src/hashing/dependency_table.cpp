#include "hashing/dependency_table.hpp"

namespace gesmc {

DependencyTable::DependencyTable(std::uint64_t max_switches) {
    // Up to 4 distinct edges are registered per switch; size for load <= 1/2.
    const std::uint64_t cap = next_pow2(std::max<std::uint64_t>(64, max_switches * 8));
    slots_ = std::vector<Slot>(cap);
    for (auto& slot : slots_) {
        slot.key.store(kEmptyKey, std::memory_order_relaxed);
        slot.erase_idx.store(kNone, std::memory_order_relaxed);
        slot.insert_head.store(kNone, std::memory_order_relaxed);
        slot.insert_min_cache.store(0, std::memory_order_relaxed); // round 0: never queried
    }
    arena_next_ = std::vector<std::atomic<std::uint32_t>>(2 * max_switches);
    mask_ = cap - 1;
    shift_ = 64 - log2_floor(cap);
}

void DependencyTable::begin_superstep(std::uint64_t num_switches, ThreadPool& pool) {
    GESMC_CHECK(2 * num_switches <= arena_next_.size(),
                "superstep larger than the table was sized for");
    // Reset only the slots the previous superstep claimed. Iterate by list
    // index (not thread id) so this stays correct if the pool size changed.
    pool.for_chunks_dynamic(0, touched_.size(), 1,
                            [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
                                for (std::uint64_t t = lo; t < hi; ++t) {
                                    for (const std::uint64_t s : touched_[t].value) {
                                        slots_[s].key.store(kEmptyKey, std::memory_order_relaxed);
                                        slots_[s].erase_idx.store(kNone,
                                                                  std::memory_order_relaxed);
                                        slots_[s].insert_head.store(kNone,
                                                                    std::memory_order_relaxed);
                                    }
                                    touched_[t].value.clear();
                                }
                            });
    if (touched_.size() != pool.num_threads()) touched_.resize(pool.num_threads());
    std::atomic_thread_fence(std::memory_order_seq_cst);
}

std::uint64_t DependencyTable::find_or_claim(std::uint64_t key, unsigned tid) {
    std::uint64_t idx = home(key);
    for (std::uint64_t probes = 0; probes <= mask_; ++probes) {
        std::uint64_t k = slots_[idx].key.load(std::memory_order_acquire);
        if (k == key) return idx;
        if (k == kEmptyKey) {
            if (slots_[idx].key.compare_exchange_strong(k, key, std::memory_order_acq_rel)) {
                touched_[tid].value.push_back(idx);
                return idx;
            }
            if (k == key) return idx; // lost the race to the same key
            continue;                 // lost to a different key: re-examine slot
        }
        idx = (idx + 1) & mask_;
    }
    GESMC_CHECK(false, "DependencyTable overfull");
    return kNoSlot;
}

std::uint64_t DependencyTable::find_slot(std::uint64_t key) const noexcept {
    std::uint64_t idx = home(key);
    for (std::uint64_t probes = 0; probes <= mask_; ++probes) {
        const std::uint64_t k = slots_[idx].key.load(std::memory_order_acquire);
        if (k == key) return idx;
        if (k == kEmptyKey) return kNoSlot;
        idx = (idx + 1) & mask_;
    }
    return kNoSlot;
}

void DependencyTable::register_erase(std::uint64_t key, std::uint32_t k, unsigned tid) {
    const std::uint64_t slot = find_or_claim(key, tid);
    // Unique writer per key (Observation 2) — a plain store suffices.
    slots_[slot].erase_idx.store(k, std::memory_order_release);
}

void DependencyTable::register_insert(std::uint64_t key, std::uint32_t k, unsigned which,
                                      unsigned tid) {
    const std::uint64_t slot = find_or_claim(key, tid);
    const std::uint32_t node = 2 * k + which;
    std::uint32_t head = slots_[slot].insert_head.load(std::memory_order_acquire);
    do {
        arena_next_[node].store(head, std::memory_order_relaxed);
    } while (!slots_[slot].insert_head.compare_exchange_weak(
        head, node, std::memory_order_acq_rel, std::memory_order_acquire));
}

std::uint32_t DependencyTable::insert_min_at(
    std::uint64_t slot, const std::vector<std::atomic<SwitchStatus>>& status,
    std::uint32_t round_id) const noexcept {
    Slot& s = slots_[slot];
    const std::uint64_t cached = s.insert_min_cache.load(std::memory_order_acquire);
    if (static_cast<std::uint32_t>(cached >> 32) == round_id) {
        return static_cast<std::uint32_t>(cached);
    }

    std::uint32_t best = kNone;
    std::uint32_t node = s.insert_head.load(std::memory_order_acquire);
    while (node != kNone) {
        const std::uint32_t k = node / 2;
        if (k < best &&
            status[k].load(std::memory_order_acquire) != SwitchStatus::kIllegal) {
            best = k;
        }
        node = arena_next_[node].load(std::memory_order_acquire);
    }
    s.insert_min_cache.store((static_cast<std::uint64_t>(round_id) << 32) | best,
                             std::memory_order_release);
    return best;
}

} // namespace gesmc
