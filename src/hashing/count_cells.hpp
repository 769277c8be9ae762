/// \file count_cells.hpp
/// \brief Per-thread live/tombstone counts of the concurrent edge set.
///
/// Every insert and erase changes a set's live and tombstone counts.  With
/// one shared atomic pair, each op of the chains' parallel apply passes was
/// an RMW on a line bounced between all threads, and the passes did not
/// scale.  Here each thread adds to its own cache-line cell, picked by its
/// thread_ordinal() (two threads may share a cell: slower, never wrong),
/// and readers sum the cells.  The sums are exact only at quiescent points
/// — no writer running — which is where size() and needs_rebuild() are
/// asked.  A read touches every cell's line, so kCells stays at the
/// metrics registry's shard count: on a 4-core Xeon VM, 64 cells made a
/// needs_rebuild() check after every op (bench_micro_hashset's SwitchMix
/// rows) about 25% slower than one shared pair; 16 stay within its noise.
#pragma once

#include "util/cache_padded.hpp"
#include "util/thread_ordinal.hpp"

#include <array>
#include <atomic>
#include <cstdint>

namespace gesmc {

class CountCells {
public:
    static constexpr unsigned kCells = 16; // power of two: the modulo is a mask

    /// Adds signed deltas to the calling thread's cell.
    void add(std::int64_t live, std::int64_t tombs) noexcept {
        Cell& cell = cells_[thread_ordinal() % kCells].value;
        if (live != 0) cell.live.fetch_add(live, std::memory_order_relaxed);
        if (tombs != 0) cell.tombs.fetch_add(tombs, std::memory_order_relaxed);
    }

    [[nodiscard]] std::uint64_t live() const noexcept {
        std::int64_t sum = 0;
        for (const auto& c : cells_) sum += c.value.live.load(std::memory_order_relaxed);
        return static_cast<std::uint64_t>(sum);
    }

    [[nodiscard]] std::uint64_t tombs() const noexcept {
        std::int64_t sum = 0;
        for (const auto& c : cells_) sum += c.value.tombs.load(std::memory_order_relaxed);
        return static_cast<std::uint64_t>(sum);
    }

    /// Restarts the counts at `live` live keys and no tombstones.  Quiescent
    /// callers only.
    void reset(std::uint64_t live) noexcept {
        for (auto& c : cells_) {
            c.value.live.store(0, std::memory_order_relaxed);
            c.value.tombs.store(0, std::memory_order_relaxed);
        }
        cells_[0].value.live.store(static_cast<std::int64_t>(live), std::memory_order_relaxed);
    }

private:
    struct Cell {
        std::atomic<std::int64_t> live{0};
        std::atomic<std::int64_t> tombs{0};
    };

    std::array<CachePadded<Cell>, kCells> cells_{};
};

} // namespace gesmc
