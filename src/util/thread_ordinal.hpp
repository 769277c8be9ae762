/// \file thread_ordinal.hpp
/// \brief A small, stable number per thread, for picking per-thread cells.
///
/// Sharded counters (obs metrics, edge-set counts) give each thread its own
/// cache-line cell so concurrent increments never bounce a line.  They pick
/// the cell as thread_ordinal() modulo their cell count.  Ordinals are
/// handed out in first-use order, so threads that start using them together
/// (one pool's workers) usually hold consecutive ordinals and distinct
/// cells.  Two threads sharing a cell is slower, never wrong.
#pragma once

#include <atomic>

namespace gesmc {

[[nodiscard]] inline unsigned thread_ordinal() noexcept {
    static std::atomic<unsigned> next{0};
    // One fetch_add per thread lifetime; afterwards a plain TLS read.
    static thread_local const unsigned ordinal = next.fetch_add(1, std::memory_order_relaxed);
    return ordinal;
}

} // namespace gesmc
