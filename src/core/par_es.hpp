/// \file par_es.hpp
/// \brief ParES — exact parallel ES-MC (Algorithm 2 of the paper).
///
/// Consumes the same deterministic switch stream as SeqES.  Repeatedly
/// finds the longest prefix sigma_s..sigma_{t-1} of remaining switches with
/// no source dependencies (no edge index used twice) via concurrent
/// insert-if-min on a per-edge-index map, then executes that prefix with
/// ParallelSuperstep.  Because the superstep preserves the sequential
/// outcome, ParES(seed) produces the same graph as SeqES(seed) for every
/// thread count — the paper's exactness claim, asserted by the tests.
///
/// The paper stores the (index, switch) pairs in a concurrent hash set; we
/// use a direct-addressed array over the m edge indices (one CAS-min per
/// access, reset via touched lists), which implements the identical
/// insert_if_min semantics with fewer indirections.
#pragma once

#include "core/chain.hpp"
#include "core/parallel_superstep.hpp"
#include "core/switch_stream.hpp"
#include "hashing/concurrent_edge_set.hpp"
#include "parallel/pool_ref.hpp"
#include "parallel/thread_pool.hpp"
#include "util/cache_padded.hpp"

#include <atomic>
#include <vector>

namespace gesmc {

/// Concurrent map: edge index -> smallest switch index that uses it.
/// insert_if_min returns the previous minimum (or kNone).
class MinIndexMap {
public:
    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

    explicit MinIndexMap(std::uint64_t num_edges, unsigned num_threads);

    /// CAS-min loop; returns the value observed before our update (kNone if
    /// the cell was untouched). Records touched cells for reset().
    std::uint32_t insert_if_min(std::uint32_t edge_index, std::uint32_t switch_index,
                                unsigned tid);

    /// Clears only the cells touched since the last reset.
    void reset(ThreadPool& pool);

private:
    std::vector<std::atomic<std::uint32_t>> min_;
    std::vector<CachePadded<std::vector<std::uint32_t>>> touched_; ///< per thread
};

class ParES final : public SwitchingChain {
public:
    ParES(const EdgeList& initial, const ChainConfig& config);

    [[nodiscard]] bool has_edge(edge_key_t key) const override { return set_.contains(key); }

    /// Average length of the dependency-free prefixes executed by *this*
    /// chain object (the paper's Theta(sqrt(m)) expectation for ES-MC,
    /// §3).  On a restored chain the average covers the windows since the
    /// restore — window counts are not part of ChainState.
    [[nodiscard]] double mean_superstep_length() const;

private:
    /// Executes the superstep's m/2 switches of the stream in windows.
    void advance() override;

    /// Finds the end t of the maximal source-dependency-free window
    /// starting at s (exclusive end, capped at `cap`).
    std::uint64_t find_window_end(std::uint64_t s, std::uint64_t cap);

    SwitchStream stream_;
    PoolRef pool_; ///< owned, or borrowed from ChainConfig::shared_pool; builds set_
    ConcurrentEdgeSet set_;
    MinIndexMap index_map_;
    SuperstepRunner runner_;
    std::vector<Switch> window_;
    std::uint64_t windows_executed_ = 0;
    std::uint64_t switches_executed_ = 0; ///< in those windows
};

} // namespace gesmc
