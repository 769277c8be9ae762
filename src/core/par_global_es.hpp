/// \file par_global_es.hpp
/// \brief ParGlobalES — exact parallel G-ES-MC (Algorithm 3 of the paper).
///
/// A global switch has no source dependencies by construction (every edge
/// index appears exactly once in the permutation), so the whole algorithm
/// is: sample the global switch, run one ParallelSuperstep — the simplicity
/// relative to ParES is the point of the paper.  The permutation and the
/// binomial length come from the same deterministic samplers as
/// SeqGlobalES, so both produce identical graphs for identical seeds
/// (exactness tests).
#pragma once

#include "core/chain.hpp"
#include "core/parallel_superstep.hpp"
#include "hashing/concurrent_edge_set.hpp"
#include "parallel/pool_ref.hpp"
#include "parallel/thread_pool.hpp"

#include <vector>

namespace gesmc {

class ParGlobalES final : public SwitchingChain {
public:
    ParGlobalES(const EdgeList& initial, const ChainConfig& config);

    [[nodiscard]] bool has_edge(edge_key_t key) const override { return set_.contains(key); }

private:
    void advance() override;

    std::uint64_t small_graph_cutoff_;
    PoolRef pool_; ///< owned, or borrowed from ChainConfig::shared_pool; builds set_
    ConcurrentEdgeSet set_;
    SuperstepRunner runner_;
    std::vector<Switch> switch_scratch_;
    std::vector<std::uint32_t> perm_scratch_;
};

} // namespace gesmc
