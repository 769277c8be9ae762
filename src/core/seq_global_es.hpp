/// \file seq_global_es.hpp
/// \brief SeqGlobalES — sequential G-ES-MC (paper §5, Definition 3).
///
/// Per superstep (= one global switch): draw a uniform permutation pi of
/// the edge indices, draw l ~ Binom(floor(m/2), 1 - P_L), and execute the
/// switches sigma_k = (pi(2k-1), pi(2k), 1_{pi(2k-1) < pi(2k)}) for
/// k = 1..l in sequence.  The permutation and l are derived from the same
/// counter-based streams ParGlobalES uses, so ParGlobalES(seed) produces
/// the identical graph — the exactness tests rely on this.
#pragma once

#include "core/chain.hpp"
#include "core/edge_switch.hpp"
#include "hashing/robin_set.hpp"
#include "parallel/pool_ref.hpp"

#include <vector>

namespace gesmc {

/// Shared by Seq/ParGlobalES: materializes global switch `gidx` of `seed`
/// as a switch array (deterministic, thread-count independent).
/// Returns the number of switches l; `out` is resized accordingly.
std::uint64_t sample_global_switch(std::vector<Switch>& out,
                                   std::vector<std::uint32_t>& perm_scratch,
                                   std::uint64_t num_edges, std::uint64_t seed,
                                   std::uint64_t gidx, double pl, ThreadPool& pool);

class SeqGlobalES final : public SwitchingChain {
public:
    SeqGlobalES(const EdgeList& initial, const ChainConfig& config);

    [[nodiscard]] bool has_edge(edge_key_t key) const override { return set_.contains(key); }

private:
    void advance() override;

    RobinSet set_;
    std::vector<Switch> switch_scratch_;
    std::vector<std::uint32_t> perm_scratch_;
    PoolRef pool_; ///< single-thread pool for the shared sampler (or borrowed)
};

} // namespace gesmc
