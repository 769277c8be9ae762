/// \file naive_par_es.hpp
/// \brief NaiveParES — the simplistic parallel ES-MC baseline (paper §5.1).
///
/// Each processing unit performs switches independently, synchronizing
/// implicitly only by preventing concurrent updates of individual edges:
/// removing an edge requires a *ticket*, acquired by locking an existing
/// edge or by inserting-and-locking a new one (compare-and-exchange on the
/// bucket's lock byte).  Dependencies *between* switches are deliberately
/// ignored, so the process can deviate from the intended Markov chain —
/// the paper's motivation for the exact algorithms.  We therefore test only
/// invariants (degree preservation, simplicity), never sequential
/// equivalence.
///
/// Conflict handling: failed ticket acquisitions roll back everything and
/// retry the same switch with backoff; a target edge found locked by
/// another PU is retried a bounded number of times, then treated as a
/// rejection (a transient conflict — the "hardware sequences concurrent
/// updates" behaviour of the paper).
#pragma once

#include "core/chain.hpp"
#include "core/switch_stream.hpp"
#include "hashing/concurrent_edge_set.hpp"
#include "parallel/pool_ref.hpp"
#include "parallel/thread_pool.hpp"

namespace gesmc {

/// Snapshots are exact only between supersteps, and a resume reproduces the
/// uninterrupted run only for the same thread count (the thread partition
/// is part of this process), and exactly only with one thread (concurrent
/// interleavings are inherently racy).
class NaiveParES final : public SwitchingChain {
public:
    NaiveParES(const EdgeList& initial, const ChainConfig& config);

    [[nodiscard]] bool has_edge(edge_key_t key) const override { return set_.contains(key); }

private:
    void advance() override;

    /// One switch attempt by thread `tid`; returns counters via references.
    void perform_switch(unsigned tid, const Switch& sw, std::uint64_t& accepted,
                        std::uint64_t& rejected_loop, std::uint64_t& rejected_edge);

    PoolRef pool_; ///< owned, or borrowed from ChainConfig::shared_pool; builds set_
    ConcurrentEdgeSet set_;
};

} // namespace gesmc
