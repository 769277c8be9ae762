/// \file naive_par_es.hpp
/// \brief NaiveParES — the paper's inexact parallel ES-MC baseline (§5.1),
/// kept for the benches that reproduce its comparison.
///
/// Each thread performs its share of a superstep's switches on its own,
/// synchronizing only by keeping two threads off one edge at a time: a
/// switch takes a *ticket* on each of its source and target edges before
/// it checks and rewrites them.  A ticket is a try-lock on a striped byte
/// array hashed by edge key, held around the edge set's contains,
/// erase_unique and insert_unique, so the set sees at most one writer per
/// key — its one contract.  Dependencies *between* switches are ignored on
/// purpose, so on more than one thread the process deviates from the ES-MC
/// chain; that is why the paper builds the exact algorithms.  On one
/// thread it is SeqES's chain: the same switch stream, decided and applied
/// in stream order.
///
/// Conflict handling: a ticket that is taken releases everything and
/// retries the switch after a yield.  A target ticket still taken after
/// kMaxConflictRetries attempts counts as a rejection (a transient
/// conflict — the "hardware sequences concurrent updates" behaviour of the
/// paper).
///
/// Not a ChainAlgorithm: config files, the CLI tools, the service and
/// checkpoints know only the exact chains.
#pragma once

#include "core/chain.hpp"
#include "core/edge_switch.hpp"
#include "hashing/concurrent_edge_set.hpp"
#include "parallel/pool_ref.hpp"

#include <atomic>
#include <cstdint>
#include <vector>

namespace gesmc {

class NaiveParES {
public:
    /// Starts at `initial` (simple, at least two edges).  Reads the seed,
    /// threads and shared_pool fields of `config`.
    NaiveParES(const EdgeList& initial, const ChainConfig& config);

    /// Advances by `count` supersteps of m/2 switches each.
    void run_supersteps(std::uint64_t count);

    [[nodiscard]] const EdgeList& graph() const noexcept { return edges_; }
    [[nodiscard]] const ChainStats& stats() const noexcept { return stats_; }
    [[nodiscard]] const ConcurrentEdgeSet& edge_set() const noexcept { return set_; }

private:
    static constexpr std::uint64_t kStripes = 4096;
    static constexpr int kMaxConflictRetries = 64;

    /// One switch attempt, retried until it is decided.
    SwitchOutcome perform_switch(const Switch& sw);

    EdgeList edges_;
    std::uint64_t seed_;
    std::uint64_t counter_ = 0; ///< switch-stream position
    ChainStats stats_;
    PoolRef pool_; ///< owned, or borrowed from ChainConfig::shared_pool; builds set_
    ConcurrentEdgeSet set_;
    std::vector<std::atomic<std::uint8_t>> tickets_; ///< kStripes try-locks
};

} // namespace gesmc
