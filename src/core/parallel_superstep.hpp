/// \file parallel_superstep.hpp
/// \brief Algorithm 1 of the paper: exact parallel superstep execution.
///
/// Executes a batch of edge switches *without source dependencies* (every
/// edge-list index appears in at most one switch) in parallel while
/// producing exactly the graph a sequential in-order execution would
/// produce.  Target dependencies are tracked in a DependencyTable:
///
///  * erase dependency: sigma_k wants to insert an edge that sigma_p
///    (p < k) erases — sigma_k must wait for sigma_p's verdict; if nobody
///    erases the edge but it is in the graph, sigma_k is illegal
///    (the paper's implicit (e, infinity, erase, illegal) tuple);
///    if the eraser comes *later* (k < p), sigma_k is illegal.
///  * insert dependency: among all switches inserting the same edge, only
///    the smallest non-illegal index may succeed; later ones are illegal
///    once it is legal, and must wait while it is undecided.
///
/// Switches are decided over multiple rounds; each round decides every
/// switch whose dependencies are settled (waits only point to smaller
/// indices, so the minimum undecided switch always decides and the loop
/// terminates).  Theorems 2/3 of the paper bound the expected rounds.
///
/// The graph's edge set is only read during the rounds; erase/insert deltas
/// of legal switches are applied in two parallel phases afterwards (all
/// removals, then all insertions — at most one legal eraser and one legal
/// inserter exist per edge, so the lock-free *_unique set operations apply).
///
/// One run() is three traced phases of fork-join loops over the pool:
///
///  * `superstep.register` (Phase A), two passes over each thread's chunk.
///    The target pass reads both source edges of every switch (random
///    reads of the edge array) and writes the source and target keys to
///    sequential scratch.  The registration pass then claims the
///    dependency-table slots of those keys.  Each pass computes its random
///    addresses from data already in hand, so each prefetches
///    kRegisterAhead switches ahead.
///  * `superstep.rounds`: the decision rounds, prefetching the
///    dependency-table and edge-set buckets of both targets kDecideAhead
///    switches ahead.
///  * `superstep.apply`: the erase pass, then the insert pass, each
///    prefetching the edge-set buckets kDecideAhead switches ahead.
///
/// All prefetching is gated by the constructor's `prefetch` flag.  Per-
/// thread bookkeeping (delayed lists here, touched lists in the dependency
/// table, the edge set's counts) sits on one cache line per thread, so
/// threads share lines only where they share data.
#pragma once

#include "core/edge_switch.hpp"
#include "hashing/concurrent_edge_set.hpp"
#include "hashing/dependency_table.hpp"
#include "parallel/thread_pool.hpp"
#include "util/cache_padded.hpp"

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

namespace gesmc {

struct ChainStats; // core/chain.hpp

/// Per-superstep instrumentation (drives Fig. 9 and the stats counters).
struct SuperstepResult {
    std::uint32_t rounds = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected_loop = 0;
    std::uint64_t rejected_edge = 0;
    double first_round_seconds = 0;
    double later_rounds_seconds = 0;
};

/// Adds one superstep's verdicts, rounds and round times to `stats`
/// (ParES per window, ParGlobalES per global switch).
void add_superstep(ChainStats& stats, const SuperstepResult& result);

/// Reusable executor: owns the dependency table and all scratch arrays so
/// repeated supersteps allocate nothing.
class SuperstepRunner {
public:
    /// max_switches: largest batch ever passed to run() (m/2 for both ParES
    /// and ParGlobalES).
    /// `prefetch` turns the phases' prefetches on (see the file comment).
    /// The dependency table is initialized on `pool` (null: by the caller).
    explicit SuperstepRunner(std::uint64_t max_switches, bool prefetch = true,
                             ThreadPool* pool = nullptr);

    /// Executes the batch on (edges, set). `switches` must be free of
    /// source dependencies; `set` must contain exactly the keys of `edges`.
    SuperstepResult run(ThreadPool& pool, std::vector<edge_key_t>& edges,
                        ConcurrentEdgeSet& set, std::span<const Switch> switches);

private:
    /// Prefetch distances, in switches (§5.4).  Phase A's passes do little
    /// work per switch besides their random accesses, so they look further
    /// ahead than the rounds and apply passes, whose switches also wait on
    /// probes and status reads.  On G(n,p) with m = 4M at P = 4, Phase A
    /// distances from 4 to 32 measured alike; without any prefetching the
    /// phases take 1.4-1.8x as long.
    static constexpr std::uint64_t kRegisterAhead = 16;
    static constexpr std::uint64_t kDecideAhead = 8;

    DependencyTable table_;
    std::vector<std::atomic<SwitchStatus>> status_;
    std::vector<edge_key_t> src_; ///< 2 per switch: source keys at batch start
    std::vector<edge_key_t> tgt_; ///< 2 per switch: target keys (maybe loops)
    std::vector<std::uint32_t> undecided_;
    std::vector<std::uint32_t> next_undecided_;
    std::vector<CachePadded<std::vector<std::uint32_t>>> delayed_; ///< per thread
    std::uint32_t global_round_ = 0; ///< increases across supersteps (cache tags)
    bool prefetch_;
};

} // namespace gesmc
