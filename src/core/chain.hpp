/// \file chain.hpp
/// \brief Common interface for all edge-switching Markov chain runners.
///
/// A *superstep* is the unit the paper uses to align ES-MC and G-ES-MC
/// (§6.1): m/2 uniform random edge switches for ES-type chains, one global
/// switch for G-ES-type chains.  All evaluation drivers (mixing analysis,
/// benchmarks, examples) advance chains superstep by superstep through this
/// interface.
///
/// Chains are *resumable*: all randomness comes from counter-based streams
/// keyed by the seed, so a chain's complete state is just (edge keys in
/// slot order, seed, P_L, position counter, accumulated stats).  snapshot()
/// captures that state as a ChainState value; make_chain(state, config)
/// reconstructs a chain that continues the identical trajectory — the
/// restored run is byte-for-byte the uninterrupted run.  SwitchingChain
/// owns that state and the superstep loop for all five algorithms, which
/// add only their own structures and one superstep.  RunObserver lets
/// long runs stream progress (and, driven by the pipeline, checkpoints and
/// finished replicates) instead of being fire-and-forget.
#pragma once

#include "graph/edge_list.hpp"
#include "hashing/edge_set_backend.hpp"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace gesmc {

class ThreadPool;

/// Tuning knobs shared by all chain implementations.
struct ChainConfig {
    std::uint64_t seed = 1;

    /// Threads for parallel chains (ignored by sequential ones).  Must be
    /// >= 1: make_chain rejects 0 (callers wanting hardware concurrency
    /// resolve std::thread::hardware_concurrency() themselves).
    unsigned threads = 1;

    /// Optional externally owned pool shared across chains.  When set, the
    /// chain runs its parallel sections on this pool instead of spawning a
    /// private one and `threads` is ignored.  The pool must outlive the
    /// chain, and because ThreadPool::run is a single fork-join job, at most
    /// one chain may be running on a shared pool at any moment (the pipeline
    /// scheduler's intra-chain policy guarantees this).
    ThreadPool* shared_pool = nullptr;

    /// G-ES-MC per-switch rejection probability P_L (Definition 3 requires
    /// 0 < P_L < 1 for aperiodicity; small values keep a global switch at
    /// ~m/2 attempted switches, matching the superstep accounting).
    double pl = 1e-3;

    /// Enables the prefetching switch pipeline (paper §5.4).
    bool prefetch = true;

    /// ParGlobalES: graphs with fewer edges than this execute each global
    /// switch sequentially instead of through ParallelSuperstep — the
    /// "dedicated base cases for small graphs" the paper's §7 proposes to
    /// cut synchronization overhead. 0 disables the base case (the paper's
    /// plain Algorithm 3). The produced graphs are identical either way
    /// (sequential execution is what the superstep reproduces).
    std::uint64_t small_graph_cutoff = 0;

    /// Unread stub (hashing/edge_set_backend.hpp).
    EdgeSetBackend edge_set_backend = EdgeSetBackend::kLocked;
};

/// Counters accumulated while running a chain.
struct ChainStats {
    std::uint64_t supersteps = 0;
    std::uint64_t attempted = 0;      ///< switches attempted
    std::uint64_t accepted = 0;       ///< switches that rewired the graph
    std::uint64_t rejected_loop = 0;  ///< rejected: target was a loop
    std::uint64_t rejected_edge = 0;  ///< rejected: target existed / conflict
    std::uint64_t rounds_total = 0;   ///< ParallelSuperstep rounds (parallel chains)
    std::uint64_t rounds_max = 0;     ///< max rounds over supersteps
    double first_round_seconds = 0;   ///< time spent in first rounds (Fig. 9)
    double later_rounds_seconds = 0;  ///< time spent in rounds >= 2 (Fig. 9)
};

/// Algorithm selector for the factory.
enum class ChainAlgorithm {
    kSeqES,        ///< sequential ES-MC (§5)
    kSeqGlobalES,  ///< sequential G-ES-MC (§5)
    kParES,        ///< exact parallel ES-MC (Algorithm 2)
    kParGlobalES,  ///< exact parallel G-ES-MC (Algorithm 3)
    kAdjListES,    ///< adjacency-list reference implementation (stand-in for
                   ///< NetworKit/Gengraph-class comparators, see DESIGN.md §4)
};

/// A serializable snapshot of a running chain.  Because every chain draws
/// its randomness from counter-based streams, this value is *complete*:
/// make_chain(state, config) continues the chain exactly where snapshot()
/// left it, producing the same graphs and counters as an uninterrupted run.
/// Persisted as the GESB chain-state section (graph/io).
struct ChainState {
    ChainAlgorithm algorithm = ChainAlgorithm::kSeqES;
    std::uint64_t seed = 0;

    /// Position in the chain's randomness stream: the switch-stream index
    /// for ES-type chains, the global-switch index for G-ES-type chains.
    std::uint64_t counter = 0;

    /// P_L of the snapshotted chain — part of the G-ES trajectory (it
    /// drives the binomial switch-count draw), so restores replay it from
    /// here, not from the restore config.  ES-type chains ignore it and
    /// leave this default.
    double pl = 1e-3;

    node_t num_nodes = 0;

    /// Edge keys in *slot order* (not sorted): switches address edges by
    /// array index, so the order is part of the chain state.
    std::vector<edge_key_t> keys;

    ChainStats stats;
};

class Chain;

/// Streaming callbacks for long runs.  Chains invoke on_superstep after
/// every completed superstep; the batch pipeline additionally invokes
/// on_checkpoint after persisting a replicate's ChainState and
/// on_replicate_done as each replicate finishes (its output graph is
/// already on disk by then).  Under the replicate-parallel schedule policy
/// the callbacks fire concurrently from pool threads — implementations
/// must synchronize their own state.
struct ReplicateReport; // pipeline/report.hpp

class RunObserver {
public:
    virtual ~RunObserver() = default;

    /// `replicate` is the replicate index the chain runs under (0 outside
    /// the pipeline).  The chain reference is only valid during the call.
    virtual void on_superstep(std::uint64_t replicate, const Chain& chain) {
        (void)replicate;
        (void)chain;
    }

    /// A checkpoint for `replicate` landed at `path`.
    virtual void on_checkpoint(std::uint64_t replicate, const ChainState& state,
                               const std::string& path) {
        (void)replicate;
        (void)state;
        (void)path;
    }

    /// Replicate `report.index` finished (successfully or with an error).
    virtual void on_replicate_done(const ReplicateReport& report) { (void)report; }
};

/// A Markov-chain runner owning its graph state.
class Chain {
public:
    virtual ~Chain() = default;

    /// Advances the chain by `count` supersteps.  A non-null `observer`
    /// receives on_superstep(replicate, *this) after every superstep.
    virtual void run_supersteps(std::uint64_t count, RunObserver* observer,
                                std::uint64_t replicate) = 0;

    /// Convenience overload for fire-and-forget runs.  Implementations
    /// re-export it with `using Chain::run_supersteps;`.
    void run_supersteps(std::uint64_t count) { run_supersteps(count, nullptr, 0); }

    /// Captures the chain's complete resumable state (cheap: one copy of
    /// the edge keys).  Snapshots taken between run_supersteps calls are
    /// exact; see ChainState.
    [[nodiscard]] virtual ChainState snapshot() const = 0;

    /// Current graph (materialized edge list; cheap for all chains).
    [[nodiscard]] virtual const EdgeList& graph() const = 0;

    /// O(1) edge existence query against the current state.
    [[nodiscard]] virtual bool has_edge(edge_key_t key) const = 0;

    [[nodiscard]] virtual const ChainStats& stats() const = 0;

    [[nodiscard]] virtual std::string name() const = 0;

    [[nodiscard]] std::uint64_t num_edges() const { return graph().num_edges(); }
    [[nodiscard]] node_t num_nodes() const { return graph().num_nodes(); }
};

[[nodiscard]] std::string to_string(ChainAlgorithm algo);

/// CLI/config-facing names ("seq-es", "par-global-es", ...), one per
/// algorithm, in a stable order. Shared by every tool and the pipeline.
[[nodiscard]] const std::vector<std::pair<std::string, ChainAlgorithm>>&
chain_algorithm_names();

/// The CLI/config-facing name of `algo` ("par-global-es", ...).
[[nodiscard]] std::string chain_algorithm_name(ChainAlgorithm algo);

/// Parses a CLI/config-facing name; throws Error listing the valid names.
[[nodiscard]] ChainAlgorithm chain_algorithm_from_string(const std::string& name);

/// Validates the tuning knobs every implementation shares; throws Error on
/// pl outside (0, 1) (Definition 3 aperiodicity) or threads == 0.  Called
/// by both make_chain overloads.
void validate(const ChainConfig& config);

/// `initial`, checked to be a graph a chain can switch: simple, with at
/// least two edges; throws Error otherwise.  Returned so that a chain can
/// check its input before it copies it, and the copy can reuse the memory
/// of is_simple's sorted scratch.
[[nodiscard]] const EdgeList& checked_initial_graph(const EdgeList& initial);

/// Resolved hardware concurrency, never 0 — what callers assign to
/// ChainConfig::threads when they want "all the machine has" (make_chain
/// itself rejects 0, see validate).
[[nodiscard]] inline unsigned hardware_threads() noexcept {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1u : hw;
}

/// `config` with the trajectory-defining knobs (seed, pl) replaced by the
/// snapshot's — the restore path replays the original streams regardless
/// of what the restore-time config says.
[[nodiscard]] inline ChainConfig config_with_state(ChainConfig config,
                                                   const ChainState& state) noexcept {
    config.seed = state.seed;
    config.pl = state.pl;
    return config;
}

/// The skeleton of the five algorithms: it owns the ChainState fields and
/// implements snapshot() and the superstep loop, so an algorithm adds only
/// its own structures, has_edge and advance().  make_chain(state, config)
/// builds the chain from the snapshot's keys and then resume()s it.
class SwitchingChain : public Chain {
public:
    using Chain::run_supersteps;
    void run_supersteps(std::uint64_t count, RunObserver* observer,
                        std::uint64_t replicate) final;

    [[nodiscard]] ChainState snapshot() const final;
    [[nodiscard]] const EdgeList& graph() const final { return edges_; }
    [[nodiscard]] const ChainStats& stats() const final { return stats_; }
    [[nodiscard]] std::string name() const final { return to_string(algorithm_); }

    /// Continues a snapshotted run from its stream position and stats.
    void resume(std::uint64_t counter, const ChainStats& stats) {
        counter_ = counter;
        stats_ = stats;
    }

protected:
    /// Checks that `initial` is simple with at least two edges.
    SwitchingChain(ChainAlgorithm algorithm, const EdgeList& initial,
                   const ChainConfig& config);

    /// One superstep: advances counter_ and every stats_ field but
    /// supersteps, which the loop counts.
    virtual void advance() = 0;

    EdgeList edges_;
    std::uint64_t seed_;
    /// The config's P_L for the G-ES-type chains; ES-type chains do not
    /// read it and snapshot ChainState's placeholder.
    double pl_;
    std::uint64_t counter_ = 0; ///< see ChainState::counter
    ChainStats stats_;

private:
    ChainAlgorithm algorithm_;
};

/// Creates a chain of the given kind started at `initial`.
std::unique_ptr<Chain> make_chain(ChainAlgorithm algo, const EdgeList& initial,
                                  const ChainConfig& config);

/// Restores a chain from a snapshot: same algorithm, seed, pl, stream
/// position and edge-slot order as the chain that produced `state` (config
/// supplies the runtime knobs — threads, pool, prefetch — and its seed/pl
/// fields are overridden by the state's).
std::unique_ptr<Chain> make_chain(const ChainState& state, const ChainConfig& config);

/// Drives `chain` to `target` *total* supersteps (counting any restored
/// ones): run_adaptive_checkpointed with no stop rule.
void run_checkpointed(Chain& chain, std::uint64_t target, std::uint64_t checkpoint_every,
                      RunObserver* observer, std::uint64_t replicate,
                      const std::function<void()>& on_checkpoint_boundary);

/// The one superstep loop, shared by the pipeline and the tools (their
/// resume semantics must never diverge).  Drives `chain` to `max_target`
/// total supersteps, or until `should_stop()` returns true.  An empty
/// `should_stop` is a fixed budget: no stop rule, no check grid, one
/// run_supersteps call per checkpoint interval (per superstep when traced).
/// Otherwise `should_stop` is polled only at *absolute check steps*
/// (s >= min_supersteps and s % check_every == 0) and the chain is advanced
/// in chunks that end exactly on them, so the realized stopping point is a
/// pure function of the superstep stream, never of chunking, checkpoint
/// cadence or resume position.  With checkpoint_every > 0,
/// `on_checkpoint_boundary` runs at every absolute multiple of
/// checkpoint_every before the end; it always runs once more at completion
/// — also when the chain is already done — so the final state can be
/// persisted as a finished marker.  Throws if the chain is already past
/// `max_target`.
void run_adaptive_checkpointed(Chain& chain, std::uint64_t max_target,
                               std::uint64_t min_supersteps, std::uint64_t check_every,
                               std::uint64_t checkpoint_every, RunObserver* observer,
                               std::uint64_t replicate,
                               const std::function<bool()>& should_stop,
                               const std::function<void()>& on_checkpoint_boundary);

} // namespace gesmc
