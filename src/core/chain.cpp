#include "core/chain.hpp"

#include "core/adj_list_es.hpp"
#include "core/par_es.hpp"
#include "core/par_global_es.hpp"
#include "core/seq_es.hpp"
#include "core/seq_global_es.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

#include <algorithm>

namespace gesmc {

std::string to_string(ChainAlgorithm algo) {
    switch (algo) {
    case ChainAlgorithm::kSeqES:
        return "SeqES";
    case ChainAlgorithm::kSeqGlobalES:
        return "SeqGlobalES";
    case ChainAlgorithm::kParES:
        return "ParES";
    case ChainAlgorithm::kParGlobalES:
        return "ParGlobalES";
    case ChainAlgorithm::kAdjListES:
        return "AdjListES";
    }
    return "unknown";
}

const std::vector<std::pair<std::string, ChainAlgorithm>>& chain_algorithm_names() {
    static const std::vector<std::pair<std::string, ChainAlgorithm>> names = {
        {"seq-es", ChainAlgorithm::kSeqES},
        {"seq-global-es", ChainAlgorithm::kSeqGlobalES},
        {"par-es", ChainAlgorithm::kParES},
        {"par-global-es", ChainAlgorithm::kParGlobalES},
        {"adj-list-es", ChainAlgorithm::kAdjListES},
    };
    return names;
}

std::string chain_algorithm_name(ChainAlgorithm algo) {
    for (const auto& [name, a] : chain_algorithm_names()) {
        if (a == algo) return name;
    }
    return "unknown";
}

ChainAlgorithm chain_algorithm_from_string(const std::string& name) {
    std::string valid;
    for (const auto& [n, algo] : chain_algorithm_names()) {
        if (n == name) return algo;
        valid += valid.empty() ? n : " | " + n;
    }
    std::string message = "unknown chain algorithm: \"" + name + "\" (expected " + valid + ")";
    if (name == "naive-par-es") {
        message += "; the inexact §5.1 baseline runs only in bench_fig4_runtime_table "
                   "and bench_micro_switching";
    }
    throw Error(message);
}

void validate(const ChainConfig& config) {
    if (config.pl <= 0.0 || config.pl >= 1.0) {
        throw Error("ChainConfig::pl must be in (0, 1) — Definition 3 requires "
                    "0 < P_L < 1 for aperiodicity (got " +
                    std::to_string(config.pl) + ")");
    }
    if (config.threads == 0) {
        throw Error("ChainConfig::threads must be >= 1 (resolve hardware "
                    "concurrency before make_chain)");
    }
}

const EdgeList& checked_initial_graph(const EdgeList& initial) {
    GESMC_CHECK(initial.num_edges() >= 2, "need at least two edges to switch");
    GESMC_CHECK(initial.is_simple(), "initial graph must be simple");
    return initial;
}

namespace {

std::unique_ptr<SwitchingChain> build_chain(ChainAlgorithm algo, const EdgeList& initial,
                                            const ChainConfig& config) {
    validate(config);
    switch (algo) {
    case ChainAlgorithm::kSeqES:
        return std::make_unique<SeqES>(initial, config);
    case ChainAlgorithm::kSeqGlobalES:
        return std::make_unique<SeqGlobalES>(initial, config);
    case ChainAlgorithm::kParES:
        return std::make_unique<ParES>(initial, config);
    case ChainAlgorithm::kParGlobalES:
        return std::make_unique<ParGlobalES>(initial, config);
    case ChainAlgorithm::kAdjListES:
        return std::make_unique<AdjListES>(initial, config);
    }
    GESMC_CHECK(false, "unknown algorithm");
    return nullptr;
}

} // namespace

SwitchingChain::SwitchingChain(ChainAlgorithm algorithm, const EdgeList& initial,
                               const ChainConfig& config)
    : edges_(checked_initial_graph(initial)),
      seed_(config.seed),
      pl_(algorithm == ChainAlgorithm::kSeqGlobalES ||
                  algorithm == ChainAlgorithm::kParGlobalES
              ? config.pl
              : ChainState{}.pl),
      algorithm_(algorithm) {}

void SwitchingChain::run_supersteps(std::uint64_t count, RunObserver* observer,
                                    std::uint64_t replicate) {
    for (std::uint64_t step = 0; step < count; ++step) {
        advance();
        ++stats_.supersteps;
        if (observer != nullptr) observer->on_superstep(replicate, *this);
    }
}

ChainState SwitchingChain::snapshot() const {
    return ChainState{.algorithm = algorithm_,
                      .seed = seed_,
                      .counter = counter_,
                      .pl = pl_,
                      .num_nodes = edges_.num_nodes(),
                      .keys = edges_.keys(),
                      .stats = stats_};
}

std::unique_ptr<Chain> make_chain(ChainAlgorithm algo, const EdgeList& initial,
                                  const ChainConfig& config) {
    return build_chain(algo, initial, config);
}

std::unique_ptr<Chain> make_chain(const ChainState& state, const ChainConfig& config) {
    // The snapshot's seed and pl override the config's (config_with_state),
    // and build_chain validates what the chain will actually run with, so a
    // corrupt .gesc with pl = 0 is rejected here, not mid-run.
    auto chain = build_chain(state.algorithm, EdgeList::from_keys(state.num_nodes, state.keys),
                             config_with_state(config, state));
    chain->resume(state.counter, state.stats);
    return chain;
}

namespace {

/// Folds the superstep's ChainStats delta into the chain.* counters.  Every
/// driven run of every chain algorithm passes through the one superstep
/// loop, so this one seam instruments all five chains (and resumed chains:
/// the delta starts at the restored stats, never re-counting checkpointed
/// work).
void count_chain_progress(const ChainStats& before, const ChainStats& after) {
    struct ChainCounters {
        obs::Counter& supersteps =
            obs::MetricsRegistry::instance().counter("chain.supersteps");
        obs::Counter& attempted =
            obs::MetricsRegistry::instance().counter("chain.switches.attempted");
        obs::Counter& accepted =
            obs::MetricsRegistry::instance().counter("chain.switches.accepted");
        obs::Counter& rejected_loop =
            obs::MetricsRegistry::instance().counter("chain.switches.rejected_loop");
        obs::Counter& rejected_edge =
            obs::MetricsRegistry::instance().counter("chain.switches.rejected_edge");
        obs::Counter& rounds =
            obs::MetricsRegistry::instance().counter("chain.rounds");
    };
    static ChainCounters& counters = *new ChainCounters();
    counters.supersteps.add(after.supersteps - before.supersteps);
    counters.attempted.add(after.attempted - before.attempted);
    counters.accepted.add(after.accepted - before.accepted);
    counters.rejected_loop.add(after.rejected_loop - before.rejected_loop);
    counters.rejected_edge.add(after.rejected_edge - before.rejected_edge);
    counters.rounds.add(after.rounds_total - before.rounds_total);
}

} // namespace

void run_checkpointed(Chain& chain, std::uint64_t target, std::uint64_t checkpoint_every,
                      RunObserver* observer, std::uint64_t replicate,
                      const std::function<void()>& on_checkpoint_boundary) {
    run_adaptive_checkpointed(chain, target, 0, 1, checkpoint_every, observer, replicate,
                              nullptr, on_checkpoint_boundary);
}

void run_adaptive_checkpointed(Chain& chain, std::uint64_t max_target,
                               std::uint64_t min_supersteps, std::uint64_t check_every,
                               std::uint64_t checkpoint_every, RunObserver* observer,
                               std::uint64_t replicate,
                               const std::function<bool()>& should_stop,
                               const std::function<void()>& on_checkpoint_boundary) {
    GESMC_CHECK(on_checkpoint_boundary != nullptr, "null checkpoint boundary");
    GESMC_CHECK(should_stop == nullptr || check_every >= 1, "check-every must be >= 1");
    std::uint64_t done = chain.stats().supersteps;
    GESMC_CHECK(done <= max_target, "chain is already past the target superstep count");
    const ChainStats before = chain.stats();
    // The stop rule is polled only on absolute check steps, and chunks end
    // exactly on them, so the chain never overruns a stop verdict
    // (overrunning would make the realized superstep count depend on chunk
    // sizes).  Without a stop rule there is no check grid.
    const auto stop_at = [&](std::uint64_t s) {
        return should_stop != nullptr && s >= min_supersteps && s % check_every == 0 &&
               should_stop();
    };
    bool stop = stop_at(done);
    while (done < max_target && !stop) {
        std::uint64_t next = max_target;
        if (should_stop != nullptr) {
            std::uint64_t check = std::max(done + 1, min_supersteps);
            if (check % check_every != 0) check += check_every - check % check_every;
            next = std::min(next, check);
        }
        if (checkpoint_every > 0) {
            next = std::min(next, done + checkpoint_every - done % checkpoint_every);
        }
        const std::uint64_t chunk = next - done;
        if (obs::trace_enabled()) {
            // Per-superstep spans: split the chunk into single supersteps.
            // Byte-identical to the chunked path — randomness is counter-
            // based, so split points never change the trajectory (the same
            // property checkpoint/resume relies on).
            for (std::uint64_t s = 0; s < chunk; ++s) {
                obs::TraceSpan span("superstep", "core",
                                    {{"replicate", replicate}, {"superstep", done + s}});
                chain.run_supersteps(1, observer, replicate);
            }
        } else {
            chain.run_supersteps(chunk, observer, replicate);
        }
        done = next;
        stop = stop_at(done);
        // Mid-run checkpoints only on absolute multiples of the cadence, so
        // the boundary points a resumed run sees match the uninterrupted
        // run's.
        if (!stop && done < max_target && checkpoint_every > 0 &&
            done % checkpoint_every == 0) {
            on_checkpoint_boundary();
        }
    }
    on_checkpoint_boundary(); // completion boundary: the finished marker
    if (obs::metrics_enabled()) count_chain_progress(before, chain.stats());
}

} // namespace gesmc
