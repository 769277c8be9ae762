/// \file bench_micro_switching.cpp
/// \brief Per-switch cost of every chain implementation, plus the §5.4
/// prefetch-pipeline ablation for SeqES and the ParallelSuperstep
/// prefetch ablation.  Items/sec = attempted switches per second.
///
/// `--bench-json=FILE` additionally writes the gesmc-bench-v1 aggregate
/// the CI regression gate diffs against bench/baselines/BENCH_switching.json.
#include "bench_util/gbench_json.hpp"
#include "bench_util/naive_par_es.hpp"
#include "core/chain.hpp"
#include "gen/corpus.hpp"
#include "gen/gnp.hpp"

#include <benchmark/benchmark.h>

namespace {

using namespace gesmc;

const EdgeList& bench_graph() {
    static const EdgeList g =
        generate_gnp(30000, gnp_probability_for_edges(30000, 120000), 555);
    return g;
}

const EdgeList& bench_graph_skewed() {
    static const EdgeList g = generate_powerlaw_graph(30000, 2.1, 556);
    return g;
}

void run_chain_bench(benchmark::State& state, ChainAlgorithm algo, unsigned threads,
                     bool prefetch, const EdgeList& graph) {
    ChainConfig config;
    config.seed = 1;
    config.threads = threads;
    config.prefetch = prefetch;
    const auto chain = make_chain(algo, graph, config);
    for (auto _ : state) {
        chain->run_supersteps(1);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(chain->stats().attempted));
}

void BM_SeqES_NoPrefetch(benchmark::State& state) {
    run_chain_bench(state, ChainAlgorithm::kSeqES, 1, false, bench_graph());
}
BENCHMARK(BM_SeqES_NoPrefetch);

void BM_SeqES_Prefetch(benchmark::State& state) {
    run_chain_bench(state, ChainAlgorithm::kSeqES, 1, true, bench_graph());
}
BENCHMARK(BM_SeqES_Prefetch);

void BM_SeqGlobalES(benchmark::State& state) {
    run_chain_bench(state, ChainAlgorithm::kSeqGlobalES, 1, true, bench_graph());
}
BENCHMARK(BM_SeqGlobalES);

void BM_AdjListES(benchmark::State& state) {
    run_chain_bench(state, ChainAlgorithm::kAdjListES, 1, true, bench_graph());
}
BENCHMARK(BM_AdjListES);

void BM_ParES(benchmark::State& state) {
    run_chain_bench(state, ChainAlgorithm::kParES, static_cast<unsigned>(state.range(0)),
                    true, bench_graph());
}
BENCHMARK(BM_ParES)->Arg(1)->Arg(2);

void BM_ParGlobalES_NoPrefetch(benchmark::State& state) {
    run_chain_bench(state, ChainAlgorithm::kParGlobalES,
                    static_cast<unsigned>(state.range(0)), false, bench_graph());
}
BENCHMARK(BM_ParGlobalES_NoPrefetch)->Arg(1)->Arg(2);

void BM_ParGlobalES_Prefetch(benchmark::State& state) {
    run_chain_bench(state, ChainAlgorithm::kParGlobalES,
                    static_cast<unsigned>(state.range(0)), true, bench_graph());
}
BENCHMARK(BM_ParGlobalES_Prefetch)->Arg(1)->Arg(2);

void BM_ParGlobalES_SkewedDegrees(benchmark::State& state) {
    // Skewed degree sequences concentrate target dependencies (Theorem 3).
    run_chain_bench(state, ChainAlgorithm::kParGlobalES,
                    static_cast<unsigned>(state.range(0)), true, bench_graph_skewed());
}
BENCHMARK(BM_ParGlobalES_SkewedDegrees)->Arg(1)->Arg(2);

/// The inexact §5.1 baseline (bench_util/naive_par_es.hpp).  It keeps
/// degrees and simplicity on any thread count; the run is an error if not.
void BM_NaiveParES(benchmark::State& state) {
    ChainConfig config;
    config.seed = 1;
    config.threads = static_cast<unsigned>(state.range(0));
    NaiveParES chain(bench_graph(), config);
    for (auto _ : state) chain.run_supersteps(1);
    state.SetItemsProcessed(static_cast<std::int64_t>(chain.stats().attempted));
    if (!chain.graph().is_simple() || chain.graph().degrees() != bench_graph().degrees()) {
        state.SkipWithError("NaiveParES broke degrees or simplicity");
    }
}
BENCHMARK(BM_NaiveParES)->Arg(1)->Arg(2);

const EdgeList& bench_graph_small() {
    static const EdgeList g = generate_gnp(2000, gnp_probability_for_edges(2000, 6000), 557);
    return g;
}

/// §7 ablation: the small-graph base case vs the full superstep machinery
/// on a graph where synchronization overhead dominates.
void BM_ParGlobalES_SmallGraph(benchmark::State& state) {
    ChainConfig config;
    config.seed = 1;
    config.threads = 2;
    config.small_graph_cutoff = state.range(0) ? (1u << 20) : 0;
    const auto chain = make_chain(ChainAlgorithm::kParGlobalES, bench_graph_small(), config);
    for (auto _ : state) chain->run_supersteps(1);
    state.SetItemsProcessed(static_cast<std::int64_t>(chain->stats().attempted));
}
BENCHMARK(BM_ParGlobalES_SmallGraph)
    ->Arg(0)  // plain Algorithm 3
    ->Arg(1); // with the sequential base case

} // namespace

int main(int argc, char** argv) {
    return gesmc::run_micro_bench("switching", argc, argv);
}
