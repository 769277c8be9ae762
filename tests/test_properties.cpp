// Parameterized property suites (TEST_P sweeps) across the full
// (algorithm x graph family x thread count x seed) grid:
//  * conservation laws every chain must satisfy,
//  * exactness of the parallel chains against their sequential twins,
//  * determinism in the seed and independence from the thread count,
//  * ParallelSuperstep equivalence on adversarial batch shapes.
#include "core/chain.hpp"
#include "core/seq_global_es.hpp"
#include "core/parallel_superstep.hpp"
#include "core/sequential_apply.hpp"
#include "core/switch_stream.hpp"
#include "graph_cases.hpp"
#include "hashing/robin_set.hpp"
#include "rng/mt19937_64.hpp"
#include "rng/shuffle.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <sstream>

namespace gesmc {
namespace {

// ------------------------------------------------------------ test graphs

using test::GraphCase;
using test::kGraphCases;

std::string graph_case_name(const testing::TestParamInfo<GraphCase>& info) {
    std::string s = info.param.name;
    for (auto& c : s)
        if (c == '-') c = '_';
    return s;
}

// --------------------------------------------------- conservation sweeps

struct ConservationParam {
    GraphCase graph;
    ChainAlgorithm algo;
    unsigned threads;
};

class ChainConservation : public testing::TestWithParam<ConservationParam> {};

TEST_P(ChainConservation, DegreesSimplicityAndCounters) {
    const auto& p = GetParam();
    const EdgeList initial = p.graph.make();
    ChainConfig config;
    config.seed = 77;
    config.threads = p.threads;
    const auto chain = make_chain(p.algo, initial, config);
    const auto deg = initial.degrees();

    for (int batch = 0; batch < 3; ++batch) {
        chain->run_supersteps(1);
        const EdgeList& g = chain->graph();
        ASSERT_TRUE(g.is_simple());
        ASSERT_EQ(g.degrees(), deg);
        const auto& st = chain->stats();
        ASSERT_EQ(st.attempted, st.accepted + st.rejected_loop + st.rejected_edge);
    }
}

std::vector<ConservationParam> conservation_grid() {
    std::vector<ConservationParam> grid;
    for (const auto& g : kGraphCases) {
        for (const auto algo :
             {ChainAlgorithm::kSeqES, ChainAlgorithm::kSeqGlobalES, ChainAlgorithm::kAdjListES}) {
            grid.push_back({g, algo, 1});
        }
        for (const auto algo : {ChainAlgorithm::kParES, ChainAlgorithm::kParGlobalES}) {
            grid.push_back({g, algo, 1});
            grid.push_back({g, algo, 3});
        }
    }
    return grid;
}

INSTANTIATE_TEST_SUITE_P(AllChainsAllGraphs, ChainConservation,
                         testing::ValuesIn(conservation_grid()),
                         [](const testing::TestParamInfo<ConservationParam>& info) {
                             std::string s = std::string(info.param.graph.name) + "_" +
                                             to_string(info.param.algo) + "_P" +
                                             std::to_string(info.param.threads);
                             for (auto& c : s)
                                 if (c == '-') c = '_';
                             return s;
                         });

// ------------------------------------------------------- exactness sweeps

class ParVsSeqExactness : public testing::TestWithParam<GraphCase> {};

TEST_P(ParVsSeqExactness, GlobalChainsIdenticalForAllThreadCounts) {
    const EdgeList initial = GetParam().make();
    ChainConfig config;
    config.seed = 3;
    SeqGlobalES seq_ref(initial, config);
    seq_ref.run_supersteps(2);
    for (unsigned threads : {1u, 2u, 3u}) {
        ChainConfig par_config;
        par_config.seed = 3;
        par_config.threads = threads;
        const auto par = make_chain(ChainAlgorithm::kParGlobalES, initial, par_config);
        par->run_supersteps(2);
        ASSERT_TRUE(par->graph().same_graph(seq_ref.graph())) << "threads=" << threads;
    }
}

TEST_P(ParVsSeqExactness, EsChainsIdenticalForAllThreadCounts) {
    const EdgeList initial = GetParam().make();
    ChainConfig config;
    config.seed = 4;
    const auto seq = make_chain(ChainAlgorithm::kSeqES, initial, config);
    seq->run_supersteps(2);
    for (unsigned threads : {1u, 3u}) {
        ChainConfig par_config;
        par_config.seed = 4;
        par_config.threads = threads;
        const auto par = make_chain(ChainAlgorithm::kParES, initial, par_config);
        par->run_supersteps(2);
        ASSERT_TRUE(par->graph().same_graph(seq->graph())) << "threads=" << threads;
    }
}

TEST_P(ParVsSeqExactness, SeedDeterminism) {
    const EdgeList initial = GetParam().make();
    for (const auto algo : {ChainAlgorithm::kSeqES, ChainAlgorithm::kSeqGlobalES,
                            ChainAlgorithm::kParGlobalES}) {
        ChainConfig config;
        config.seed = 5;
        config.threads = 2;
        const auto a = make_chain(algo, initial, config);
        const auto b = make_chain(algo, initial, config);
        a->run_supersteps(2);
        b->run_supersteps(2);
        ASSERT_EQ(a->graph().keys(), b->graph().keys()) << to_string(algo);
    }
}

INSTANTIATE_TEST_SUITE_P(AllGraphs, ParVsSeqExactness, testing::ValuesIn(kGraphCases),
                         graph_case_name);

// ------------------------------------------- superstep batch-shape sweeps

struct BatchShapeParam {
    const char* name;
    /// Builds a source-dependency-free batch for a graph with m edges.
    std::vector<Switch> (*make)(std::uint64_t m, std::uint64_t seed);
};

std::vector<Switch> batch_full_pairing(std::uint64_t m, std::uint64_t seed) {
    std::vector<std::uint32_t> perm;
    sample_permutation(perm, m, seed);
    std::vector<Switch> batch;
    for (std::uint64_t k = 0; 2 * k + 1 < m; ++k) {
        batch.push_back(Switch{perm[2 * k], perm[2 * k + 1],
                               static_cast<std::uint8_t>(perm[2 * k] < perm[2 * k + 1])});
    }
    return batch;
}

std::vector<Switch> batch_single(std::uint64_t m, std::uint64_t seed) {
    return {Switch{static_cast<std::uint32_t>(seed % m),
                   static_cast<std::uint32_t>((seed + 1) % m), 1}};
}

std::vector<Switch> batch_adjacent_indices(std::uint64_t m, std::uint64_t) {
    // Consecutive index pairs (0,1), (2,3), ...: high chance of shared
    // nodes -> loops/identity cases when edges are sorted by construction.
    std::vector<Switch> batch;
    for (std::uint64_t k = 0; 2 * k + 1 < m; ++k) {
        batch.push_back(Switch{static_cast<std::uint32_t>(2 * k),
                               static_cast<std::uint32_t>(2 * k + 1),
                               static_cast<std::uint8_t>(k % 2)});
    }
    return batch;
}

std::vector<Switch> batch_reversed(std::uint64_t m, std::uint64_t seed) {
    auto batch = batch_full_pairing(m, seed);
    // Reversing the order changes which switch wins each dependency; the
    // parallel executor must follow suit exactly.
    std::reverse(batch.begin(), batch.end());
    return batch;
}

std::vector<Switch> batch_all_g0(std::uint64_t m, std::uint64_t seed) {
    auto batch = batch_full_pairing(m, seed);
    for (auto& sw : batch) sw.g = 0;
    return batch;
}

const BatchShapeParam kBatchShapes[] = {
    {"full-pairing", batch_full_pairing}, {"single", batch_single},
    {"adjacent", batch_adjacent_indices}, {"reversed", batch_reversed},
    {"all-g0", batch_all_g0},
};

class SuperstepBatchShapes : public testing::TestWithParam<BatchShapeParam> {};

TEST_P(SuperstepBatchShapes, ParallelEqualsSequentialOnAllGraphs) {
    for (const auto& gc : kGraphCases) {
        const EdgeList graph = gc.make();
        const std::uint64_t m = graph.num_edges();
        const auto batch = GetParam().make(m, 99);

        ThreadPool pool(3);
        std::vector<edge_key_t> par_keys = graph.keys();
        ConcurrentEdgeSet set(m);
        for (const edge_key_t k : par_keys) set.insert_unique(k);
        SuperstepRunner runner(batch.size());
        runner.run(pool, par_keys, set, batch);

        std::vector<edge_key_t> seq_keys = graph.keys();
        RobinSet ref_set(m);
        for (const edge_key_t k : seq_keys) ref_set.insert(k);
        ChainStats stats;
        for (const Switch& sw : batch) apply_switch_sequential(seq_keys, ref_set, sw, stats);

        ASSERT_EQ(par_keys, seq_keys) << gc.name << " / " << GetParam().name;
        // Set and edge list must agree afterwards.
        ASSERT_EQ(set.size(), m) << gc.name;
        for (const edge_key_t k : par_keys) ASSERT_TRUE(set.contains(k));
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SuperstepBatchShapes, testing::ValuesIn(kBatchShapes),
                         [](const testing::TestParamInfo<BatchShapeParam>& info) {
                             std::string s = info.param.name;
                             for (auto& c : s)
                                 if (c == '-') c = '_';
                             return s;
                         });

// ----------------------------------------------- switch-stream uniformity

class SwitchStreamSeeds : public testing::TestWithParam<std::uint64_t> {};

TEST_P(SwitchStreamSeeds, PairDistributionIsSymmetric) {
    // P(i < j) must be exactly 1/2 on ordered distinct pairs.
    SwitchStream stream(GetParam(), 64);
    int less = 0;
    constexpr int draws = 20000;
    for (int k = 0; k < draws; ++k) {
        const Switch sw = stream.get(static_cast<std::uint64_t>(k));
        less += sw.i < sw.j;
    }
    EXPECT_NEAR(less, draws / 2.0, 5 * std::sqrt(draws * 0.25));
}

TEST_P(SwitchStreamSeeds, DirectionBitIsFair) {
    SwitchStream stream(GetParam(), 64);
    int ones = 0;
    constexpr int draws = 20000;
    for (int k = 0; k < draws; ++k) ones += stream.get(static_cast<std::uint64_t>(k)).g;
    EXPECT_NEAR(ones, draws / 2.0, 5 * std::sqrt(draws * 0.25));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwitchStreamSeeds, testing::Values(1, 42, 0xdeadbeef, 7777777));

// --------------------------------------------- permutation sampler sweeps

class PermutationSizes : public testing::TestWithParam<std::uint64_t> {};

TEST_P(PermutationSizes, ValidAndThreadCountInvariant) {
    const std::uint64_t n = GetParam();
    std::vector<std::uint32_t> ref;
    sample_permutation(ref, n, 4711);
    ASSERT_EQ(ref.size(), n);
    std::vector<bool> seen(n, false);
    for (const auto x : ref) {
        ASSERT_LT(x, n);
        ASSERT_FALSE(seen[x]);
        seen[x] = true;
    }
    ThreadPool pool(3);
    std::vector<std::uint32_t> par;
    sample_permutation(par, n, 4711, pool);
    ASSERT_EQ(par, ref);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PermutationSizes,
                         testing::Values(0, 1, 2, 3, 100, 2047, 2048, 2049, 10000, 65536));

} // namespace
} // namespace gesmc
