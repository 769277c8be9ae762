// Cross-module integration tests: generator -> chain -> analysis pipelines,
// IO round trips through randomization, corpus-wide sanity, and edge cases
// at the boundaries between modules.
#include "analysis/autocorrelation.hpp"
#include "analysis/convergence.hpp"
#include "analysis/proxy_metrics.hpp"
#include "core/chain.hpp"
#include "gen/corpus.hpp"
#include "gen/gnp.hpp"
#include "gen/havel_hakimi.hpp"
#include "gen/powerlaw.hpp"
#include "graph/adjacency.hpp"
#include "graph/degree_sequence.hpp"
#include "graph/io.hpp"
#include "graph/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>

namespace gesmc {
namespace {

TEST(Pipeline, GenerateRandomizeAnalyze) {
    // The full quickstart pipeline with assertions at every joint.
    const DegreeSequence seq = sample_powerlaw_degrees(2000, 2.3, 1);
    ASSERT_TRUE(seq.is_graphical());
    const EdgeList initial = havel_hakimi(seq);
    ASSERT_EQ(degree_sequence_of(initial).degrees(), seq.degrees());

    ChainConfig config;
    config.seed = 9;
    config.threads = 2;
    auto chain = make_chain(ChainAlgorithm::kParGlobalES, initial, config);

    ThinningAutocorrelation tracker(*chain, {1, 2, 4},
                                    ThinningAutocorrelation::Track::kInitialEdges);
    const std::uint64_t before_triangles = triangle_count(Adjacency(initial));
    for (int step = 0; step < 12; ++step) {
        chain->run_supersteps(1);
        tracker.observe(*chain);
    }
    // Randomization must destroy the Havel-Hakimi clustering.
    const std::uint64_t after_triangles = triangle_count(Adjacency(chain->graph()));
    EXPECT_LT(after_triangles * 2, before_triangles);
    // And the autocorrelation tracker must have seen real movement.
    EXPECT_LT(tracker.non_independent_fraction(2), 1.0);
    EXPECT_EQ(tracker.supersteps(), 12u);
}

TEST(Pipeline, IoRoundTripThroughRandomization) {
    const EdgeList initial = generate_gnp(400, 0.02, 3);
    ChainConfig config;
    config.seed = 5;
    auto chain = make_chain(ChainAlgorithm::kSeqGlobalES, initial, config);
    chain->run_supersteps(3);

    std::stringstream buffer;
    write_edge_list(buffer, chain->graph());
    const EdgeList loaded = read_edge_list(buffer);
    EXPECT_TRUE(loaded.same_graph(chain->graph()));
    EXPECT_EQ(loaded.degrees(), initial.degrees());

    // A chain restarted from the file continues to work.
    auto chain2 = make_chain(ChainAlgorithm::kSeqES, loaded, config);
    chain2->run_supersteps(1);
    EXPECT_EQ(chain2->graph().degrees(), initial.degrees());
}

TEST(Pipeline, MixingCurveOrderingGESvsES) {
    // The paper's central empirical claim (Fig. 2) at test scale: at
    // thinning 1 the G-ES-MC non-independence is not substantially above
    // the ES-MC one on a power-law graph.
    const EdgeList graph = generate_powerlaw_graph(256, 2.3, 21);
    MixingExperimentConfig mc;
    mc.max_thinning = 8;
    mc.samples_at_max = 25;
    mc.runs = 3;
    mc.base_seed = 77;
    const MixingCurve ges = mixing_curve(ChainAlgorithm::kSeqGlobalES, graph, mc);
    const MixingCurve es = mixing_curve(ChainAlgorithm::kSeqES, graph, mc);
    EXPECT_LE(ges.mean.front(), es.mean.front() + 0.1);
}

TEST(Pipeline, NullModelZScoreIsLargeForClusteredGraph) {
    // Miniature of examples/null_model_motifs.cpp with assertions.
    const EdgeList observed = generate_powerlaw_graph(600, 2.3, 31);
    const auto observed_tri = static_cast<double>(triangle_count(Adjacency(observed)));
    double sum = 0, sum2 = 0;
    constexpr int samples = 8;
    for (int s = 0; s < samples; ++s) {
        ChainConfig config;
        config.seed = 100 + static_cast<std::uint64_t>(s);
        auto chain = make_chain(ChainAlgorithm::kSeqGlobalES, observed, config);
        chain->run_supersteps(10);
        const auto t = static_cast<double>(triangle_count(Adjacency(chain->graph())));
        sum += t;
        sum2 += t * t;
    }
    const double mean = sum / samples;
    const double var = std::max(1e-9, sum2 / samples - mean * mean);
    const double z = (observed_tri - mean) / std::sqrt(var);
    EXPECT_GT(z, 5.0); // HH clustering is far outside the null model
}

TEST(Pipeline, CorpusEntriesSurviveEveryChain) {
    for (const auto& entry : corpus_test()) {
        for (const auto algo : {ChainAlgorithm::kSeqGlobalES, ChainAlgorithm::kParGlobalES}) {
            ChainConfig config;
            config.seed = 1;
            config.threads = 2;
            auto chain = make_chain(algo, entry.graph, config);
            chain->run_supersteps(2);
            EXPECT_TRUE(chain->graph().is_simple()) << entry.name;
            EXPECT_EQ(chain->graph().degrees(), entry.graph.degrees()) << entry.name;
        }
    }
}

TEST(Pipeline, FileRoundTripOnDisk) {
    const std::string path = testing::TempDir() + "/gesmc_io_test.txt";
    const EdgeList g = generate_powerlaw_graph(300, 2.4, 8);
    write_edge_list_file(path, g);
    const EdgeList back = read_edge_list_file(path);
    EXPECT_TRUE(back.same_graph(g));
    std::remove(path.c_str());
}

TEST(Pipeline, ChainsComposeSequentially) {
    // Randomize with one chain, continue with another — a realistic
    // workflow (fast parallel burn-in, then exact sequential sampling).
    const EdgeList initial = generate_gnp(300, 0.03, 4);
    ChainConfig config;
    config.seed = 6;
    config.threads = 2;
    auto par = make_chain(ChainAlgorithm::kParGlobalES, initial, config);
    par->run_supersteps(5);
    auto seq = make_chain(ChainAlgorithm::kSeqES, par->graph(), config);
    seq->run_supersteps(5);
    EXPECT_TRUE(seq->graph().is_simple());
    EXPECT_EQ(seq->graph().degrees(), initial.degrees());
}

TEST(Pipeline, HasEdgeConsistentAcrossAllChains) {
    const EdgeList initial = generate_powerlaw_graph(200, 2.5, 5);
    for (const auto algo :
         {ChainAlgorithm::kSeqES, ChainAlgorithm::kSeqGlobalES, ChainAlgorithm::kParES,
          ChainAlgorithm::kParGlobalES, ChainAlgorithm::kAdjListES}) {
        ChainConfig config;
        config.seed = 2;
        config.threads = 2;
        auto chain = make_chain(algo, initial, config);
        chain->run_supersteps(1);
        const EdgeList& g = chain->graph();
        // Every listed edge must be reported present; sampled non-edges absent.
        for (std::uint64_t i = 0; i < g.num_edges(); ++i) {
            ASSERT_TRUE(chain->has_edge(g.key(i))) << to_string(algo);
        }
        std::uint64_t misses = 0;
        for (node_t u = 0; u < 20; ++u) {
            for (node_t v = u + 1; v < 20; ++v) {
                const auto sorted = g.sorted_keys();
                const bool in_list =
                    std::binary_search(sorted.begin(), sorted.end(), edge_key(u, v));
                if (chain->has_edge(edge_key(u, v)) != in_list) ++misses;
            }
        }
        EXPECT_EQ(misses, 0u) << to_string(algo);
    }
}

TEST(Pipeline, StatsAccumulateAcrossRunCalls) {
    const EdgeList initial = generate_gnp(200, 0.05, 6);
    ChainConfig config;
    auto chain = make_chain(ChainAlgorithm::kSeqES, initial, config);
    chain->run_supersteps(1);
    const auto first = chain->stats().attempted;
    chain->run_supersteps(2);
    EXPECT_EQ(chain->stats().attempted, 3 * first);
    EXPECT_EQ(chain->stats().supersteps, 3u);
}

} // namespace
} // namespace gesmc
