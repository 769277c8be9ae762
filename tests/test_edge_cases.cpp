// Boundary and failure-injection tests: minimum-size graphs, degenerate
// topologies where every switch is rejected, invalid configurations, and
// stress shapes that historically break switching implementations.
#include "core/chain.hpp"
#include "core/seq_es.hpp"
#include "gen/corpus.hpp"
#include "gen/gnp.hpp"
#include "graph/degree_sequence.hpp"

#include <gtest/gtest.h>

namespace gesmc {
namespace {

EdgeList two_disjoint_edges() {
    return EdgeList::from_pairs(4, {Edge{0, 1}, Edge{2, 3}});
}

EdgeList path_of_three() { // 0-1-2: m = 2, switches always degenerate
    return EdgeList::from_pairs(3, {Edge{0, 1}, Edge{1, 2}});
}

EdgeList triangle() { return EdgeList::from_pairs(3, {Edge{0, 1}, Edge{1, 2}, Edge{0, 2}}); }

EdgeList complete_graph(node_t n) {
    std::vector<Edge> pairs;
    for (node_t u = 0; u < n; ++u)
        for (node_t v = u + 1; v < n; ++v) pairs.push_back(Edge{u, v});
    return EdgeList::from_pairs(n, pairs);
}

const ChainAlgorithm kAllAlgos[] = {
    ChainAlgorithm::kSeqES,       ChainAlgorithm::kSeqGlobalES, ChainAlgorithm::kParES,
    ChainAlgorithm::kParGlobalES, ChainAlgorithm::kAdjListES,
};

TEST(EdgeCases, MinimumTwoEdgeGraphRuns) {
    // m = 2: the smallest legal input; both matchings are reachable.
    const EdgeList g = two_disjoint_edges();
    for (const auto algo : kAllAlgos) {
        ChainConfig config;
        config.seed = 1;
        config.threads = 2;
        auto chain = make_chain(algo, g, config);
        chain->run_supersteps(5);
        EXPECT_TRUE(chain->graph().is_simple()) << to_string(algo);
        EXPECT_EQ(chain->graph().degrees(), g.degrees()) << to_string(algo);
    }
}

TEST(EdgeCases, PathOfThreeIsFrozen) {
    // Adjacent edges: every switch is a loop proposal or the identity, so
    // the graph can never change (the only realization of d=(1,2,1)).
    const EdgeList g = path_of_three();
    for (const auto algo : kAllAlgos) {
        ChainConfig config;
        config.seed = 2;
        config.threads = 2;
        auto chain = make_chain(algo, g, config);
        chain->run_supersteps(10);
        EXPECT_TRUE(chain->graph().same_graph(g)) << to_string(algo);
    }
}

TEST(EdgeCases, TriangleIsFrozen) {
    // d = (2,2,2) on 3 nodes has exactly one realization.
    const EdgeList g = triangle();
    for (const auto algo : kAllAlgos) {
        ChainConfig config;
        config.seed = 3;
        config.threads = 2;
        auto chain = make_chain(algo, g, config);
        chain->run_supersteps(10);
        EXPECT_TRUE(chain->graph().same_graph(g)) << to_string(algo);
    }
}

TEST(EdgeCases, CompleteGraphIsFrozenAndAllRejections) {
    // K_6: every non-degenerate target edge already exists.
    const EdgeList g = complete_graph(6);
    for (const auto algo : kAllAlgos) {
        ChainConfig config;
        config.seed = 4;
        config.threads = 2;
        auto chain = make_chain(algo, g, config);
        chain->run_supersteps(10);
        EXPECT_TRUE(chain->graph().same_graph(g)) << to_string(algo);
    }
}

TEST(EdgeCases, SingleEdgeGraphRejected) {
    const EdgeList g = EdgeList::from_pairs(2, {Edge{0, 1}});
    for (const auto algo : kAllAlgos) {
        EXPECT_THROW(make_chain(algo, g, ChainConfig{}), Error) << to_string(algo);
    }
}

TEST(EdgeCases, NonSimpleInitialGraphRejected) {
    const EdgeList multi = EdgeList::from_keys(3, {edge_key(0, 1), edge_key(0, 1)});
    for (const auto algo : kAllAlgos) {
        EXPECT_THROW(make_chain(algo, multi, ChainConfig{}), Error) << to_string(algo);
    }
}

TEST(EdgeCases, ZeroSuperstepsIsNoop) {
    const EdgeList g = generate_gnp(100, 0.1, 5);
    for (const auto algo : kAllAlgos) {
        ChainConfig config;
        config.threads = 2;
        auto chain = make_chain(algo, g, config);
        chain->run_supersteps(0);
        EXPECT_TRUE(chain->graph().same_graph(g)) << to_string(algo);
        EXPECT_EQ(chain->stats().attempted, 0u);
    }
}

TEST(EdgeCases, OddEdgeCountGlobalSwitch) {
    // m odd: a global switch pairs floor(m/2) switches and leaves one edge
    // unpaired every superstep.
    const EdgeList g = generate_gnp(60, 0.1, 6);
    ASSERT_GE(g.num_edges(), 3u);
    ChainConfig config;
    config.seed = 7;
    auto seq = make_chain(ChainAlgorithm::kSeqGlobalES, g, config);
    seq->run_supersteps(5);
    EXPECT_EQ(seq->graph().degrees(), g.degrees());
    config.threads = 2;
    auto par = make_chain(ChainAlgorithm::kParGlobalES, g, config);
    par->run_supersteps(5);
    EXPECT_TRUE(par->graph().same_graph(seq->graph()));
}

TEST(EdgeCases, ExtremePLValues) {
    const EdgeList g = generate_gnp(100, 0.1, 8);
    // P_L close to 1: almost all switches rejected, graph nearly frozen.
    ChainConfig lazy;
    lazy.pl = 0.999;
    auto chain = make_chain(ChainAlgorithm::kSeqGlobalES, g, lazy);
    chain->run_supersteps(3);
    EXPECT_LT(chain->stats().attempted, g.num_edges());
    EXPECT_EQ(chain->graph().degrees(), g.degrees());
    // P_L at the boundaries is rejected per Definition 3 — at make_chain
    // time, before any work happens.
    for (const double bad : {0.0, 1.0, -0.1, 1.5}) {
        ChainConfig config;
        config.pl = bad;
        EXPECT_THROW(make_chain(ChainAlgorithm::kSeqGlobalES, g, config), Error) << bad;
    }
}

TEST(EdgeCases, ManyThreadsOnTinyGraph) {
    // More threads than switches per superstep: chunking must not break.
    const EdgeList g = two_disjoint_edges();
    ChainConfig config;
    config.seed = 9;
    config.threads = 8;
    auto chain = make_chain(ChainAlgorithm::kParGlobalES, g, config);
    chain->run_supersteps(20);
    EXPECT_EQ(chain->graph().degrees(), g.degrees());
}

TEST(EdgeCases, HubGraphHeavyTargetDependencies) {
    // Two hubs sharing most of the graph's stubs: a large fraction of all
    // switches propose the same hub-hub edge (the Theorem 3 worst case and
    // the trigger for the dependency-table min-cache).
    std::vector<Edge> pairs;
    constexpr node_t kLeaves = 400;
    for (node_t leaf = 0; leaf < kLeaves; ++leaf) {
        pairs.push_back(Edge{0, static_cast<node_t>(2 + leaf)});
        pairs.push_back(Edge{1, static_cast<node_t>(2 + kLeaves + leaf)});
    }
    const EdgeList g = EdgeList::from_pairs(2 + 2 * kLeaves, pairs);

    ChainConfig seq_config;
    seq_config.seed = 10;
    auto seq = make_chain(ChainAlgorithm::kSeqGlobalES, g, seq_config);
    seq->run_supersteps(3);

    ChainConfig par_config;
    par_config.seed = 10;
    par_config.threads = 3;
    auto par = make_chain(ChainAlgorithm::kParGlobalES, g, par_config);
    par->run_supersteps(3);

    EXPECT_TRUE(par->graph().same_graph(seq->graph()));
    EXPECT_EQ(par->graph().degrees(), g.degrees());
}

TEST(EdgeCases, SmallGraphBaseCaseIdenticalOutcome) {
    // The §7 small-graph base case must not change results — only skip the
    // superstep machinery.
    const EdgeList g = generate_gnp(200, 0.05, 14);
    ChainConfig plain;
    plain.seed = 15;
    plain.threads = 2;
    auto reference = make_chain(ChainAlgorithm::kParGlobalES, g, plain);
    reference->run_supersteps(4);

    ChainConfig with_base = plain;
    with_base.small_graph_cutoff = 1 << 20; // always take the base case
    auto base = make_chain(ChainAlgorithm::kParGlobalES, g, with_base);
    base->run_supersteps(4);

    EXPECT_EQ(base->graph().keys(), reference->graph().keys());
    EXPECT_EQ(base->stats().accepted, reference->stats().accepted);
    EXPECT_EQ(base->stats().attempted, reference->stats().attempted);
    EXPECT_EQ(base->stats().rounds_total, 0u); // no superstep rounds ran
}

TEST(EdgeCases, SeqESRunSwitchesPartialSuperstep) {
    // The fine-grained switch API must agree with superstep accounting.
    const EdgeList g = generate_gnp(100, 0.1, 11);
    ChainConfig config;
    config.seed = 12;
    SeqES a(g, config);
    a.run_switches(7); // not a multiple of the pipeline block
    EXPECT_EQ(a.stats().attempted, 7u);
    SeqES b(g, config);
    b.run_switches(3);
    b.run_switches(4);
    EXPECT_EQ(a.graph().keys(), b.graph().keys());
}

TEST(EdgeCases, IsolatedNodesDoNotDisturbChains) {
    // Nodes of degree 0 simply never participate.
    std::vector<Edge> pairs{Edge{3, 7}, Edge{8, 12}, Edge{1, 9}, Edge{2, 14}};
    const EdgeList g = EdgeList::from_pairs(20, pairs);
    ChainConfig config;
    config.seed = 13;
    auto chain = make_chain(ChainAlgorithm::kSeqGlobalES, g, config);
    chain->run_supersteps(10);
    const auto deg = chain->graph().degrees();
    EXPECT_EQ(deg[0], 0u);
    EXPECT_EQ(deg[19], 0u);
    EXPECT_EQ(chain->graph().degrees(), g.degrees());
}

} // namespace
} // namespace gesmc
