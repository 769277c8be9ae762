// Tests for the graph substrate: edge encoding, edge lists, degree
// sequences (Erdos–Gallai, P2), adjacency, metrics, IO.
#include "gen/corpus.hpp"
#include "gen/gnp.hpp"
#include "graph/adjacency.hpp"
#include "graph/degree_sequence.hpp"
#include "graph/edge.hpp"
#include "graph/edge_list.hpp"
#include "graph/io.hpp"
#include "graph/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

namespace gesmc {
namespace {

// ------------------------------------------------------------------ edge

TEST(Edge, CanonicalOrientation) {
    EXPECT_EQ((Edge{3, 7}.canonical()), (Edge{3, 7}));
    EXPECT_EQ((Edge{7, 3}.canonical()), (Edge{3, 7}));
    EXPECT_EQ((Edge{5, 5}.canonical()), (Edge{5, 5}));
}

TEST(Edge, KeyRoundTrip) {
    for (const Edge e : {Edge{0, 1}, Edge{1, 0}, Edge{123, 456}, Edge{kMaxNode - 1, kMaxNode}}) {
        const Edge back = edge_from_key(edge_key(e));
        EXPECT_EQ(back, e.canonical());
    }
}

TEST(Edge, KeyIsOrderInvariant) {
    EXPECT_EQ(edge_key(3, 9), edge_key(9, 3));
    EXPECT_NE(edge_key(3, 9), edge_key(3, 8));
}

TEST(Edge, LoopZeroIsSentinel) {
    EXPECT_EQ(edge_key(0, 0), 0u);
    EXPECT_TRUE(key_is_loop(edge_key(4, 4)));
    EXPECT_FALSE(key_is_loop(edge_key(4, 5)));
}

TEST(Edge, KeysFitIn56Bits) {
    EXPECT_LT(edge_key(kMaxNode - 1, kMaxNode), 1ULL << 56);
}

// ------------------------------------------------------------- edge list

EdgeList triangle_plus_pendant() {
    // 0-1, 1-2, 0-2, 2-3
    return EdgeList::from_pairs(4, {Edge{0, 1}, Edge{1, 2}, Edge{0, 2}, Edge{2, 3}});
}

TEST(EdgeList, BasicProperties) {
    const EdgeList g = triangle_plus_pendant();
    EXPECT_EQ(g.num_nodes(), 4u);
    EXPECT_EQ(g.num_edges(), 4u);
    EXPECT_TRUE(g.is_simple());
    const auto deg = g.degrees();
    EXPECT_EQ(deg, (std::vector<std::uint32_t>{2, 2, 3, 1}));
    EXPECT_NEAR(g.density(), 4.0 / 6.0, 1e-12);
}

TEST(EdgeList, RejectsLoopsAndBadIds) {
    EXPECT_THROW(EdgeList::from_pairs(3, {Edge{1, 1}}), Error);
    EXPECT_THROW(EdgeList::from_pairs(3, {Edge{0, 3}}), Error);
    EXPECT_THROW(EdgeList::from_keys(3, {edge_key(2, 1) + 1}), Error); // non-canonical bits
}

TEST(EdgeList, DetectsMultiEdge) {
    EdgeList g = EdgeList::from_pairs(3, {Edge{0, 1}, Edge{1, 0}});
    EXPECT_FALSE(g.is_simple());
}

TEST(EdgeList, SameGraphIgnoresOrder) {
    const EdgeList a = EdgeList::from_pairs(3, {Edge{0, 1}, Edge{1, 2}});
    const EdgeList b = EdgeList::from_pairs(3, {Edge{2, 1}, Edge{1, 0}});
    const EdgeList c = EdgeList::from_pairs(3, {Edge{0, 1}, Edge{0, 2}});
    EXPECT_TRUE(a.same_graph(b));
    EXPECT_FALSE(a.same_graph(c));
}

// ------------------------------------------------------- degree sequence

TEST(DegreeSequence, GraphicalKnownCases) {
    EXPECT_TRUE(DegreeSequence(std::vector<std::uint32_t>{}).is_graphical());
    EXPECT_TRUE(DegreeSequence({0, 0}).is_graphical());
    EXPECT_TRUE(DegreeSequence({1, 1}).is_graphical());
    EXPECT_FALSE(DegreeSequence({1}).is_graphical());        // odd sum
    EXPECT_FALSE(DegreeSequence({3, 1}).is_graphical());     // d >= n
    EXPECT_TRUE(DegreeSequence({2, 2, 2}).is_graphical());   // triangle
    EXPECT_TRUE(DegreeSequence({3, 3, 3, 3}).is_graphical());// K4
    EXPECT_FALSE(DegreeSequence({4, 4, 4, 4}).is_graphical());
    EXPECT_TRUE(DegreeSequence({3, 2, 2, 2, 1}).is_graphical());
    // Classic Erdos–Gallai failure despite even sum and d < n:
    EXPECT_FALSE(DegreeSequence({4, 4, 4, 1, 1, 2}).is_graphical());
}

TEST(DegreeSequence, GraphicalMatchesBruteForceSmall) {
    // Exhaustive cross-check on all sequences of length 5 with entries 0..4:
    // brute force = recursive Havel–Hakimi reduction.
    auto brute_graphical = [](std::vector<std::uint32_t> d) {
        for (;;) {
            std::sort(d.begin(), d.end(), std::greater<>());
            if (d[0] == 0) return true;
            const std::uint32_t k = d[0];
            if (k >= d.size()) return false;
            d.erase(d.begin());
            for (std::uint32_t i = 0; i < k; ++i) {
                if (d[i] == 0) return false;
                --d[i];
            }
        }
    };
    std::vector<std::uint32_t> d(5);
    for (d[0] = 0; d[0] < 5; ++d[0])
        for (d[1] = 0; d[1] < 5; ++d[1])
            for (d[2] = 0; d[2] < 5; ++d[2])
                for (d[3] = 0; d[3] < 5; ++d[3])
                    for (d[4] = 0; d[4] < 5; ++d[4]) {
                        std::uint64_t sum = d[0] + d[1] + d[2] + d[3] + d[4];
                        const bool expect = (sum % 2 == 0) && brute_graphical(d);
                        EXPECT_EQ(DegreeSequence(d).is_graphical(), expect)
                            << d[0] << d[1] << d[2] << d[3] << d[4];
                    }
}

TEST(DegreeSequence, P2ClosedFormMatchesDirectSum) {
    // Direct O(n^2) evaluation of Theorem 3's definition vs closed form.
    const std::vector<std::uint32_t> deg{3, 2, 2, 2, 1, 4, 1, 1};
    const DegreeSequence seq(deg);
    const double m = static_cast<double>(seq.num_edges());
    double direct = 0;
    for (std::size_t u = 0; u < deg.size(); ++u) {
        for (std::size_t v = u + 1; v < deg.size(); ++v) {
            const double t = deg[u] * deg[v] / (m * (m - 1));
            direct += t * t;
        }
    }
    EXPECT_NEAR(seq.p2(), direct, 1e-12);
}

TEST(DegreeSequence, Theorem2Bound) {
    DegreeSequence seq({4, 4, 4, 4, 4, 4}); // 4-regular on 6 nodes, m=12
    EXPECT_NEAR(seq.theorem2_round_bound(), 4.0 * 16 / 12, 1e-12);
    EXPECT_EQ(seq.max_degree(), 4u);
    EXPECT_EQ(seq.num_edges(), 12u);
}

// -------------------------------------------------------------- adjacency

TEST(Adjacency, NeighborsAndHasEdge) {
    const Adjacency adj(triangle_plus_pendant());
    EXPECT_EQ(adj.num_nodes(), 4u);
    EXPECT_EQ(adj.num_edges(), 4u);
    EXPECT_EQ(adj.degree(2), 3u);
    const auto n2 = adj.neighbors(2);
    EXPECT_EQ((std::vector<node_t>{n2.begin(), n2.end()}), (std::vector<node_t>{0, 1, 3}));
    EXPECT_TRUE(adj.has_edge(0, 1));
    EXPECT_TRUE(adj.has_edge(1, 0));
    EXPECT_FALSE(adj.has_edge(0, 3));
    EXPECT_TRUE(adj.is_simple());
}

std::vector<std::vector<node_t>> neighborhoods(const Adjacency& adj) {
    std::vector<std::vector<node_t>> out;
    for (node_t u = 0; u < adj.num_nodes(); ++u) {
        const auto nu = adj.neighbors(u);
        out.emplace_back(nu.begin(), nu.end());
    }
    return out;
}

std::string verify_outcome(const EdgeList& g, const std::vector<std::uint32_t>& degrees) {
    try {
        verify_replicate(Adjacency(g), degrees);
        return "accepted";
    } catch (const Error& e) {
        return e.what();
    }
}

TEST(Adjacency, VerifyRejectsFaultsAndWidthsBuildTheSameCsr) {
    const EdgeList g = generate_powerlaw_graph(3000, 2.1, 11);
    const std::vector<std::uint32_t> degrees = g.degrees();
    const Adjacency serial(g);
    EXPECT_TRUE(serial.is_simple());
    EXPECT_EQ(verify_outcome(g, degrees), "accepted");
    for (const unsigned width : {2u, 4u}) {
        ThreadPool pool(width);
        const Adjacency wide(g, &pool);
        EXPECT_EQ(neighborhoods(wide), neighborhoods(serial)) << width;
        EXPECT_TRUE(wide.is_simple()) << width;
    }

    // Each fault is one slot rewritten in place, as a broken chain would.
    const Edge first = g.edge(0);
    node_t far = 0; // a node not adjacent to first.u, to move first.v to
    while (far == first.u || far == first.v || serial.has_edge(first.u, far)) ++far;
    struct Fault {
        const char* name;
        edge_key_t key;
        const char* message;
    };
    const Fault faults[] = {
        {"loop", edge_key(first.u, first.u), "replicate produced a non-simple graph"},
        {"duplicate", g.key(1), "replicate produced a non-simple graph"},
        {"moved endpoint", edge_key(first.u, far), "replicate changed the degree sequence"},
    };
    for (const Fault& fault : faults) {
        EdgeList broken = g;
        broken.set_key(0, fault.key);
        EXPECT_NE(verify_outcome(broken, degrees).find(fault.message), std::string::npos)
            << fault.name << ": " << verify_outcome(broken, degrees);
        ThreadPool pool(4);
        EXPECT_EQ(neighborhoods(Adjacency(broken, &pool)), neighborhoods(Adjacency(broken)))
            << fault.name;
    }
}

// ---------------------------------------------------------------- metrics

/// The merge-based node-iterator: for every u and neighbor v > u, the
/// common neighbors above v.  Each triangle x < y < z counts once, at
/// (x, y).  The reference the degree-ordered count is checked against.
std::uint64_t reference_triangle_count(const Adjacency& adj) {
    std::uint64_t triangles = 0;
    for (node_t u = 0; u < adj.num_nodes(); ++u) {
        const auto nu = adj.neighbors(u);
        for (const node_t v : nu) {
            if (v <= u) continue;
            const auto nv = adj.neighbors(v);
            auto itu = std::upper_bound(nu.begin(), nu.end(), v);
            auto itv = std::upper_bound(nv.begin(), nv.end(), v);
            while (itu != nu.end() && itv != nv.end()) {
                if (*itu < *itv) {
                    ++itu;
                } else if (*itv < *itu) {
                    ++itv;
                } else {
                    ++triangles;
                    ++itu;
                    ++itv;
                }
            }
        }
    }
    return triangles;
}

TEST(Metrics, TriangleCountMatchesReference) {
    std::vector<Edge> star, clique;
    for (node_t v = 1; v <= 40; ++v) star.push_back(Edge{0, v});
    for (node_t u = 0; u < 8; ++u) {
        for (node_t v = u + 1; v < 8; ++v) clique.push_back(Edge{u, v});
    }
    const struct {
        const char* name;
        EdgeList graph;
    } inputs[] = {
        {"gnp", generate_gnp(2000, gnp_probability_for_edges(2000, 20000), 4)},
        {"powerlaw hubs", generate_powerlaw_graph(5000, 2.1, 8)},
        {"star", EdgeList::from_pairs(41, star)},
        {"K8", EdgeList::from_pairs(8, clique)},
        {"empty", EdgeList{}},
        {"isolated nodes", EdgeList::from_pairs(9, {Edge{0, 1}, Edge{1, 2}, Edge{0, 2}})},
    };
    for (const auto& input : inputs) {
        const Adjacency adj(input.graph);
        const std::uint64_t expected = reference_triangle_count(adj);
        std::uint64_t wedges = 0;
        for (node_t u = 0; u < adj.num_nodes(); ++u) {
            wedges += std::uint64_t{adj.degree(u)} * (adj.degree(u) - 1) / 2;
        }
        const double clustering =
            wedges == 0 ? 0.0 : 3.0 * static_cast<double>(expected) / static_cast<double>(wedges);
        for (const unsigned width : {1u, 2u, 4u}) {
            ThreadPool pool(width);
            EXPECT_EQ(triangle_count(adj, &pool), expected) << input.name << " width " << width;
        }
        EXPECT_EQ(triangle_count(adj), expected) << input.name;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(global_clustering(adj)),
                  std::bit_cast<std::uint64_t>(clustering))
            << input.name;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(global_clustering(adj, expected)),
                  std::bit_cast<std::uint64_t>(clustering))
            << input.name;
    }
    EXPECT_GT(reference_triangle_count(Adjacency(inputs[1].graph)), 0u);
}

TEST(Metrics, TriangleAndClustering) {
    const Adjacency adj(triangle_plus_pendant());
    EXPECT_EQ(triangle_count(adj), 1u);
    // wedges: d=2:1 + d=2:1 + d=3:3 + d=1:0 = 5; global C = 3*1/5.
    EXPECT_NEAR(global_clustering(adj), 0.6, 1e-12);
    // local: node0: 1/1, node1: 1/1, node2: 1/3, node3: 0 -> mean = 7/12.
    EXPECT_NEAR(mean_local_clustering(adj), 7.0 / 12.0, 1e-12);
}

TEST(Metrics, TriangleCountCompleteGraph) {
    std::vector<Edge> pairs;
    constexpr node_t n = 8;
    for (node_t u = 0; u < n; ++u)
        for (node_t v = u + 1; v < n; ++v) pairs.push_back(Edge{u, v});
    const Adjacency adj(EdgeList::from_pairs(n, pairs));
    EXPECT_EQ(triangle_count(adj), 56u); // C(8,3)
    EXPECT_NEAR(global_clustering(adj), 1.0, 1e-12);
}

TEST(Metrics, AssortativityStarIsNegative) {
    // A star is maximally disassortative.
    std::vector<Edge> pairs;
    for (node_t v = 1; v <= 10; ++v) pairs.push_back(Edge{0, v});
    const EdgeList star = EdgeList::from_pairs(11, pairs);
    EXPECT_LT(degree_assortativity(star), -0.99);
}

TEST(Metrics, AssortativityRegularDegenerate) {
    // Constant degrees -> zero variance -> defined as 0.
    std::vector<Edge> cycle;
    for (node_t v = 0; v < 6; ++v) cycle.push_back(Edge{v, static_cast<node_t>((v + 1) % 6)});
    EXPECT_EQ(degree_assortativity(EdgeList::from_pairs(6, cycle)), 0.0);
}

TEST(Metrics, ComponentsCountsIsolatedNodes) {
    const EdgeList g = EdgeList::from_pairs(6, {Edge{0, 1}, Edge{2, 3}});
    const Adjacency adj(g);
    EXPECT_EQ(connected_components(adj), 4u); // {0,1},{2,3},{4},{5}
    EXPECT_EQ(largest_component(adj), 2u);
}

// --------------------------------------------------------------------- io

TEST(Io, RoundTrip) {
    const EdgeList g = triangle_plus_pendant();
    std::stringstream ss;
    write_edge_list(ss, g);
    const EdgeList back = read_edge_list(ss);
    EXPECT_TRUE(g.same_graph(back));
    EXPECT_EQ(back.num_nodes(), g.num_nodes());
}

TEST(Io, CleansLoopsAndMultiEdges) {
    std::stringstream ss("% comment\n0 1\n1 0\n2 2\n1 2\n");
    const EdgeList g = read_edge_list(ss);
    EXPECT_EQ(g.num_edges(), 2u); // {0,1} collapsed, loop dropped
    EXPECT_TRUE(g.is_simple());
    EXPECT_EQ(g.num_nodes(), 3u);
}

TEST(Io, HeaderDeclaresIsolatedNodes) {
    std::stringstream ss("# nodes 10 edges 1\n0 1\n");
    EXPECT_EQ(read_edge_list(ss).num_nodes(), 10u);
}

TEST(Io, MalformedLineThrows) {
    std::stringstream ss("0 not-a-number\n");
    EXPECT_THROW(read_edge_list(ss), Error);
}

TEST(Io, InputErrorsCarryTheMessageAlone) {
    // The tools print what() as is: no check expression, no source path.
    const auto what = [](auto&& read) -> std::string {
        try {
            read();
        } catch (const Error& e) {
            return e.what();
        }
        return "no error";
    };
    const std::string missing = "no-such-dir/missing.txt";
    EXPECT_EQ(what([&] { (void)read_edge_list_file(missing); }),
              "cannot open for reading: " + missing);
    EXPECT_EQ(what([&] { (void)read_any_edge_list_file(missing); }),
              "cannot open for reading: " + missing);
    EXPECT_EQ(what([&] { (void)read_degree_sequence_file(missing); }),
              "cannot open for reading: " + missing);
    std::stringstream ss("1 x\n");
    EXPECT_EQ(what([&] { (void)read_edge_list(ss); }), "malformed edge line: 1 x");
}

TEST(Io, EdgeLinesParseAsTwoStreamExtractions) {
    // Each line reads as `istringstream >> u >> v` in the "C" locale:
    // blanks (tabs, a CR) before a number, an optional sign ('-' wraps),
    // the second number may follow the first without a blank, and the rest
    // of the line is ignored.  "" marks an accepted line.
    struct Case {
        const char* line;
        const char* error;
    };
    const Case cases[] = {
        {"1 2", ""},
        {"1\t2", ""},
        {"\t 1 \t2\t", ""},
        {"1 2\r", ""},
        {"+1 +2", ""},
        {"-0 2", ""},
        {"1+2", ""},
        {"1 2 3", ""},
        {"1 2x", ""},
        {"1 2 # trailing", ""},
        {"1", "malformed edge line"},
        {"1 x", "malformed edge line"},
        {"x 1", "malformed edge line"},
        {"1 -", "malformed edge line"},
        {"1 +", "malformed edge line"},
        {"1x 2", "malformed edge line"},
        {"\r", "malformed edge line"},
        {" # indented comment", "malformed edge line"},
        {"36893488147419103232 2", "malformed edge line"},
        {"1 36893488147419103232", "malformed edge line"},
        {"1 36893488147419103232 2", "malformed edge line"},
        {"-1 2", "node id exceeds 2^28-1"},
        {"268435456 2", "node id exceeds 2^28-1"},
        {"1 268435456", "node id exceeds 2^28-1"},
    };
    for (const Case& c : cases) {
        std::stringstream ss(std::string("# nodes 3\n") + c.line + "\n");
        if (*c.error == '\0') {
            const EdgeList g = read_edge_list(ss);
            ASSERT_EQ(g.num_edges(), 1u) << c.line;
            EXPECT_EQ(g.key(0), edge_key(c.line[0] == '-' ? 0 : 1, 2)) << c.line;
            continue;
        }
        try {
            (void)read_edge_list(ss);
            ADD_FAILURE() << "accepted: " << c.line;
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find(c.error), std::string::npos)
                << c.line << ": " << e.what();
        }
    }
}

} // namespace
} // namespace gesmc
