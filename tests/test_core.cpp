// Core chain tests: tau/decide semantics (Definition 1, Figure 1), the
// exactness of ParallelSuperstep / ParES / ParGlobalES vs their sequential
// counterparts, invariants of every chain, and chi-square uniformity of the
// stationary distribution on fully enumerated state spaces (Theorem 1).
#include "core/adj_list_es.hpp"
#include "core/chain.hpp"
#include "core/edge_switch.hpp"
#include "core/parallel_superstep.hpp"
#include "core/par_es.hpp"
#include "core/par_global_es.hpp"
#include "core/seq_es.hpp"
#include "core/seq_global_es.hpp"
#include "core/sequential_apply.hpp"
#include "core/switch_stream.hpp"
#include "gen/corpus.hpp"
#include "gen/gnp.hpp"
#include "obs/trace.hpp"
#include "rng/mt19937_64.hpp"
#include "rng/shuffle.hpp"
#include "service/json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <numeric>
#include <set>

namespace gesmc {
namespace {

// ------------------------------------------------------------------- tau

TEST(EdgeSwitch, TauBothDirections) {
    // e1 = (u,v) = (0,1); e2 = (x,y) = (2,3).
    const auto [a0, b0] = switch_targets(Edge{0, 1}, Edge{2, 3}, false);
    EXPECT_EQ(a0, (Edge{0, 2})); // (u,x)
    EXPECT_EQ(b0, (Edge{1, 3})); // (v,y)
    const auto [a1, b1] = switch_targets(Edge{0, 1}, Edge{2, 3}, true);
    EXPECT_EQ(a1, (Edge{0, 3})); // (u,y)
    EXPECT_EQ(b1, (Edge{1, 2})); // (v,x)
}

TEST(EdgeSwitch, Figure1LoopRejection) {
    // Figure 1 of the paper: switching adjacent edges can propose a loop.
    // e1 = (a, x), e2 = (x, b): g = 1 gives (a, b) and (x, x) — a loop.
    const auto [t3, t4] = switch_targets(Edge{0, 2}, Edge{2, 5}, true);
    EXPECT_TRUE(t3.is_loop() || t4.is_loop());
    const auto outcome = decide_switch(edge_key(0, 2), edge_key(2, 5), t3, t4,
                                       [](edge_key_t) { return false; });
    EXPECT_EQ(outcome, SwitchOutcome::kRejectedLoop);
}

TEST(EdgeSwitch, Figure1MultiEdgeRejection) {
    // A target that already exists in E must be rejected.
    const auto [t3, t4] = switch_targets(Edge{0, 1}, Edge{2, 3}, false);
    const edge_key_t existing = edge_key(t3);
    const auto outcome = decide_switch(edge_key(0, 1), edge_key(2, 3), t3, t4,
                                       [existing](edge_key_t k) { return k == existing; });
    EXPECT_EQ(outcome, SwitchOutcome::kRejectedEdge);
}

TEST(EdgeSwitch, AcceptedWhenTargetsFresh) {
    const auto [t3, t4] = switch_targets(Edge{0, 1}, Edge{2, 3}, false);
    const auto outcome =
        decide_switch(edge_key(0, 1), edge_key(2, 3), t3, t4, [](edge_key_t) { return false; });
    EXPECT_EQ(outcome, SwitchOutcome::kAccepted);
}

TEST(EdgeSwitch, IdentityCaseAcceptedWithoutOracle) {
    // e1 = (0,1), e2 = (1,2), g = 0: targets (0,1), (1,2) == sources.
    const auto [t3, t4] = switch_targets(Edge{0, 1}, Edge{1, 2}, false);
    EXPECT_EQ(edge_key(t3), edge_key(0, 1));
    EXPECT_EQ(edge_key(t4), edge_key(1, 2));
    int oracle_calls = 0;
    const auto outcome = decide_switch(edge_key(0, 1), edge_key(1, 2), t3, t4,
                                       [&](edge_key_t) {
                                           ++oracle_calls;
                                           return true; // would reject if consulted
                                       });
    EXPECT_EQ(outcome, SwitchOutcome::kAccepted);
    EXPECT_EQ(oracle_calls, 0);
}

TEST(EdgeSwitch, TargetsNeverEqualEachOther) {
    // For distinct simple source edges, t3 != t4 as undirected edges.
    Mt19937_64 gen(1);
    for (int trial = 0; trial < 10000; ++trial) {
        const node_t a = static_cast<node_t>(uniform_below(gen, 50));
        node_t b = static_cast<node_t>(uniform_below(gen, 50));
        if (a == b) continue;
        const node_t c = static_cast<node_t>(uniform_below(gen, 50));
        node_t d = static_cast<node_t>(uniform_below(gen, 50));
        if (c == d) continue;
        const Edge e1 = Edge{a, b}.canonical();
        const Edge e2 = Edge{c, d}.canonical();
        if (edge_key(e1) == edge_key(e2)) continue;
        for (const bool g : {false, true}) {
            const auto [t3, t4] = switch_targets(e1, e2, g);
            EXPECT_NE(edge_key(t3), edge_key(t4));
        }
    }
}

// --------------------------------------------------------- switch stream

TEST(SwitchStream, DeterministicAndDistinctIndices) {
    SwitchStream s(7, 1000);
    for (std::uint64_t k = 0; k < 5000; ++k) {
        const Switch a = s.get(k);
        const Switch b = s.get(k);
        EXPECT_EQ(a.i, b.i);
        EXPECT_EQ(a.j, b.j);
        EXPECT_EQ(a.g, b.g);
        EXPECT_NE(a.i, a.j);
        EXPECT_LT(a.i, 1000u);
        EXPECT_LT(a.j, 1000u);
    }
}

TEST(SwitchStream, IndicesRoughlyUniform) {
    SwitchStream s(8, 10);
    std::vector<int> counts(10, 0);
    constexpr int draws = 50000;
    for (int k = 0; k < draws; ++k) {
        const Switch sw = s.get(k);
        ++counts[sw.i];
        ++counts[sw.j];
    }
    const double expect = 2.0 * draws / 10;
    for (int c : counts) EXPECT_NEAR(c, expect, 5 * std::sqrt(expect));
}

// ----------------------------------------------- parallel superstep exact

/// Reference: executes the batch sequentially in index order.
void run_batch_sequential(std::vector<edge_key_t>& keys, const std::vector<Switch>& batch,
                          ChainStats& stats) {
    RobinSet set(keys.size());
    set.reserve(keys.size());
    for (const edge_key_t k : keys) set.insert(k);
    for (const Switch& sw : batch) apply_switch_sequential(keys, set, sw, stats);
}

/// Builds a random source-dependency-free batch: a prefix of a random
/// pairing of the edge indices (exactly a global switch's structure).
std::vector<Switch> random_batch(std::uint64_t m, std::uint64_t len, std::uint64_t seed) {
    std::vector<std::uint32_t> perm;
    sample_permutation(perm, m, seed);
    std::vector<Switch> batch;
    Mt19937_64 gen(seed);
    for (std::uint64_t k = 0; 2 * k + 1 < m && batch.size() < len; ++k) {
        batch.push_back(Switch{perm[2 * k], perm[2 * k + 1],
                               static_cast<std::uint8_t>(uniform_bit(gen) ? 1 : 0)});
    }
    return batch;
}

TEST(ParallelSuperstep, MatchesSequentialExecutionProperty) {
    // The paper's exactness claim for Algorithm 1, swept over graph shapes,
    // batch sizes, seeds, and thread counts.
    const auto corpus = corpus_test();
    int checked = 0;
    for (unsigned threads : {1u, 2u, 4u}) {
        ThreadPool pool(threads);
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            for (const auto& entry : corpus) {
                const std::uint64_t m = entry.graph.num_edges();
                const auto batch = random_batch(m, m / 2, seed * 31 + threads);

                // Parallel execution.
                std::vector<edge_key_t> par_keys = entry.graph.keys();
                ConcurrentEdgeSet set(m);
                for (const edge_key_t k : par_keys) set.insert_unique(k);
                SuperstepRunner runner(batch.size());
                const auto result = runner.run(pool, par_keys, set, batch);

                // Sequential reference.
                std::vector<edge_key_t> seq_keys = entry.graph.keys();
                ChainStats seq_stats;
                run_batch_sequential(seq_keys, batch, seq_stats);

                ASSERT_EQ(par_keys, seq_keys)
                    << entry.name << " seed=" << seed << " threads=" << threads;
                EXPECT_EQ(result.accepted, seq_stats.accepted);
                EXPECT_EQ(result.rejected_loop, seq_stats.rejected_loop);
                EXPECT_EQ(result.rejected_edge, seq_stats.rejected_edge);

                // The concurrent set must mirror the final edge list.
                EXPECT_EQ(set.size(), m);
                for (const edge_key_t k : par_keys) ASSERT_TRUE(set.contains(k));
                ++checked;
            }
        }
    }
    EXPECT_GT(checked, 0);
}

TEST(ParallelSuperstep, EmptyBatchIsNoop) {
    ThreadPool pool(2);
    EdgeList g = generate_gnp(100, 0.05, 3);
    std::vector<edge_key_t> keys = g.keys();
    const auto before = keys;
    ConcurrentEdgeSet set(keys.size());
    for (const edge_key_t k : keys) set.insert_unique(k);
    SuperstepRunner runner(16);
    const auto result = runner.run(pool, keys, set, {});
    EXPECT_EQ(result.rounds, 0u);
    EXPECT_EQ(keys, before);
}

TEST(ParallelSuperstep, RunnerReusableAcrossManySupersteps) {
    // Reuse (dependency-table reset paths) must not leak state between
    // supersteps: compare against a fresh runner each time.
    ThreadPool pool(4);
    const EdgeList g = generate_gnp(500, 0.02, 9);
    const std::uint64_t m = g.num_edges();

    std::vector<edge_key_t> reused_keys = g.keys();
    ConcurrentEdgeSet reused_set(m);
    for (const edge_key_t k : reused_keys) reused_set.insert_unique(k);
    SuperstepRunner reused(m / 2);

    std::vector<edge_key_t> fresh_keys = g.keys();
    for (int step = 0; step < 10; ++step) {
        const auto batch = random_batch(m, m / 2, 1000 + step);
        reused.run(pool, reused_keys, reused_set, batch);

        ConcurrentEdgeSet fresh_set(m);
        for (const edge_key_t k : fresh_keys) fresh_set.insert_unique(k);
        SuperstepRunner fresh(m / 2);
        fresh.run(pool, fresh_keys, fresh_set, batch);

        ASSERT_EQ(reused_keys, fresh_keys) << "step " << step;
    }
}

// ------------------------------------------------------ chain invariants

void expect_chain_invariants(ChainAlgorithm algo, const EdgeList& initial, unsigned threads,
                             std::uint64_t supersteps) {
    ChainConfig config;
    config.seed = 42;
    config.threads = threads;
    const auto chain = make_chain(algo, initial, config);
    const auto deg_before = initial.degrees();
    chain->run_supersteps(supersteps);
    const EdgeList& after = chain->graph();
    EXPECT_TRUE(after.is_simple()) << chain->name();
    EXPECT_EQ(after.degrees(), deg_before) << chain->name();
    EXPECT_EQ(after.num_edges(), initial.num_edges());
    const auto& st = chain->stats();
    EXPECT_EQ(st.supersteps, supersteps);
    EXPECT_EQ(st.attempted, st.accepted + st.rejected_loop + st.rejected_edge)
        << chain->name();
    // has_edge must agree with the materialized graph.
    for (std::uint64_t i = 0; i < after.num_edges(); i += 7) {
        EXPECT_TRUE(chain->has_edge(after.key(i)));
    }
}

TEST(ChainInvariants, AllAlgorithmsPreserveDegreesAndSimplicity) {
    const EdgeList pl = generate_powerlaw_graph(800, 2.2, 5);
    const EdgeList gnp = generate_gnp(600, 0.02, 6);
    for (const auto algo :
         {ChainAlgorithm::kSeqES, ChainAlgorithm::kSeqGlobalES, ChainAlgorithm::kParES,
          ChainAlgorithm::kParGlobalES, ChainAlgorithm::kNaiveParES,
          ChainAlgorithm::kAdjListES}) {
        expect_chain_invariants(algo, pl, 2, 3);
        expect_chain_invariants(algo, gnp, 4, 3);
    }
}

TEST(ChainInvariants, AttemptedCountMatchesSuperstepAccounting) {
    // ES-type chains: attempted == supersteps * (m/2).
    const EdgeList g = generate_gnp(400, 0.03, 7);
    const std::uint64_t m = g.num_edges();
    for (const auto algo : {ChainAlgorithm::kSeqES, ChainAlgorithm::kParES,
                            ChainAlgorithm::kNaiveParES, ChainAlgorithm::kAdjListES}) {
        ChainConfig config;
        config.threads = 2;
        const auto chain = make_chain(algo, g, config);
        chain->run_supersteps(4);
        EXPECT_EQ(chain->stats().attempted, 4 * (m / 2)) << chain->name();
    }
    // G-ES-type: attempted == sum of l ~ Binom(m/2, 1-P_L), close to m/2.
    ChainConfig config;
    const auto chain = make_chain(ChainAlgorithm::kSeqGlobalES, g, config);
    chain->run_supersteps(4);
    EXPECT_NEAR(static_cast<double>(chain->stats().attempted), 4.0 * (m / 2),
                0.05 * 4 * (m / 2));
}

// --------------------------------------------------------- exactness: par == seq

/// Runs `fn` under a trace session and counts the edge-set refills it
/// made (one "edgeset.refill" span each).
std::size_t count_refills(const std::function<void()>& fn) {
    obs::TraceSession::start();
    fn();
    const JsonValue doc = parse_json(obs::TraceSession::stop_to_string());
    std::size_t count = 0;
    for (const JsonValue& event : doc.find("traceEvents")->array_items) {
        if (event.string_member("name") == "edgeset.refill") ++count;
    }
    return count;
}

// The exactness runs are long enough that every run refills its edge set
// at least twice after the constructor's fill: the refill's bucket layout
// depends on thread timing, and must never show in the trajectory.

TEST(Exactness, ParESEqualsSeqESAcrossThreadCounts) {
    constexpr std::uint64_t kSupersteps = 12;
    const auto corpus = corpus_test();
    for (std::uint64_t seed : {1ULL, 99ULL}) {
        for (const auto& entry : corpus) {
            ChainConfig seq_config;
            seq_config.seed = seed;
            SeqES seq(entry.graph, seq_config);
            seq.run_supersteps(kSupersteps);
            for (unsigned threads : {1u, 2u, 4u}) {
                ChainConfig par_config;
                par_config.seed = seed;
                par_config.threads = threads;
                ParES par(entry.graph, par_config);
                const std::size_t refills =
                    count_refills([&] { par.run_supersteps(kSupersteps); });
                EXPECT_GE(refills, 2u) << entry.name << " seed=" << seed;
                ASSERT_TRUE(par.graph().same_graph(seq.graph()))
                    << entry.name << " seed=" << seed << " threads=" << threads;
                EXPECT_EQ(par.stats().accepted, seq.stats().accepted);
                EXPECT_EQ(par.stats().rejected_loop, seq.stats().rejected_loop);
                EXPECT_EQ(par.stats().rejected_edge, seq.stats().rejected_edge);
                for (const edge_key_t k : par.graph().keys()) ASSERT_TRUE(par.has_edge(k));
            }
        }
    }
}

TEST(Exactness, ParGlobalESEqualsSeqGlobalESAcrossThreadCounts) {
    constexpr std::uint64_t kSupersteps = 12;
    const auto corpus = corpus_test();
    for (std::uint64_t seed : {2ULL, 77ULL}) {
        for (const auto& entry : corpus) {
            ChainConfig seq_config;
            seq_config.seed = seed;
            SeqGlobalES seq(entry.graph, seq_config);
            seq.run_supersteps(kSupersteps);
            for (unsigned threads : {1u, 2u, 4u}) {
                ChainConfig par_config;
                par_config.seed = seed;
                par_config.threads = threads;
                ParGlobalES par(entry.graph, par_config);
                const std::size_t refills =
                    count_refills([&] { par.run_supersteps(kSupersteps); });
                EXPECT_GE(refills, 2u) << entry.name << " seed=" << seed;
                ASSERT_TRUE(par.graph().same_graph(seq.graph()))
                    << entry.name << " seed=" << seed << " threads=" << threads;
                EXPECT_EQ(par.stats().accepted, seq.stats().accepted);
                EXPECT_EQ(par.stats().attempted, seq.stats().attempted);
                for (const edge_key_t k : par.graph().keys()) ASSERT_TRUE(par.has_edge(k));
            }
        }
    }
}

TEST(Exactness, SeqESPipelinedEqualsPlain) {
    // The prefetch pipeline (§5.4) must not change results.
    const auto corpus = corpus_test();
    for (const auto& entry : corpus) {
        ChainConfig plain;
        plain.seed = 11;
        plain.prefetch = false;
        SeqES a(entry.graph, plain);
        a.run_supersteps(3);
        ChainConfig piped;
        piped.seed = 11;
        piped.prefetch = true;
        SeqES b(entry.graph, piped);
        b.run_supersteps(3);
        ASSERT_TRUE(a.graph().same_graph(b.graph())) << entry.name;
        EXPECT_EQ(a.stats().accepted, b.stats().accepted) << entry.name;
        EXPECT_EQ(a.stats().rejected_loop, b.stats().rejected_loop) << entry.name;
        EXPECT_EQ(a.stats().rejected_edge, b.stats().rejected_edge) << entry.name;
    }
}

TEST(Exactness, AdjListESEqualsSeqES) {
    // Same stream, same decision semantics, different data structures.
    const EdgeList g = generate_powerlaw_graph(500, 2.3, 21);
    ChainConfig config;
    config.seed = 5;
    SeqES seq(g, config);
    AdjListES adj(g, config);
    seq.run_supersteps(3);
    adj.run_supersteps(3);
    EXPECT_TRUE(seq.graph().same_graph(adj.graph()));
    EXPECT_EQ(seq.stats().accepted, adj.stats().accepted);
}

TEST(Exactness, DifferentSeedsDiverge) {
    const EdgeList g = generate_gnp(300, 0.05, 1);
    ChainConfig a, b;
    a.seed = 1;
    b.seed = 2;
    SeqES ca(g, a), cb(g, b);
    ca.run_supersteps(2);
    cb.run_supersteps(2);
    EXPECT_FALSE(ca.graph().same_graph(cb.graph()));
}

// --------------------------------------------------- uniformity (Thm. 1)

/// All simple graphs realizing `deg` via brute-force edge subsets (tiny n).
std::vector<std::vector<edge_key_t>> enumerate_realizations(
    const std::vector<std::uint32_t>& deg) {
    const node_t n = static_cast<node_t>(deg.size());
    std::vector<Edge> all;
    for (node_t u = 0; u < n; ++u)
        for (node_t v = u + 1; v < n; ++v) all.push_back(Edge{u, v});
    const std::uint64_t m =
        std::accumulate(deg.begin(), deg.end(), std::uint64_t{0}) / 2;
    std::vector<std::vector<edge_key_t>> states;
    std::vector<int> choose(all.size(), 0);
    std::fill(choose.end() - static_cast<std::ptrdiff_t>(m), choose.end(), 1);
    do {
        std::vector<std::uint32_t> d(n, 0);
        std::vector<edge_key_t> keys;
        for (std::size_t i = 0; i < all.size(); ++i) {
            if (choose[i]) {
                ++d[all[i].u];
                ++d[all[i].v];
                keys.push_back(edge_key(all[i]));
            }
        }
        if (d == deg) {
            std::sort(keys.begin(), keys.end());
            states.push_back(std::move(keys));
        }
    } while (std::next_permutation(choose.begin(), choose.end()));
    return states;
}

void check_uniform_stationary(ChainAlgorithm algo, const std::vector<std::uint32_t>& deg,
                              std::uint64_t supersteps, int runs) {
    const auto states = enumerate_realizations(deg);
    ASSERT_GE(states.size(), 2u);
    // Fixed start: the first enumerated realization.
    const EdgeList start = EdgeList::from_keys(static_cast<node_t>(deg.size()),
                                               std::vector<edge_key_t>(states[0]));
    std::map<std::vector<edge_key_t>, int> counts;
    for (int run = 0; run < runs; ++run) {
        ChainConfig config;
        config.seed = 10000 + static_cast<std::uint64_t>(run);
        config.pl = 0.1; // large P_L exercises the binomial path on tiny m
        const auto chain = make_chain(algo, start, config);
        chain->run_supersteps(supersteps);
        ++counts[chain->graph().sorted_keys()];
    }
    // Chi-square against the uniform distribution over all realizations.
    const double expect = static_cast<double>(runs) / static_cast<double>(states.size());
    double chi2 = 0;
    for (const auto& state : states) {
        const auto it = counts.find(state);
        const double c = it == counts.end() ? 0.0 : it->second;
        chi2 += (c - expect) * (c - expect) / expect;
    }
    // dof = states-1; bound at ~99.9% quantile for the sizes used here.
    const double dof = static_cast<double>(states.size() - 1);
    const double bound = dof + 4.0 * std::sqrt(2.0 * dof) + 12.0;
    EXPECT_LT(chi2, bound) << to_string(algo) << " states=" << states.size();
    // Every state must be reachable (irreducibility).
    EXPECT_EQ(counts.size(), states.size()) << to_string(algo);
}

TEST(Uniformity, SeqESOnTwoEdgeMatchings) {
    // d = (1,1,1,1): 3 perfect matchings on 4 nodes.
    check_uniform_stationary(ChainAlgorithm::kSeqES, {1, 1, 1, 1}, 20, 3000);
}

TEST(Uniformity, SeqGlobalESOnTwoEdgeMatchings) {
    check_uniform_stationary(ChainAlgorithm::kSeqGlobalES, {1, 1, 1, 1}, 20, 3000);
}

TEST(Uniformity, SeqESOnCycles) {
    // d = (2,2,2,2): the 3 labeled 4-cycles.
    check_uniform_stationary(ChainAlgorithm::kSeqES, {2, 2, 2, 2}, 20, 3000);
}

TEST(Uniformity, SeqGlobalESOnCycles) {
    check_uniform_stationary(ChainAlgorithm::kSeqGlobalES, {2, 2, 2, 2}, 20, 3000);
}

TEST(Uniformity, SeqGlobalESOnPathFamily) {
    // d = (1,1,2,2): paths and path+edge configurations; larger state space.
    check_uniform_stationary(ChainAlgorithm::kSeqGlobalES, {1, 1, 2, 2}, 25, 4000);
}

// -------------------------------------------------------------- ParES details

TEST(ParES, MeanSuperstepLengthIsOrderSqrtM) {
    const EdgeList g = generate_gnp(3000, gnp_probability_for_edges(3000, 40000), 13);
    const double m = static_cast<double>(g.num_edges());
    ChainConfig config;
    config.threads = 2;
    ParES par(g, config);
    par.run_supersteps(4);
    const double mean_len = par.mean_superstep_length();
    // Expected dependency-free prefix is Theta(sqrt(m)) (paper §3).
    EXPECT_GT(mean_len, 0.1 * std::sqrt(m));
    EXPECT_LT(mean_len, 10.0 * std::sqrt(m));
}

TEST(ParGlobalES, RoundsStaySmallOnRegularGraph) {
    // Corollary 2: for regular graphs expected rounds <= 4.
    const EdgeList g = generate_regular(5000, 8);
    ChainConfig config;
    config.threads = 4;
    ParGlobalES par(g, config);
    par.run_supersteps(10);
    const double mean_rounds =
        static_cast<double>(par.stats().rounds_total) / static_cast<double>(par.stats().supersteps);
    EXPECT_LE(mean_rounds, 8.0);
    EXPECT_GE(mean_rounds, 1.0);
    EXPECT_LE(par.stats().rounds_max, 16u);
}

TEST(ParGlobalES, InvalidPLRejected) {
    const EdgeList g = generate_gnp(100, 0.1, 1);
    ChainConfig config;
    config.pl = 0.0;
    EXPECT_THROW(ParGlobalES(g, config).run_supersteps(1), Error);
}

// -------------------------------------------------------- acceptance rates

TEST(AcceptanceRates, SparseGraphMostlyAccepts) {
    // On a sparse G(n,p) graph nearly all switches are legal.
    const EdgeList g = generate_gnp(5000, gnp_probability_for_edges(5000, 20000), 17);
    ChainConfig config;
    SeqES chain(g, config);
    chain.run_supersteps(2);
    const auto& st = chain.stats();
    EXPECT_GT(static_cast<double>(st.accepted) / static_cast<double>(st.attempted), 0.9);
}

TEST(AcceptanceRates, DenseGraphRejectsOften) {
    // On a near-complete graph most targets already exist.
    const EdgeList g = generate_gnp(60, 0.9, 18);
    ChainConfig config;
    SeqES chain(g, config);
    chain.run_supersteps(4);
    const auto& st = chain.stats();
    EXPECT_GT(static_cast<double>(st.rejected_edge) / static_cast<double>(st.attempted), 0.5);
}

} // namespace
} // namespace gesmc
