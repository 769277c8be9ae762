// Tests for resumable chains: ChainState snapshot/restore round-trips for
// every chain algorithm, the GESB chain-state section IO, ChainConfig
// validation at make_chain time, and pipeline-level checkpoint/resume
// (interrupted runs resumed with byte-identical outputs) plus RunObserver
// streaming.
#include "core/chain.hpp"
#include "gen/corpus.hpp"
#include "graph/io.hpp"
#include "pipeline/config.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/report.hpp"
#include "pipeline/seeds.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

namespace gesmc {
namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

fs::path scratch_dir(const std::string& name) {
    const fs::path dir = fs::path(testing::TempDir()) / ("gesmc_ckpt_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/// The integer counters of ChainStats (the timing doubles are wall-clock
/// noise and not part of the determinism contract).  Neither are the round
/// counts of a chain on more than one thread: whether a switch sees a
/// dependency decided earlier in the same round depends on how the
/// threads interleave, so callers pass `rounds = false` for such runs and
/// compare round counts on a single-thread run instead.
void expect_same_counters(const ChainStats& a, const ChainStats& b,
                          const std::string& label, bool rounds = true) {
    EXPECT_EQ(a.supersteps, b.supersteps) << label;
    EXPECT_EQ(a.attempted, b.attempted) << label;
    EXPECT_EQ(a.accepted, b.accepted) << label;
    EXPECT_EQ(a.rejected_loop, b.rejected_loop) << label;
    EXPECT_EQ(a.rejected_edge, b.rejected_edge) << label;
    if (!rounds) return;
    EXPECT_EQ(a.rounds_total, b.rounds_total) << label;
    EXPECT_EQ(a.rounds_max, b.rounds_max) << label;
}

// -------------------------------------------------------- chain-state IO

ChainState sample_state() {
    ChainState state;
    state.algorithm = ChainAlgorithm::kParGlobalES;
    state.seed = 0xDEADBEEFCAFEBABEull;
    state.counter = 12345;
    const EdgeList g = generate_powerlaw_graph(200, 2.2, 5);
    state.num_nodes = g.num_nodes();
    state.keys = g.keys();
    state.stats.supersteps = 7;
    state.stats.attempted = 1000;
    state.stats.accepted = 800;
    state.stats.rejected_loop = 120;
    state.stats.rejected_edge = 80;
    state.stats.rounds_total = 21;
    state.stats.rounds_max = 4;
    state.stats.first_round_seconds = 0.125;
    state.stats.later_rounds_seconds = 0.0625;
    return state;
}

TEST(ChainStateIo, RoundTripsThroughAStream) {
    const ChainState state = sample_state();
    std::stringstream ss;
    write_chain_state(ss, state);
    const ChainState back = read_chain_state(ss);
    EXPECT_EQ(back.algorithm, state.algorithm);
    EXPECT_EQ(back.seed, state.seed);
    EXPECT_EQ(back.counter, state.counter);
    EXPECT_EQ(back.num_nodes, state.num_nodes);
    EXPECT_EQ(back.keys, state.keys); // slot order preserved exactly
    expect_same_counters(back.stats, state.stats, "stream round-trip");
    EXPECT_EQ(back.stats.first_round_seconds, state.stats.first_round_seconds);
    EXPECT_EQ(back.stats.later_rounds_seconds, state.stats.later_rounds_seconds);
}

TEST(ChainStateIo, RoundTripsThroughAFile) {
    const fs::path dir = scratch_dir("state_file");
    const std::string path = (dir / "chain.gesc").string();
    const ChainState state = sample_state();
    write_chain_state_file(path, state);
    const ChainState back = read_chain_state_file(path);
    EXPECT_EQ(back.keys, state.keys);
    EXPECT_EQ(back.counter, state.counter);
}

TEST(ChainStateIo, SniffingSeparatesSectionsOfTheGesbFamily) {
    const fs::path dir = scratch_dir("state_sniff");
    const EdgeList g = generate_grid(5, 5);
    const std::string graph_path = (dir / "g.gesb").string();
    const std::string state_path = (dir / "s.gesc").string();
    write_edge_list_binary_file(graph_path, g);
    write_chain_state_file(state_path, sample_state());

    EXPECT_FALSE(is_chain_state_file(graph_path));
    EXPECT_TRUE(is_chain_state_file(state_path));

    // The cross readers reject each other's sections with a clear error.
    EXPECT_THROW(read_chain_state_file(graph_path), Error);
    EXPECT_THROW(read_edge_list_binary_file(state_path), Error);
    try {
        read_edge_list_binary_file(state_path);
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("chain-state"), std::string::npos);
    }
}

TEST(ChainStateIo, RejectsTruncationAndBadVersions) {
    std::stringstream ss;
    write_chain_state(ss, sample_state());
    const std::string full = ss.str();

    std::stringstream truncated(full.substr(0, full.size() / 2));
    EXPECT_THROW(read_chain_state(truncated), Error);

    std::string bad_version = full;
    bad_version[5] = 99; // section version byte
    std::stringstream bv(bad_version);
    EXPECT_THROW(read_chain_state(bv), Error);

    std::stringstream not_state("definitely not a chain state");
    EXPECT_THROW(read_chain_state(not_state), Error);
}

TEST(ChainStateIo, RefusesNaiveParESWithTheValidNames) {
    // NaiveParES, the inexact §5.1 baseline, lives in the benches and has no
    // checkpoints: a .gesc naming it is refused with the message alone.
    std::stringstream ss;
    write_chain_state(ss, sample_state());
    const std::string full = ss.str();
    const std::string name = "par-global-es";
    ASSERT_EQ(full.substr(6, 1 + name.size()), char(name.size()) + name);
    std::stringstream naive(full.substr(0, 6) + char(12) + "naive-par-es" +
                            full.substr(7 + name.size()));
    try {
        (void)read_chain_state(naive);
        FAIL() << "naive-par-es was accepted";
    } catch (const Error& e) {
        EXPECT_EQ(std::string(e.what()).rfind("unknown chain algorithm: \"naive-par-es\" "
                                              "(expected seq-es | seq-global-es | par-es | "
                                              "par-global-es | adj-list-es)",
                                              0),
                  0u)
            << e.what();
    }
}

TEST(ChainStateIo, RejectsDuplicateEdgeKeys) {
    ChainState state = sample_state();
    state.keys[3] = state.keys[7]; // corrupt: two slots, one edge
    std::stringstream ss;
    write_chain_state(ss, state);
    EXPECT_THROW(read_chain_state(ss), Error);
    try {
        std::stringstream again;
        write_chain_state(again, state);
        read_chain_state(again);
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("duplicate edge key"), std::string::npos);
    }
}

// ------------------------------------------------ ChainConfig validation

TEST(ChainConfigValidation, MakeChainRejectsBadPlAndZeroThreads) {
    const EdgeList g = generate_grid(4, 4);
    for (const double bad : {0.0, 1.0, -0.5, 2.0}) {
        ChainConfig config;
        config.pl = bad;
        EXPECT_THROW(make_chain(ChainAlgorithm::kSeqES, g, config), Error) << bad;
    }
    ChainConfig zero_threads;
    zero_threads.threads = 0;
    EXPECT_THROW(make_chain(ChainAlgorithm::kParGlobalES, g, zero_threads), Error);

    // The restore factory validates the *effective* config: threads come
    // from the caller, but seed and pl come from the snapshot — so a bad
    // config pl is irrelevant (the state's wins) while a corrupt state pl
    // must be rejected at restore time, not mid-run.
    ChainConfig ok;
    auto chain = make_chain(ChainAlgorithm::kSeqES, g, ok);
    chain->run_supersteps(1);
    const ChainState state = chain->snapshot();
    EXPECT_THROW(make_chain(state, zero_threads), Error);
    ChainConfig bad_pl;
    bad_pl.pl = 1.0;
    EXPECT_NO_THROW(make_chain(state, bad_pl)); // state.pl (valid) wins
    ChainState corrupt = state;
    corrupt.pl = 0.0;
    EXPECT_THROW(make_chain(corrupt, ok), Error);
}

// --------------------------------------------------- the superstep loop

/// A chain that only counts: each superstep bumps stats().supersteps and
/// every run_supersteps call records its chunk size, so the loop's
/// chunking, boundaries and stop polls are visible without graph work.
class CountingChain final : public Chain {
public:
    explicit CountingChain(std::uint64_t restored_at) { stats_.supersteps = restored_at; }

    using Chain::run_supersteps;
    void run_supersteps(std::uint64_t count, RunObserver* observer,
                        std::uint64_t replicate) override {
        calls.push_back(count);
        for (std::uint64_t s = 0; s < count; ++s) {
            ++stats_.supersteps;
            if (observer != nullptr) observer->on_superstep(replicate, *this);
        }
    }
    [[nodiscard]] ChainState snapshot() const override {
        ChainState state;
        state.stats = stats_;
        return state;
    }
    [[nodiscard]] const EdgeList& graph() const override { return graph_; }
    [[nodiscard]] bool has_edge(edge_key_t) const override { return false; }
    [[nodiscard]] const ChainStats& stats() const override { return stats_; }
    [[nodiscard]] std::string name() const override { return "Counting"; }

    std::vector<std::uint64_t> calls; ///< chunk size of every run_supersteps call

private:
    ChainStats stats_;
    EdgeList graph_;
};

using Steps = std::vector<std::uint64_t>;

TEST(SuperstepLoop, FixedBudgetMakesOneCallPerCheckpointInterval) {
    // No stop rule, so no check grid: the chunks are the checkpoint
    // intervals, and without checkpoints the whole budget is one call.
    CountingChain chain(0);
    Steps boundaries;
    run_checkpointed(chain, 10, 4, nullptr, 0,
                     [&] { boundaries.push_back(chain.stats().supersteps); });
    EXPECT_EQ(chain.calls, (Steps{4, 4, 2}));
    EXPECT_EQ(boundaries, (Steps{4, 8, 10}));

    CountingChain whole(0);
    boundaries.clear();
    run_checkpointed(whole, 10, 0, nullptr, 0,
                     [&] { boundaries.push_back(whole.stats().supersteps); });
    EXPECT_EQ(whole.calls, (Steps{10}));
    EXPECT_EQ(boundaries, (Steps{10}));
}

TEST(SuperstepLoop, BoundariesLandOnAbsoluteMultiplesAfterARestore) {
    // Restored at 7 with a cadence of 5: the first chunk runs to 10, not 12.
    CountingChain fixed(7);
    Steps boundaries;
    run_adaptive_checkpointed(fixed, 20, 8, 2, 5, nullptr, 0, nullptr,
                              [&] { boundaries.push_back(fixed.stats().supersteps); });
    EXPECT_EQ(fixed.calls, (Steps{3, 5, 5}));
    EXPECT_EQ(boundaries, (Steps{10, 15, 20}));

    // With a stop rule that never fires, the check grid (every 4th step)
    // splits the chunks but moves no boundary.
    CountingChain adaptive(7);
    boundaries.clear();
    run_adaptive_checkpointed(
        adaptive, 20, 4, 4, 5, nullptr, 0, [] { return false; },
        [&] { boundaries.push_back(adaptive.stats().supersteps); });
    EXPECT_EQ(adaptive.calls, (Steps{1, 2, 2, 3, 1, 4}));
    EXPECT_EQ(boundaries, (Steps{10, 15, 20}));
}

TEST(SuperstepLoop, CompletionBoundaryFiresExactlyOnce) {
    // A target on a checkpoint multiple, a stop on one, and a chain already
    // at its target: each ends with exactly one boundary at the last step.
    CountingChain on_multiple(0);
    Steps boundaries;
    run_checkpointed(on_multiple, 12, 4, nullptr, 0,
                     [&] { boundaries.push_back(on_multiple.stats().supersteps); });
    EXPECT_EQ(boundaries, (Steps{4, 8, 12}));

    CountingChain stopped(0);
    boundaries.clear();
    run_adaptive_checkpointed(
        stopped, 40, 1, 4, 4, nullptr, 0, [&] { return stopped.stats().supersteps >= 8; },
        [&] { boundaries.push_back(stopped.stats().supersteps); });
    EXPECT_EQ(boundaries, (Steps{4, 8}));

    CountingChain done(12);
    boundaries.clear();
    run_checkpointed(done, 12, 4, nullptr, 0,
                     [&] { boundaries.push_back(done.stats().supersteps); });
    EXPECT_TRUE(done.calls.empty());
    EXPECT_EQ(boundaries, (Steps{12}));
    EXPECT_THROW(run_checkpointed(done, 11, 4, nullptr, 0, [] {}), Error);
}

TEST(SuperstepLoop, AdaptiveStopFiresOnlyOnCheckSteps) {
    // The rule would stop at any step >= 5, but the loop polls it only on
    // check steps (s >= 4, s % 3 == 0): not at the checkpoint boundary 5,
    // so the stop lands on check step 6.
    CountingChain chain(0);
    Steps polls;
    Steps boundaries;
    run_adaptive_checkpointed(
        chain, 30, 4, 3, 5, nullptr, 0,
        [&] {
            polls.push_back(chain.stats().supersteps);
            return chain.stats().supersteps >= 5;
        },
        [&] { boundaries.push_back(chain.stats().supersteps); });
    EXPECT_EQ(polls, (Steps{6}));
    EXPECT_EQ(chain.calls, (Steps{5, 1}));
    EXPECT_EQ(boundaries, (Steps{5, 6}));
    EXPECT_EQ(chain.stats().supersteps, 6u);
}

// --------------------------------------------- per-chain snapshot/restore

/// For every chain kind: run K supersteps, snapshot, serialize the state
/// through the GESB section, restore, run K more — the graph (in slot
/// order!) and the stats counters must be byte-identical to one
/// uninterrupted 2K-superstep run.  P_L is not the default, so the test
/// also pins what the snapshot records for it: the config's P_L for the
/// G-ES-type chains, ChainState's placeholder for the ES-type ones (the
/// .gesc bytes depend on it).
TEST(CheckpointRoundTrip, SplitRunEqualsUninterruptedRunForEveryAlgorithm) {
    const EdgeList initial = generate_powerlaw_graph(500, 2.2, 11);
    constexpr std::uint64_t kHalf = 3;
    constexpr double kPl = 0.05;
    ASSERT_NE(kPl, ChainState{}.pl);

    for (const auto& [name, algo] : chain_algorithm_names()) {
        // Every chain is reproducible for any thread count; round counts
        // only on one thread.
        for (const unsigned threads : {1u, 2u}) {
            ChainConfig config;
            config.seed = 77;
            config.threads = threads;
            config.pl = kPl;
            const std::string label = name + " threads=" + std::to_string(threads);

            auto uninterrupted = make_chain(algo, initial, config);
            uninterrupted->run_supersteps(2 * kHalf);

            auto first = make_chain(algo, initial, config);
            first->run_supersteps(kHalf);
            std::stringstream ss;
            write_chain_state(ss, first->snapshot());
            first.reset(); // the snapshot alone must carry the run

            const ChainState state = read_chain_state(ss);
            EXPECT_EQ(state.algorithm, algo) << label;
            EXPECT_EQ(state.stats.supersteps, kHalf) << label;
            const bool global = algo == ChainAlgorithm::kSeqGlobalES ||
                                algo == ChainAlgorithm::kParGlobalES;
            EXPECT_EQ(state.pl, global ? kPl : ChainState{}.pl) << label;
            auto resumed = make_chain(state, config);
            EXPECT_EQ(resumed->name(), to_string(algo)) << label;
            EXPECT_EQ(resumed->name(), uninterrupted->name()) << label;
            resumed->run_supersteps(kHalf);

            // Slot order equality — stronger than same_graph: the edge
            // array is the sampling structure, so resumed trajectories only
            // stay identical if the order survived the round-trip.
            EXPECT_EQ(resumed->graph().keys(), uninterrupted->graph().keys()) << label;
            expect_same_counters(resumed->stats(), uninterrupted->stats(), label,
                                 threads == 1);
        }
    }
}

TEST(CheckpointRoundTrip, PlIsPartOfTheStateAndSurvivesARestoreWithOtherConfig) {
    // pl drives the G-ES binomial switch-count draw, so a restore must
    // replay the snapshot's pl even when the restore config disagrees.
    const EdgeList initial = generate_powerlaw_graph(400, 2.2, 13);
    ChainConfig with_pl;
    with_pl.seed = 21;
    with_pl.pl = 0.25;

    auto uninterrupted = make_chain(ChainAlgorithm::kParGlobalES, initial, with_pl);
    uninterrupted->run_supersteps(6);

    auto first = make_chain(ChainAlgorithm::kParGlobalES, initial, with_pl);
    first->run_supersteps(3);
    std::stringstream ss;
    write_chain_state(ss, first->snapshot());
    const ChainState state = read_chain_state(ss);
    EXPECT_EQ(state.pl, 0.25);

    ChainConfig default_pl; // 1e-3 — must NOT win over the snapshot's 0.25
    default_pl.seed = 999;  // neither must this seed
    auto resumed = make_chain(state, default_pl);
    resumed->run_supersteps(3);
    EXPECT_EQ(resumed->graph().keys(), uninterrupted->graph().keys());
}

TEST(CheckpointRoundTrip, SnapshotDoesNotPerturbTheChain) {
    const EdgeList initial = generate_powerlaw_graph(300, 2.2, 3);
    ChainConfig config;
    config.seed = 9;
    auto plain = make_chain(ChainAlgorithm::kSeqES, initial, config);
    plain->run_supersteps(4);

    auto snapped = make_chain(ChainAlgorithm::kSeqES, initial, config);
    for (int i = 0; i < 4; ++i) {
        snapped->run_supersteps(1);
        (void)snapped->snapshot(); // observing must not advance any stream
    }
    EXPECT_EQ(snapped->graph().keys(), plain->graph().keys());
}

// ------------------------------------------------- pipeline-level resume

PipelineConfig resume_test_config(const fs::path& out_dir, const std::string& algo) {
    PipelineConfig c;
    c.input_kind = InputKind::kGenerator;
    c.generator = "powerlaw";
    c.gen_n = 400;
    c.gen_gamma = 2.2;
    c.algorithm = algo;
    c.supersteps = 6;
    c.replicates = 4;
    c.seed = 4242;
    c.metrics = false;
    c.output_dir = out_dir.string();
    c.checkpoint_every = 2;
    // These tests resume from *successful* runs, so the finished markers
    // must survive the run (the default deletes them; see CheckpointCleanup).
    c.keep_checkpoints = true;
    return c;
}

TEST(PipelineResume, InterruptedRunResumesToByteIdenticalOutputs) {
    for (const std::string algo : {"par-global-es", "seq-es"}) {
        const fs::path dir_ref = scratch_dir("resume_ref_" + algo);
        const fs::path dir_res = scratch_dir("resume_res_" + algo);

        // Reference: one uninterrupted run.
        const RunReport ref = run_pipeline(resume_test_config(dir_ref, algo));
        ASSERT_TRUE(all_succeeded(ref)) << algo;

        // "Interrupted" run: stop every replicate at superstep 4 of 6 (its
        // final checkpoint then looks exactly like a mid-run checkpoint of
        // the full run — same (seed, counter) pair).
        PipelineConfig partial = resume_test_config(dir_res, algo);
        partial.supersteps = 4;
        ASSERT_TRUE(all_succeeded(run_pipeline(partial))) << algo;

        // Resume to the full target.
        PipelineConfig resume = resume_test_config(dir_res, algo);
        resume.resume_from = dir_res.string();
        const RunReport resumed = run_pipeline(resume);
        ASSERT_TRUE(all_succeeded(resumed)) << algo;

        for (std::uint64_t r = 0; r < ref.replicates.size(); ++r) {
            EXPECT_EQ(resumed.replicates[r].resumed_supersteps, 4u) << algo;
            EXPECT_EQ(slurp(ref.replicates[r].output_path),
                      slurp(resumed.replicates[r].output_path))
                << algo << " replicate " << r;
            expect_same_counters(ref.replicates[r].stats, resumed.replicates[r].stats,
                                 algo + " replicate " + std::to_string(r));
        }
    }
}

TEST(PipelineResume, SkipsFinishedRestoresInFlightStartsMissing) {
    const std::string algo = "par-global-es";
    const fs::path dir_ref = scratch_dir("subset_ref");
    const fs::path dir_partial = scratch_dir("subset_partial");
    const fs::path dir_mixed = scratch_dir("subset_mixed");

    const RunReport ref = run_pipeline(resume_test_config(dir_ref, algo));
    ASSERT_TRUE(all_succeeded(ref));
    PipelineConfig partial = resume_test_config(dir_partial, algo);
    partial.supersteps = 2;
    ASSERT_TRUE(all_succeeded(run_pipeline(partial)));

    // A run directory killed after an arbitrary replicate subset:
    //   replicate 0 — finished (final checkpoint from the reference run;
    //                 its output graph is deleted to prove re-emission),
    //   replicate 1 — in-flight (checkpoint at superstep 2),
    //   replicates 2, 3 — never started (no checkpoint).
    fs::create_directories(dir_mixed / "checkpoints");
    fs::copy_file(dir_ref / "checkpoints" / "replicate_0.gesc",
                  dir_mixed / "checkpoints" / "replicate_0.gesc");
    fs::copy_file(dir_partial / "checkpoints" / "replicate_1.gesc",
                  dir_mixed / "checkpoints" / "replicate_1.gesc");

    PipelineConfig resume = resume_test_config(dir_mixed, algo);
    resume.resume_from = dir_mixed.string();
    const RunReport resumed = run_pipeline(resume);
    ASSERT_TRUE(all_succeeded(resumed));
    EXPECT_EQ(resumed.replicates[0].resumed_supersteps, 6u); // skipped, re-emitted
    EXPECT_EQ(resumed.replicates[1].resumed_supersteps, 2u); // restored mid-run
    EXPECT_EQ(resumed.replicates[2].resumed_supersteps, 0u); // fresh
    for (std::uint64_t r = 0; r < ref.replicates.size(); ++r) {
        EXPECT_EQ(slurp(ref.replicates[r].output_path),
                  slurp(resumed.replicates[r].output_path))
            << "replicate " << r;
    }
}

TEST(PipelineResume, ResumeIntoAFreshDirectoryCarriesTheFinishedMarkers) {
    const fs::path dir_a = scratch_dir("carry_a");
    const fs::path dir_b = scratch_dir("carry_b");

    PipelineConfig first = resume_test_config(dir_a, "par-global-es");
    const RunReport ref = run_pipeline(first);
    ASSERT_TRUE(all_succeeded(ref));

    // Resume the (fully finished) run into a different directory.
    PipelineConfig into_b = resume_test_config(dir_b, "par-global-es");
    into_b.resume_from = dir_a.string();
    const RunReport moved = run_pipeline(into_b);
    ASSERT_TRUE(all_succeeded(moved));

    for (std::uint64_t r = 0; r < ref.replicates.size(); ++r) {
        EXPECT_EQ(moved.replicates[r].resumed_supersteps, first.supersteps);
        EXPECT_EQ(slurp(ref.replicates[r].output_path),
                  slurp(moved.replicates[r].output_path));
        // The finished marker must exist in the *new* run dir, so a later
        // resume from it skips the replicate instead of re-running.
        EXPECT_TRUE(fs::exists(dir_b / "checkpoints" /
                               ("replicate_" + std::to_string(r) + ".gesc")));
    }
}

TEST(PipelineResume, RejectsCheckpointsFromADifferentRun) {
    const fs::path dir = scratch_dir("mismatch");
    ASSERT_TRUE(all_succeeded(run_pipeline(resume_test_config(dir, "par-global-es"))));

    // Different master seed -> the checkpoint's seed no longer matches the
    // derived replicate seed; the replicate must fail, not silently sample
    // from the wrong stream.
    PipelineConfig resume = resume_test_config(dir, "par-global-es");
    resume.resume_from = dir.string();
    resume.seed = 999;
    const RunReport report = run_pipeline(resume);
    EXPECT_FALSE(all_succeeded(report));

    // Different algorithm -> same protection.
    PipelineConfig wrong_algo = resume_test_config(dir, "seq-es");
    wrong_algo.resume_from = dir.string();
    const RunReport report2 = run_pipeline(wrong_algo);
    EXPECT_FALSE(all_succeeded(report2));
}

// --------------------------------------------------- checkpoint cleanup

TEST(CheckpointCleanup, SuccessfulRunDeletesItsCheckpointsByDefault) {
    const fs::path dir = scratch_dir("cleanup_default");
    PipelineConfig c = resume_test_config(dir, "par-global-es");
    c.keep_checkpoints = false; // the default a fresh PipelineConfig carries
    ASSERT_TRUE(all_succeeded(run_pipeline(c)));
    // Outputs stay, the checkpoint files and their directory are gone.
    for (std::uint64_t r = 0; r < c.replicates; ++r) {
        EXPECT_TRUE(fs::exists(dir / ("replicate_" + std::to_string(r) + ".txt")));
    }
    EXPECT_FALSE(fs::exists(dir / "checkpoints"));
}

TEST(CheckpointCleanup, KeepCheckpointsRetainsThem) {
    const fs::path dir = scratch_dir("cleanup_keep");
    PipelineConfig c = resume_test_config(dir, "par-global-es");
    ASSERT_TRUE(c.keep_checkpoints);
    ASSERT_TRUE(all_succeeded(run_pipeline(c)));
    for (std::uint64_t r = 0; r < c.replicates; ++r) {
        EXPECT_TRUE(fs::exists(dir / "checkpoints" /
                               ("replicate_" + std::to_string(r) + ".gesc")));
    }
}

TEST(CheckpointCleanup, ResumeToleratesACompletedRunWhoseCheckpointsWereCleaned) {
    // A drained job can win its race and finish; its checkpoints are then
    // cleaned.  The documented recovery — resubmit with resume-from — must
    // still work: replicates recompute to byte-identical outputs instead
    // of failing on the missing checkpoints.
    const fs::path dir = scratch_dir("cleanup_resume");
    PipelineConfig c = resume_test_config(dir, "par-global-es");
    c.keep_checkpoints = false;
    const RunReport first = run_pipeline(c);
    ASSERT_TRUE(all_succeeded(first));
    ASSERT_FALSE(fs::exists(dir / "checkpoints"));

    const fs::path dir2 = scratch_dir("cleanup_resume_again");
    PipelineConfig resume = resume_test_config(dir2, "par-global-es");
    resume.keep_checkpoints = false;
    resume.resume_from = dir.string();
    const RunReport again = run_pipeline(resume);
    ASSERT_TRUE(all_succeeded(again));
    for (std::uint64_t r = 0; r < first.replicates.size(); ++r) {
        EXPECT_EQ(slurp(first.replicates[r].output_path),
                  slurp(again.replicates[r].output_path));
    }

    // A genuinely wrong directory still fails fast.
    PipelineConfig wrong = resume_test_config(dir, "par-global-es");
    wrong.resume_from = (dir / "nonexistent").string();
    EXPECT_THROW(run_pipeline(wrong), Error);
}

// ------------------------------------------------------- interrupt / drain

TEST(PipelineInterrupt, InterruptKeepsCheckpointsAndResumesByteIdentically) {
    // The drain path end-to-end in-process: an observer flips the interrupt
    // flag at the first checkpoint, every replicate stops at a boundary
    // with its state persisted, and a resume finishes the run to outputs
    // byte-identical to an uninterrupted reference.
    const fs::path dir_ref = scratch_dir("interrupt_ref");
    const fs::path dir_int = scratch_dir("interrupt_int");

    const RunReport ref = run_pipeline(resume_test_config(dir_ref, "par-global-es"));
    ASSERT_TRUE(all_succeeded(ref));

    class InterruptAtFirstCheckpoint final : public RunObserver {
    public:
        explicit InterruptAtFirstCheckpoint(std::atomic<bool>& flag) : flag_(&flag) {}
        void on_checkpoint(std::uint64_t, const ChainState&,
                           const std::string&) override {
            flag_->store(true, std::memory_order_relaxed);
        }

    private:
        std::atomic<bool>* flag_;
    };

    std::atomic<bool> interrupt{false};
    InterruptAtFirstCheckpoint observer(interrupt);
    PipelineExec exec;
    exec.interrupt = &interrupt;
    PipelineConfig c = resume_test_config(dir_int, "par-global-es");
    c.keep_checkpoints = false; // interrupted runs must keep them regardless
    const RunReport stopped = run_pipeline(c, nullptr, &observer, exec);
    EXPECT_FALSE(all_succeeded(stopped));
    EXPECT_TRUE(was_interrupted(stopped));
    EXPECT_TRUE(fs::exists(dir_int / "checkpoints"));

    PipelineConfig resume = resume_test_config(dir_int, "par-global-es");
    resume.resume_from = dir_int.string();
    const RunReport resumed = run_pipeline(resume);
    ASSERT_TRUE(all_succeeded(resumed));
    EXPECT_FALSE(was_interrupted(resumed));
    for (std::uint64_t r = 0; r < ref.replicates.size(); ++r) {
        EXPECT_EQ(slurp(ref.replicates[r].output_path),
                  slurp(resumed.replicates[r].output_path))
            << "replicate " << r;
    }
}

TEST(PipelineInterrupt, PreSetFlagStopsEveryReplicateBeforeItStarts) {
    const fs::path dir = scratch_dir("interrupt_preset");
    std::atomic<bool> interrupt{true};
    PipelineExec exec;
    exec.interrupt = &interrupt;
    const RunReport report =
        run_pipeline(resume_test_config(dir, "seq-es"), nullptr, nullptr, exec);
    EXPECT_TRUE(was_interrupted(report));
    for (const ReplicateReport& r : report.replicates) {
        EXPECT_FALSE(r.error.empty());
        // Interrupt marker, not a genuine failure: the service keys job
        // status (interrupted-with-resume-hint vs failed) on this split.
        EXPECT_TRUE(is_interrupt_error(r.error)) << r.error;
        EXPECT_EQ(r.stats.supersteps, 0u);
    }
    EXPECT_FALSE(is_interrupt_error(""));
    EXPECT_FALSE(is_interrupt_error("read failed: no such file"));
}

TEST(PipelineResume, ValidateRequiresOutputDirForCheckpoints) {
    PipelineConfig c;
    c.input_kind = InputKind::kGenerator;
    c.generator = "powerlaw";
    c.checkpoint_every = 5; // but no output-dir
    EXPECT_THROW(validate(c), Error);
}

// ----------------------------------------------------- observer streaming

TEST(RunObserverStreaming, EventsFireLiveAndOutputsAreOnDiskAtDone) {
    class Recorder final : public RunObserver {
    public:
        void on_superstep(std::uint64_t, const Chain& chain) override {
            supersteps.fetch_add(1);
            EXPECT_GT(chain.stats().supersteps, 0u);
        }
        void on_checkpoint(std::uint64_t, const ChainState& state,
                           const std::string& path) override {
            checkpoints.fetch_add(1);
            EXPECT_TRUE(fs::exists(path));
            EXPECT_FALSE(fs::exists(path + ".tmp")); // rename was atomic
            EXPECT_GT(state.stats.supersteps, 0u);
        }
        void on_replicate_done(const ReplicateReport& r) override {
            const std::lock_guard<std::mutex> lock(mutex);
            // Streaming contract: the replicate's graph is on disk before
            // the full RunReport exists.
            EXPECT_TRUE(r.error.empty()) << r.error;
            EXPECT_TRUE(fs::exists(r.output_path)) << r.output_path;
            done_order.push_back(r.index);
        }

        std::atomic<std::uint64_t> supersteps{0};
        std::atomic<std::uint64_t> checkpoints{0};
        std::mutex mutex;
        std::vector<std::uint64_t> done_order;
    };

    const fs::path dir = scratch_dir("observer");
    PipelineConfig c = resume_test_config(dir, "par-global-es");
    Recorder recorder;
    const RunReport report = run_pipeline(c, nullptr, &recorder);
    ASSERT_TRUE(all_succeeded(report));

    EXPECT_EQ(recorder.supersteps.load(), c.replicates * c.supersteps);
    // checkpoint-every = 2, supersteps = 6 -> 3 checkpoints per replicate
    // (the last one doubles as the finished marker).
    EXPECT_EQ(recorder.checkpoints.load(), c.replicates * 3);
    EXPECT_EQ(recorder.done_order.size(), c.replicates);
    for (std::uint64_t r = 0; r < c.replicates; ++r) {
        EXPECT_TRUE(is_chain_state_file(
            (dir / "checkpoints" / ("replicate_" + std::to_string(r) + ".gesc"))
                .string()));
    }
}

// ------------------------------------------------------ seed consistency

TEST(PipelineResume, CheckpointSeedsMatchTheDerivation) {
    const fs::path dir = scratch_dir("seed_check");
    PipelineConfig c = resume_test_config(dir, "seq-global-es");
    ASSERT_TRUE(all_succeeded(run_pipeline(c)));
    for (std::uint64_t r = 0; r < c.replicates; ++r) {
        const ChainState state = read_chain_state_file(
            (dir / "checkpoints" / ("replicate_" + std::to_string(r) + ".gesc"))
                .string());
        EXPECT_EQ(state.seed, replicate_seed(c.seed, r));
        EXPECT_EQ(state.stats.supersteps, c.supersteps);
    }
}

} // namespace
} // namespace gesmc
