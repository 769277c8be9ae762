// Tests for the adaptive superstep budget (docs/adaptive.md): the streaming
// ESS estimator against closed-form AR(1) series, the confirmation-window
// stopping rule, bit-exact estimator serialization, and the pipeline-level
// determinism contracts — adaptive-with-unreachable-target equals the fixed
// budget byte for byte, adaptive runs reproduce across schedule policies,
// and kill/resume lands on the identical trajectory.
#include "analysis/autocorrelation.hpp"
#include "analysis/ess.hpp"
#include "core/chain.hpp"
#include "gen/gnp.hpp"
#include "pipeline/config.hpp"
#include "pipeline/corpus.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/report.hpp"
#include "util/check.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

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
    const fs::path dir = fs::path(testing::TempDir()) / ("gesmc_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

// ------------------------------------------------- scalar autocorrelation

TEST(ScalarAutocorrelation, Ar1SeriesMatchesClosedForm) {
    // x_{t+1} = phi x_t + e_t has lag-1 autocorrelation phi, integrated
    // autocorrelation time (1+phi)/(1-phi) and ESS = n (1-phi)/(1+phi).
    const double phi = 0.6;
    const std::uint64_t n = 20000;
    std::mt19937_64 rng(12345);
    std::normal_distribution<double> noise(0.0, 1.0);
    ScalarAutocorrelation acf;
    double x = 0.0;
    for (std::uint64_t t = 0; t < n; ++t) {
        x = phi * x + noise(rng);
        acf.add(x);
    }
    EXPECT_EQ(acf.count(), n);
    EXPECT_NEAR(acf.rho(), phi, 0.05);
    const double expected_tau = (1 + phi) / (1 - phi);
    EXPECT_NEAR(acf.tau(), expected_tau, 0.25 * expected_tau);
    const double expected_ess = static_cast<double>(n) / expected_tau;
    EXPECT_NEAR(acf.ess(), expected_ess, 0.25 * expected_ess);
}

TEST(ScalarAutocorrelation, IndependentSeriesReportsNearFullEss) {
    std::mt19937_64 rng(7);
    std::normal_distribution<double> noise(0.0, 1.0);
    ScalarAutocorrelation acf;
    for (int t = 0; t < 10000; ++t) acf.add(noise(rng));
    EXPECT_NEAR(acf.rho(), 0.0, 0.05);
    EXPECT_GT(acf.ess(), 8000.0);
}

TEST(ScalarAutocorrelation, ConstantSeriesReportsOneEffectiveSample) {
    ScalarAutocorrelation acf;
    for (int t = 0; t < 100; ++t) acf.add(42.0);
    EXPECT_EQ(acf.rho(), 0.0);
    EXPECT_EQ(acf.ess(), 1.0);
}

TEST(ScalarAutocorrelation, TooFewSamplesReportZero) {
    ScalarAutocorrelation acf;
    acf.add(1.0);
    acf.add(2.0);
    EXPECT_EQ(acf.rho(), 0.0);
    EXPECT_EQ(acf.ess(), 0.0);
}

TEST(ScalarAutocorrelation, SaveRestoreRoundTripsBitExactly) {
    std::mt19937_64 rng(99);
    std::normal_distribution<double> noise(0.0, 1.0);
    ScalarAutocorrelation acf;
    for (int t = 0; t < 500; ++t) acf.add(noise(rng));

    std::stringstream ss;
    acf.save(ss);
    ScalarAutocorrelation back = ScalarAutocorrelation::restore(ss);

    // Continue both with the identical suffix: every statistic must stay
    // bit-equal, or a resumed run could stop at a different superstep.
    for (int t = 0; t < 500; ++t) {
        const double x = noise(rng);
        acf.add(x);
        back.add(x);
    }
    EXPECT_EQ(acf.count(), back.count());
    EXPECT_EQ(acf.rho(), back.rho());
    EXPECT_EQ(acf.tau(), back.tau());
    EXPECT_EQ(acf.ess(), back.ess());
}

// ------------------------------------------------------------ EssEstimator

EdgeList test_graph(node_t n, std::uint64_t m, std::uint64_t seed) {
    return generate_gnp(n, gnp_probability_for_edges(n, m), seed);
}

AdaptiveStopConfig quick_stop_config() {
    AdaptiveStopConfig c;
    c.ess_target = 8.0;
    c.mixing_tau = 0.5;
    c.min_supersteps = 4;
    c.max_supersteps = 400;
    c.check_every = 2;
    c.confirm_window = 1;
    return c;
}

/// Drives a fresh SeqES chain with an estimator until the verdict fires or
/// `budget` supersteps elapse; returns the estimator.
EssEstimator drive(const EdgeList& initial, const AdaptiveStopConfig& config,
                   std::uint64_t budget, std::uint64_t seed) {
    ChainConfig cc;
    cc.seed = seed;
    auto chain = make_chain(ChainAlgorithm::kSeqES, initial, cc);
    EssEstimator est(*chain, config, adaptive_max_thinning(config.max_supersteps));
    for (std::uint64_t s = 0; s < budget && !est.stopped(); ++s) {
        chain->run_supersteps(1);
        est.observe(*chain);
    }
    return est;
}

TEST(EssEstimator, StopsOnAFastMixingGraphAndRespectsTheCheckGrid) {
    const EdgeList g = test_graph(300, 1200, 5);
    const AdaptiveStopConfig config = quick_stop_config();
    const EssEstimator est = drive(g, config, config.max_supersteps, 17);
    ASSERT_TRUE(est.stopped());
    const std::uint64_t stop = *est.stop_superstep();
    EXPECT_GE(stop, config.min_supersteps);
    EXPECT_EQ(stop % config.check_every, 0u);
    EXPECT_GE(est.ess(), config.ess_target);
    EXPECT_LE(est.non_independent_fraction(), config.mixing_tau);
}

TEST(EssEstimator, ConfirmationWindowDelaysTheVerdict) {
    // Same stream, larger window: the verdict must fire at least
    // (window - 1) checks later — the hysteresis that keeps one lucky check
    // from stopping a chain.
    const EdgeList g = test_graph(300, 1200, 5);
    AdaptiveStopConfig one = quick_stop_config();
    AdaptiveStopConfig three = quick_stop_config();
    three.confirm_window = 3;
    const EssEstimator est1 = drive(g, one, one.max_supersteps, 17);
    const EssEstimator est3 = drive(g, three, three.max_supersteps, 17);
    ASSERT_TRUE(est1.stopped());
    ASSERT_TRUE(est3.stopped());
    EXPECT_GE(*est3.stop_superstep(),
              *est1.stop_superstep() + 2 * three.check_every);
}

TEST(EssEstimator, UnreachableTargetNeverStops) {
    const EdgeList g = test_graph(200, 800, 5);
    AdaptiveStopConfig config = quick_stop_config();
    config.ess_target = 1e12; // unreachable
    const EssEstimator est = drive(g, config, 40, 17);
    EXPECT_FALSE(est.stopped());
    EXPECT_EQ(est.supersteps(), 40u);
}

TEST(EssEstimator, SaveRestoreContinuesTheIdenticalTrajectory) {
    const EdgeList g = test_graph(300, 1200, 5);
    AdaptiveStopConfig config = quick_stop_config();
    config.confirm_window = 3;
    ChainConfig cc;
    cc.seed = 23;
    auto chain = make_chain(ChainAlgorithm::kSeqES, g, cc);
    EssEstimator est(*chain, config, adaptive_max_thinning(config.max_supersteps));
    for (int s = 0; s < 5; ++s) {
        chain->run_supersteps(1);
        est.observe(*chain);
    }

    std::stringstream ss;
    est.save(ss);
    EssEstimator back = EssEstimator::restore(ss, config);
    EXPECT_EQ(back.supersteps(), est.supersteps());

    // A second chain restored from the snapshot replays the same graphs, so
    // both estimators see the same stream — every statistic and the final
    // verdict must agree exactly.
    auto chain2 = make_chain(chain->snapshot(), cc);
    for (int s = 0; s < 40; ++s) {
        chain->run_supersteps(1);
        est.observe(*chain);
        chain2->run_supersteps(1);
        back.observe(*chain2);
    }
    EXPECT_EQ(est.ess(), back.ess());
    EXPECT_EQ(est.act_tau(), back.act_tau());
    EXPECT_EQ(est.non_independent_fraction(), back.non_independent_fraction());
    EXPECT_EQ(est.stopped(), back.stopped());
    EXPECT_EQ(est.stop_superstep(), back.stop_superstep());
}

TEST(EssEstimator, RestoreRejectsAMismatchedConfig) {
    const EdgeList g = test_graph(100, 400, 5);
    const AdaptiveStopConfig config = quick_stop_config();
    ChainConfig cc;
    cc.seed = 1;
    auto chain = make_chain(ChainAlgorithm::kSeqES, g, cc);
    EssEstimator est(*chain, config, 8);
    std::stringstream ss;
    est.save(ss);

    AdaptiveStopConfig other = config;
    other.ess_target = 99.0;
    EXPECT_THROW(EssEstimator::restore(ss, other), Error);
}

TEST(EssEstimator, AdaptiveMaxThinningTracksTheBudget) {
    EXPECT_EQ(adaptive_max_thinning(1), 1u);
    EXPECT_EQ(adaptive_max_thinning(4), 1u);
    EXPECT_EQ(adaptive_max_thinning(40), 10u);
    EXPECT_EQ(adaptive_max_thinning(100000), 64u); // capped
}

TEST(ThinningAutocorrelation, SaveRestoreRoundTrips) {
    const EdgeList g = test_graph(200, 800, 5);
    ChainConfig cc;
    cc.seed = 3;
    auto chain = make_chain(ChainAlgorithm::kSeqES, g, cc);
    ThinningAutocorrelation acf(*chain, {1, 2, 4},
                                ThinningAutocorrelation::Track::kInitialEdges);
    for (int s = 0; s < 12; ++s) {
        chain->run_supersteps(1);
        acf.observe(*chain);
    }
    EXPECT_GT(acf.memory_bytes(), 0u);

    std::stringstream ss;
    acf.save(ss);
    ThinningAutocorrelation back = ThinningAutocorrelation::restore(ss);
    EXPECT_EQ(back.supersteps(), acf.supersteps());
    EXPECT_EQ(back.tracked(), acf.tracked());
    for (std::size_t ki = 0; ki < 3; ++ki) {
        EXPECT_EQ(back.non_independent_fraction(ki), acf.non_independent_fraction(ki))
            << "ladder rung " << ki;
    }
}

// --------------------------------------------------------- pipeline level

PipelineConfig adaptive_test_config(const fs::path& out_dir) {
    PipelineConfig c;
    c.input_kind = InputKind::kGenerator;
    c.generator = "gnp";
    c.gen_n = 500;
    c.gen_m = 2000;
    c.algorithm = "par-global-es";
    c.adaptive = true;
    c.ess_target = 8.0;
    c.mixing_tau = 0.5;
    c.min_supersteps = 4;
    c.max_supersteps = 60;
    c.check_every = 2;
    c.replicates = 3;
    c.seed = 616;
    c.output_dir = out_dir.string();
    return c;
}

TEST(AdaptivePipeline, StopsEarlyAndReportsTheVerdict) {
    const fs::path dir = scratch_dir("adaptive_stop");
    const RunReport report = run_pipeline(adaptive_test_config(dir));
    ASSERT_TRUE(all_succeeded(report));
    for (const ReplicateReport& r : report.replicates) {
        EXPECT_TRUE(r.has_adaptive);
        EXPECT_EQ(r.stop_reason, "ess-target");
        EXPECT_EQ(r.realized_supersteps, r.stats.supersteps);
        EXPECT_LT(r.realized_supersteps, 60u);
        EXPECT_GE(r.realized_supersteps, 4u);
        EXPECT_GE(r.ess, 8.0);
        EXPECT_TRUE(fs::exists(r.output_path));
    }
}

TEST(AdaptivePipeline, UnreachableTargetFallsBackToTheCapAndMatchesFixedBytes) {
    const fs::path dir_fixed = scratch_dir("adaptive_fixed");
    const fs::path dir_adaptive = scratch_dir("adaptive_capped");

    PipelineConfig fixed = adaptive_test_config(dir_fixed);
    fixed.adaptive = false;
    fixed.supersteps = 20;
    const RunReport ref = run_pipeline(fixed);
    ASSERT_TRUE(all_succeeded(ref));

    PipelineConfig capped = adaptive_test_config(dir_adaptive);
    capped.ess_target = 1e12; // unreachable: every replicate runs to the cap
    capped.max_supersteps = 20;
    const RunReport report = run_pipeline(capped);
    ASSERT_TRUE(all_succeeded(report));

    for (std::uint64_t r = 0; r < ref.replicates.size(); ++r) {
        EXPECT_EQ(report.replicates[r].stop_reason, "max-supersteps");
        EXPECT_EQ(report.replicates[r].realized_supersteps, 20u);
        EXPECT_EQ(slurp(ref.replicates[r].output_path),
                  slurp(report.replicates[r].output_path))
            << "replicate " << r;
    }
    // Fixed-budget replicate JSON must not grow adaptive fields.
    for (const ReplicateReport& r : ref.replicates) EXPECT_FALSE(r.has_adaptive);
}

TEST(AdaptivePipeline, ByteReproducibleAcrossRepeatsAndPolicies) {
    const fs::path dir_a = scratch_dir("adaptive_rep_a");
    const fs::path dir_b = scratch_dir("adaptive_rep_b");
    PipelineConfig a = adaptive_test_config(dir_a);
    a.threads = 1;
    PipelineConfig b = adaptive_test_config(dir_b);
    b.threads = 3;
    b.policy = SchedulePolicy::kIntraChain;
    const RunReport ra = run_pipeline(a);
    const RunReport rb = run_pipeline(b);
    ASSERT_TRUE(all_succeeded(ra));
    ASSERT_TRUE(all_succeeded(rb));
    for (std::uint64_t r = 0; r < ra.replicates.size(); ++r) {
        EXPECT_EQ(ra.replicates[r].realized_supersteps,
                  rb.replicates[r].realized_supersteps);
        EXPECT_EQ(slurp(ra.replicates[r].output_path),
                  slurp(rb.replicates[r].output_path))
            << "replicate " << r;
    }
}

TEST(AdaptiveResume, InterruptedAdaptiveRunResumesByteIdentically) {
    const fs::path dir_ref = scratch_dir("adaptive_int_ref");
    const fs::path dir_int = scratch_dir("adaptive_int");

    PipelineConfig ref_config = adaptive_test_config(dir_ref);
    ref_config.checkpoint_every = 4;
    ref_config.keep_checkpoints = true;
    const RunReport ref = run_pipeline(ref_config);
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
    PipelineConfig c = adaptive_test_config(dir_int);
    c.checkpoint_every = 4;
    const RunReport stopped = run_pipeline(c, nullptr, &observer, exec);
    EXPECT_TRUE(was_interrupted(stopped));
    // Interrupted replicates leave both the chain state and the estimator
    // sidecar behind.
    bool any_sidecar = false;
    for (const auto& entry : fs::directory_iterator(dir_int / "checkpoints")) {
        if (entry.path().extension() == ".gesa") any_sidecar = true;
    }
    EXPECT_TRUE(any_sidecar);

    PipelineConfig resume = adaptive_test_config(dir_int);
    resume.checkpoint_every = 4;
    resume.resume_from = dir_int.string();
    const RunReport resumed = run_pipeline(resume);
    ASSERT_TRUE(all_succeeded(resumed));
    for (std::uint64_t r = 0; r < ref.replicates.size(); ++r) {
        EXPECT_EQ(resumed.replicates[r].realized_supersteps,
                  ref.replicates[r].realized_supersteps);
        EXPECT_EQ(resumed.replicates[r].stop_reason, ref.replicates[r].stop_reason);
        EXPECT_EQ(slurp(ref.replicates[r].output_path),
                  slurp(resumed.replicates[r].output_path))
            << "replicate " << r;
    }
}

TEST(AdaptiveResume, MissingSidecarRerunsTheReplicateFreshByteIdentically) {
    const fs::path dir = scratch_dir("adaptive_no_sidecar");
    PipelineConfig c = adaptive_test_config(dir);
    c.checkpoint_every = 4;
    c.keep_checkpoints = true;
    const RunReport ref = run_pipeline(c);
    ASSERT_TRUE(all_succeeded(ref));

    // Drop every estimator sidecar: the chain states alone cannot continue
    // an adaptive verdict, so a resume must rerun from superstep 0 — and
    // still land on the identical outputs.
    for (const auto& entry : fs::directory_iterator(dir / "checkpoints")) {
        if (entry.path().extension() == ".gesa") fs::remove(entry.path());
    }
    const fs::path dir2 = scratch_dir("adaptive_no_sidecar_resume");
    PipelineConfig resume = adaptive_test_config(dir2);
    resume.checkpoint_every = 4;
    resume.resume_from = dir.string();
    const RunReport again = run_pipeline(resume);
    ASSERT_TRUE(all_succeeded(again));
    for (std::uint64_t r = 0; r < ref.replicates.size(); ++r) {
        EXPECT_EQ(again.replicates[r].resumed_supersteps, 0u);
        EXPECT_EQ(slurp(ref.replicates[r].output_path),
                  slurp(again.replicates[r].output_path))
            << "replicate " << r;
    }
}

TEST(AdaptiveConfig, ParsesAndValidates) {
    PipelineConfig c;
    apply_config_entry(c, "supersteps", "adaptive");
    EXPECT_TRUE(c.adaptive);
    apply_config_entry(c, "ess-target", "16");
    apply_config_entry(c, "mixing-tau", "0.1");
    apply_config_entry(c, "min-supersteps", "2");
    apply_config_entry(c, "max-supersteps", "50");
    apply_config_entry(c, "check-every", "5");
    EXPECT_EQ(c.ess_target, 16.0);
    EXPECT_EQ(c.mixing_tau, 0.1);
    EXPECT_EQ(c.min_supersteps, 2u);
    EXPECT_EQ(c.max_supersteps, 50u);
    EXPECT_EQ(c.check_every, 5u);

    // A numeric value turns adaptive back off.
    apply_config_entry(c, "supersteps", "25");
    EXPECT_FALSE(c.adaptive);
    EXPECT_EQ(c.supersteps, 25u);

    // Validation: max below min, zero cadence, bad tau.
    PipelineConfig bad = adaptive_test_config("unused");
    bad.output_dir.clear();
    bad.max_supersteps = bad.min_supersteps - 1;
    EXPECT_THROW(validate(bad), Error);
    bad = adaptive_test_config("unused");
    bad.output_dir.clear();
    bad.check_every = 0;
    EXPECT_THROW(validate(bad), Error);
    bad = adaptive_test_config("unused");
    bad.output_dir.clear();
    bad.mixing_tau = 1.5;
    EXPECT_THROW(validate(bad), Error);
}

// ---------------------------------------------------- corpus early-stop

TEST(AdaptiveCorpus, TwoPhaseEarlyStopKeepsRowInvariants) {
    const fs::path dir = scratch_dir("adaptive_corpus");
    PipelineConfig base;
    base.corpus_spec = "gnp n=300 m=1200 count=2";
    base.algorithm = "par-global-es";
    base.adaptive = true;
    base.ess_target = 8.0;
    base.mixing_tau = 0.5;
    base.min_supersteps = 4;
    base.max_supersteps = 60;
    base.check_every = 2;
    base.replicates = 6;
    base.metrics = true;
    base.seed = 99;
    base.threads = 2;
    base.output_dir = dir.string();
    base.report_path = (dir / "corpus.json").string();

    const CorpusPlan plan = plan_corpus(base);
    const CorpusReport report = run_corpus(plan);
    ASSERT_TRUE(all_succeeded(report));
    for (const CorpusGraphRow& row : report.rows) {
        EXPECT_TRUE(row.has_adaptive) << row.name;
        EXPECT_EQ(row.configured_supersteps, 60u) << row.name;
        EXPECT_GT(row.mean_realized_supersteps, 0.0) << row.name;
        EXPECT_LT(row.mean_realized_supersteps, 60.0) << row.name;
        if (row.stopped_early) {
            // First wave only: max(3, ceil(6/2)) = 3 replicates ran.
            EXPECT_EQ(row.replicates, 3u) << row.name;
        } else {
            EXPECT_EQ(row.replicates, 6u) << row.name;
        }
        // The per-graph report.json the coordinator assembled must exist
        // either way (partial-range runs skip it; the coordinator owns it).
        EXPECT_TRUE(fs::exists(dir / row.name / "report.json")) << row.name;
    }

    // Summary and NDJSON carry the realized-vs-configured columns.
    const std::string summary = slurp((dir / "corpus.json").string());
    EXPECT_NE(summary.find("\"configured_supersteps\""), std::string::npos);
    EXPECT_NE(summary.find("\"mean_realized_supersteps\""), std::string::npos);
    EXPECT_NE(summary.find("\"stopped_early\""), std::string::npos);
    const std::string rows = slurp((dir / "corpus_rows.ndjson").string());
    EXPECT_NE(rows.find("\"stopped_early\""), std::string::npos);
}

} // namespace
} // namespace gesmc
