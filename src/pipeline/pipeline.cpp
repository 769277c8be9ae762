#include "pipeline/pipeline.hpp"

#include "analysis/ess.hpp"
#include "analysis/gauges.hpp"
#include "core/chain.hpp"
#include "gen/configuration_model.hpp"
#include "gen/corpus.hpp"
#include "gen/gnp.hpp"
#include "gen/havel_hakimi.hpp"
#include "graph/adjacency.hpp"
#include "graph/degree_sequence.hpp"
#include "graph/io.hpp"
#include "graph/metrics.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/pool_lease.hpp"
#include "pipeline/scheduler.hpp"
#include "pipeline/seeds.hpp"
#include "util/check.hpp"
#include "util/format.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <string>

namespace gesmc {

namespace {

/// Error prefix marking a replicate stopped by PipelineExec::interrupt —
/// the one signal was_interrupted keys on, so cancel/drain outcomes stay
/// distinguishable from genuine failures.
constexpr const char* kInterruptPrefix = "interrupted: ";

/// Thrown out of the checkpoint-boundary callback to unwind a replicate
/// that must stop: the checkpoint just written is its resumable state.
struct InterruptReplicate {
    std::uint64_t superstep;
};

EdgeList realize_degree_sequence(const DegreeSequence& seq, const PipelineConfig& config) {
    GESMC_CHECK(seq.degree_sum() % 2 == 0, "degree sum must be even");
    GESMC_CHECK(seq.is_graphical(), "degree sequence is not graphical");
    switch (config.init) {
    case InitMethod::kHavelHakimi:
        return havel_hakimi(seq);
    case InitMethod::kConfigurationModel:
        return configuration_model_repaired(seq, config.seed);
    }
    GESMC_CHECK(false, "unknown init method");
    return {};
}

EdgeList generate_input(const PipelineConfig& config) {
    const auto n = static_cast<node_t>(config.gen_n);
    if (config.generator == "powerlaw") {
        return generate_powerlaw_graph(n, config.gen_gamma, config.seed);
    }
    if (config.generator == "gnp") {
        return generate_gnp(n, gnp_probability_for_edges(n, config.gen_m), config.seed);
    }
    if (config.generator == "grid") {
        return generate_grid(static_cast<node_t>(config.gen_rows),
                             static_cast<node_t>(config.gen_cols));
    }
    if (config.generator == "regular") {
        return generate_regular(n, config.gen_degree);
    }
    throw Error("unknown generator: " + config.generator);
}

/// "0007" — zero-padded so lexicographic = numeric order.
std::string padded_index(const PipelineConfig& config, std::uint64_t index) {
    std::string digits = std::to_string(index);
    const std::string width = std::to_string(config.replicates - 1);
    while (digits.size() < width.size()) digits.insert(digits.begin(), '0');
    return digits;
}

std::string replicate_output_path(const PipelineConfig& config, std::uint64_t index) {
    const char* ext = config.output_format == OutputFormat::kBinary ? ".gesb" : ".txt";
    return (std::filesystem::path(config.output_dir) /
            (config.output_prefix + "_" + padded_index(config, index) + ext))
        .string();
}

/// <run-dir>/checkpoints/<prefix>_0007.gesc — same naming scheme as the
/// outputs so a run directory is self-describing.
std::string checkpoint_path(const std::string& run_dir, const PipelineConfig& config,
                            std::uint64_t index) {
    return (std::filesystem::path(run_dir) / "checkpoints" /
            (config.output_prefix + "_" + padded_index(config, index) + ".gesc"))
        .string();
}

/// The adaptive estimator's sidecar next to a replicate's .gesc: same stem,
/// .gesa extension ("GESA" preamble, analysis/ess.hpp).
std::string estimator_path(const std::string& run_dir, const PipelineConfig& config,
                           std::uint64_t index) {
    return (std::filesystem::path(run_dir) / "checkpoints" /
            (config.output_prefix + "_" + padded_index(config, index) + ".gesa"))
        .string();
}

AdaptiveStopConfig adaptive_stop_config(const PipelineConfig& config) {
    AdaptiveStopConfig out;
    out.ess_target = config.ess_target;
    out.mixing_tau = config.mixing_tau;
    out.min_supersteps = config.min_supersteps;
    out.max_supersteps = config.max_supersteps;
    out.check_every = config.check_every;
    return out;
}

/// Same atomic write protocol as the .gesc files (graph/io): tmp + rename,
/// so a crash never leaves a torn sidecar shadowing a good checkpoint.
void write_estimator_file_atomic(const std::string& path, const EssEstimator& est) {
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary);
        GESMC_CHECK(os.good(), "cannot open for writing: " + tmp);
        est.save(os);
        os.close();
        GESMC_CHECK(os.good(), "estimator sidecar write failed: " + tmp);
    }
    std::filesystem::rename(tmp, path);
}

/// Restores the estimator sidecar belonging to a restored chain state, or
/// nullopt when it is missing, unreadable, recorded under different knobs,
/// or out of step with the chain — the callers then rerun the replicate
/// from superstep 0 (byte-identical, just recomputing).
std::optional<EssEstimator> try_restore_estimator(const std::string& path,
                                                  const AdaptiveStopConfig& stop_config,
                                                  std::uint64_t chain_supersteps) {
    std::ifstream is(path, std::ios::binary);
    if (!is.good()) return std::nullopt;
    try {
        EssEstimator est = EssEstimator::restore(is, stop_config);
        if (est.supersteps() != chain_supersteps) return std::nullopt;
        return est;
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

/// Per-replicate decorator feeding the replicate's superstep stream into
/// its estimator before forwarding to the run's observer chain.
class EssFeed final : public RunObserver {
public:
    EssFeed(EssEstimator* estimator, RunObserver* inner) noexcept
        : estimator_(estimator), inner_(inner) {}

    void on_superstep(std::uint64_t replicate, const Chain& chain) override {
        estimator_->observe(chain);
        if (inner_ != nullptr) inner_->on_superstep(replicate, chain);
    }

    void on_checkpoint(std::uint64_t replicate, const ChainState& state,
                       const std::string& path) override {
        if (inner_ != nullptr) inner_->on_checkpoint(replicate, state, path);
    }

    void on_replicate_done(const ReplicateReport& report) override {
        if (inner_ != nullptr) inner_->on_replicate_done(report);
    }

private:
    EssEstimator* estimator_;
    RunObserver* inner_;
};

obs::Counter& supersteps_saved_counter() {
    static obs::Counter& c =
        obs::MetricsRegistry::instance().counter("pipeline.supersteps.saved");
    return c;
}

} // namespace

EdgeList materialize_input(const PipelineConfig& config) {
    validate(config);
    switch (config.input_kind) {
    // single_input_path, not the raw value: a spaced path travels
    // double-quoted through the `input` list spelling.
    case InputKind::kEdgeList:
        return read_any_edge_list_file(single_input_path(config));
    case InputKind::kDegreeSequence:
        return realize_degree_sequence(
            read_degree_sequence_file(single_input_path(config)), config);
    case InputKind::kGenerator:
        return generate_input(config);
    }
    GESMC_CHECK(false, "unknown input kind");
    return {};
}

bool all_succeeded(const RunReport& report) {
    for (const ReplicateReport& r : report.replicates) {
        if (!r.error.empty()) return false;
    }
    return true;
}

std::uint64_t remove_run_checkpoints(const PipelineConfig& config) {
    std::uint64_t removed = 0;
    for (std::uint64_t r = 0; r < config.replicates; ++r) {
        std::error_code ec;
        if (std::filesystem::remove(checkpoint_path(config.output_dir, config, r), ec)) {
            ++removed;
        }
        // Adaptive estimator sidecars live and die with their .gesc.
        std::filesystem::remove(estimator_path(config.output_dir, config, r), ec);
    }
    std::error_code ec;
    const std::filesystem::path dir =
        std::filesystem::path(config.output_dir) / "checkpoints";
    if (std::filesystem::is_empty(dir, ec) && !ec) std::filesystem::remove(dir, ec);
    return removed;
}

bool is_interrupt_error(const std::string& error) {
    return error.rfind(kInterruptPrefix, 0) == 0;
}

bool was_interrupted(const RunReport& report) {
    for (const ReplicateReport& r : report.replicates) {
        if (is_interrupt_error(r.error)) return true;
    }
    return false;
}

RunReport run_pipeline(const PipelineConfig& config, std::ostream* log,
                       RunObserver* observer) {
    return run_pipeline(config, log, observer, PipelineExec{});
}

RunReport run_pipeline(const PipelineConfig& config, std::ostream* log,
                       RunObserver* observer, const PipelineExec& exec) {
    // materialize_input below runs validate(config); no separate call here.
    const ChainAlgorithm algo = chain_algorithm_from_string(config.algorithm);

    RunReport report;
    report.config = config;

    Timer total_timer;
    const EdgeList initial = materialize_input(config);
    GESMC_CHECK(initial.num_edges() >= 2,
                "input graph needs at least two edges to run a switching chain");
    const DegreeSequence degrees = degree_sequence_of(initial);
    report.input_nodes = initial.num_nodes();
    report.input_edges = initial.num_edges();
    report.input_max_degree = degrees.max_degree();
    report.input_p2 = degrees.p2();
    report.init_seconds = total_timer.elapsed_s();

    // Host the replicates: an injected executor (service jobs share one
    // machine-wide budget) or a private thread budget owned by this run.
    std::optional<ThreadBudget> own_budget;
    std::optional<PoolExecutor> own_executor;
    ReplicateExecutor* executor = exec.executor;
    if (executor == nullptr) {
        own_budget.emplace(config.threads);
        own_executor.emplace(*own_budget);
        executor = &*own_executor;
    }
    const auto interrupted = [&exec]() noexcept {
        return exec.interrupt != nullptr &&
               exec.interrupt->load(std::memory_order_relaxed);
    };
    // Replicate range: everything by default; the corpus coordinator's
    // two-phase early-stop runs partial ranges (PipelineExec doc).
    const std::uint64_t range_begin = std::min(exec.replicate_begin, config.replicates);
    const std::uint64_t range_end =
        std::min(exec.replicate_end, config.replicates);
    GESMC_CHECK(range_begin <= range_end, "replicate range is inverted");
    const std::uint64_t range_count = range_end - range_begin;
    const bool full_range = range_begin == 0 && range_end == config.replicates;
    const ScheduleRequest request{config.policy, config.chain_threads,
                                  config.max_concurrent};
    const ResolvedSchedule schedule = executor->resolve(range_count, request);
    // The effective per-replicate budget: fixed supersteps, or the adaptive
    // cap (each replicate may stop earlier on its own verdict).
    const std::uint64_t target_supersteps =
        config.adaptive ? config.max_supersteps : config.supersteps;
    const AdaptiveStopConfig stop_config = adaptive_stop_config(config);
    report.threads = executor->threads();
    report.resolved_policy = schedule.policy;
    report.chain_threads = schedule.chain_threads;
    report.max_concurrent = schedule.max_concurrent;

    if (log != nullptr && algo == ChainAlgorithm::kNaiveParES) {
        *log << "pipeline: warning: naive-par-es outputs depend on the schedule's "
                "chain-threads (inexact chain, paper §5.1); only exact chains "
                "are byte-reproducible across (K, T) points\n";
    }
    if (log != nullptr) {
        *log << "pipeline: n = " << initial.num_nodes() << ", m = " << initial.num_edges()
             << ", max degree = " << report.input_max_degree << "\n"
             << "pipeline: " << config.replicates << " x " << config.algorithm << " x ";
        if (config.adaptive) {
            *log << "adaptive (<= " << config.max_supersteps << ")";
        } else {
            *log << config.supersteps;
        }
        *log << " supersteps, policy = "
             << to_string(report.resolved_policy) << ", budget = " << report.threads
             << " threads (" << schedule.max_concurrent << " x "
             << schedule.chain_threads << ")\n";
    }
    GESMC_LOG_EVENT(Info, "pipeline", "run_started")
        .str("algorithm", config.algorithm)
        .num("replicates", config.replicates)
        .num("supersteps", target_supersteps)
        .num("nodes", initial.num_nodes())
        .num("edges", initial.num_edges())
        .num("threads", report.threads);

    if (!config.output_dir.empty()) {
        std::filesystem::create_directories(config.output_dir);
    }
    if (config.checkpoint_every > 0) {
        std::filesystem::create_directories(std::filesystem::path(config.output_dir) /
                                            "checkpoints");
    }
    if (!config.resume_from.empty()) {
        bool any_checkpoint = false;
        for (std::uint64_t r = range_begin; r < range_end && !any_checkpoint; ++r) {
            any_checkpoint =
                std::filesystem::exists(checkpoint_path(config.resume_from, config, r));
        }
        if (!any_checkpoint) {
            // A *completed* run cleans its checkpoints/ away by default, and
            // an interrupted run can win its race against the interrupt —
            // so resume-after-drain must tolerate "no checkpoints but every
            // output present" by recomputing (byte-identical anyway:
            // outputs are a pure function of config and seed).  Anything
            // else fails fast: a typo'd directory or a naming mismatch (the
            // checkpoint filenames encode output-prefix and the replicate
            // count's digit width) would silently discard the compute the
            // resume exists to save.
            bool outputs_complete = true;
            for (std::uint64_t r = range_begin; r < range_end && outputs_complete; ++r) {
                PipelineConfig prev = config;
                prev.output_dir = config.resume_from;
                outputs_complete = std::filesystem::exists(replicate_output_path(prev, r));
            }
            GESMC_CHECK(outputs_complete,
                        "resume-from \"" + config.resume_from +
                            "\" has neither matching checkpoints nor a complete "
                            "set of outputs (wrong directory, output-prefix or "
                            "replicate count?)");
            if (log != nullptr) {
                *log << "pipeline: resume-from " << config.resume_from
                     << " holds a completed run (checkpoints cleaned); "
                        "re-running replicates without checkpoints\n";
            }
        } else if (log != nullptr) {
            *log << "pipeline: resuming from " << config.resume_from << "/checkpoints\n";
        }
        GESMC_LOG_EVENT(Info, "pipeline", "resume")
            .str("from", config.resume_from)
            .flag("checkpoints", any_checkpoint);
    }

    report.replicates.resize(config.replicates);
    const std::vector<std::uint32_t> initial_degrees = initial.degrees();

    // Live mixing telemetry: when the run both computes metrics and the
    // registry is on, interpose the analysis-layer observer so each
    // replicate's supersteps feed an autocorrelation tracker whose verdict
    // lands in the analysis.* gauges (and through them the telemetry
    // sampler / watch stream).  Pure decoration — `observer` still sees
    // every callback unchanged.
    std::optional<MixingGaugeObserver> mixing;
    RunObserver* effective_observer = observer;
    if (config.metrics && obs::metrics_enabled()) {
        mixing.emplace(config.replicates, target_supersteps, observer);
        effective_observer = &*mixing;
    }

    executor->run(range_count, request,
                  [&](const ReplicateSlot& slot) {
        // Absolute replicate index: seeds and file names come from it, so a
        // partial-range run reproduces the full run's bytes per replicate.
        const std::uint64_t index = range_begin + slot.index;
        ReplicateReport& out = report.replicates[index];
        out.index = index;
        out.seed = replicate_seed(config.seed, index);
        const obs::TraceSpan replicate_span(
            "replicate", "pipeline",
            {{"replicate", index}, {"width", slot.chain_threads}});
        Timer timer;
        try {
            // Drain/cancel: a replicate that has not started is not worth
            // starting — resume-from (or a resubmit) runs it from scratch.
            if (interrupted()) {
                throw InterruptReplicate{0};
            }
            ChainConfig chain_config;
            chain_config.seed = out.seed;
            chain_config.threads = slot.chain_threads;
            chain_config.shared_pool = slot.shared_pool;
            chain_config.pl = config.pl;
            chain_config.prefetch = config.prefetch;
            chain_config.small_graph_cutoff = config.small_graph_cutoff;

            // Resume: seed the replicate from the previous run's checkpoint
            // when one exists.  A finished replicate is not re-run — its
            // output is re-emitted from the final snapshot.
            std::unique_ptr<Chain> chain;
            std::optional<EssEstimator> estimator; // adaptive mode only
            EdgeList finished_graph;
            bool finished_from_checkpoint = false;
            if (!config.resume_from.empty()) {
                const std::string prev =
                    checkpoint_path(config.resume_from, config, index);
                if (std::filesystem::exists(prev)) {
                    ChainState state = read_chain_state_file(prev);
                    GESMC_CHECK(state.algorithm == algo,
                                "checkpoint " + prev + " was written by " +
                                    to_string(state.algorithm) +
                                    ", not the configured algorithm");
                    GESMC_CHECK(state.seed == out.seed,
                                "checkpoint " + prev +
                                    " does not match this run's seed derivation "
                                    "(different master seed or replicate count?)");
                    // pl is part of the G-ES trajectory; a resume config
                    // that changes it would mix distributions across
                    // resumed and fresh replicates.
                    GESMC_CHECK((algo != ChainAlgorithm::kSeqGlobalES &&
                                 algo != ChainAlgorithm::kParGlobalES) ||
                                    state.pl == config.pl,
                                "checkpoint " + prev + " was written with pl = " +
                                    std::to_string(state.pl) +
                                    ", not the configured pl");
                    GESMC_CHECK(state.stats.supersteps <= target_supersteps,
                                "checkpoint " + prev +
                                    " is ahead of the configured supersteps");
                    // Adaptive resumes additionally need the estimator
                    // sidecar — the stop verdict is a function of the whole
                    // stream, so a chain state alone cannot continue it.  A
                    // missing/mismatched sidecar falls back to a fresh run
                    // from superstep 0: byte-identical, just recomputed.
                    bool usable = true;
                    if (config.adaptive) {
                        estimator = try_restore_estimator(
                            estimator_path(config.resume_from, config, index),
                            stop_config, state.stats.supersteps);
                        usable = estimator.has_value();
                    }
                    const bool finished =
                        usable &&
                        (state.stats.supersteps == target_supersteps ||
                         (config.adaptive && estimator->stopped() &&
                          *estimator->stop_superstep() == state.stats.supersteps));
                    if (!usable) {
                        // fall through to the fresh path below
                    } else if (finished) {
                        out.resumed_supersteps = state.stats.supersteps;
                        out.stats = state.stats;
                        if (config.checkpoint_every > 0) {
                            // Resuming into a different directory: carry the
                            // finished marker over, or a later resume from
                            // *this* run would re-run the replicate.
                            const std::string here =
                                checkpoint_path(config.output_dir, config, index);
                            if (!std::filesystem::exists(here)) {
                                write_chain_state_file_atomic(here, state);
                                if (config.adaptive) {
                                    write_estimator_file_atomic(
                                        estimator_path(config.output_dir, config, index),
                                        *estimator);
                                }
                                if (effective_observer != nullptr) {
                                    effective_observer->on_checkpoint(index, state,
                                                                      here);
                                }
                            }
                        }
                        finished_graph =
                            EdgeList::from_keys(state.num_nodes, std::move(state.keys));
                        finished_from_checkpoint = true;
                    } else {
                        out.resumed_supersteps = state.stats.supersteps;
                        chain = make_chain(state, chain_config);
                    }
                }
            }
            if (!finished_from_checkpoint) {
                if (chain == nullptr) {
                    chain = make_chain(algo, initial, chain_config);
                    if (config.adaptive) {
                        // Built against the superstep-0 state, *before* any
                        // superstep runs: the stream the verdict sees must
                        // start at the initial graph.
                        estimator.emplace(*chain, stop_config,
                                          adaptive_max_thinning(config.max_supersteps));
                    }
                }
                const auto checkpoint_boundary = [&](bool replicate_done) {
                    if (config.checkpoint_every == 0) return;
                    const std::string path =
                        checkpoint_path(config.output_dir, config, index);
                    const ChainState state = chain->snapshot();
                    const obs::TraceSpan span(
                        "checkpoint", "pipeline",
                        {{"replicate", index},
                         {"superstep", state.stats.supersteps}});
                    write_chain_state_file_atomic(path, state);
                    if (config.adaptive) {
                        // The sidecar lands after its .gesc: a crash window
                        // leaves chain-state-without-sidecar, which resume
                        // treats as "rerun fresh", never as corrupt.
                        write_estimator_file_atomic(
                            estimator_path(config.output_dir, config, index),
                            *estimator);
                    }
                    if (effective_observer != nullptr) {
                        effective_observer->on_checkpoint(index, state, path);
                    }
                    // Drain/cancel: the state just persisted is exactly the
                    // resume point — stop here instead of running to the
                    // target.  The completion boundary never throws (the
                    // replicate is done; finishing beats discarding it).
                    if (interrupted() && !replicate_done) {
                        throw InterruptReplicate{state.stats.supersteps};
                    }
                };
                // Snapshots are exact at superstep boundaries; the final
                // one marks the replicate finished so a resume can skip it.
                if (config.adaptive) {
                    EssFeed feed(&*estimator, effective_observer);
                    run_adaptive_checkpointed(
                        *chain, target_supersteps, config.min_supersteps,
                        config.check_every, config.checkpoint_every, &feed,
                        index, [&] { return estimator->stopped(); },
                        [&] {
                            const std::uint64_t done = chain->stats().supersteps;
                            checkpoint_boundary(done == target_supersteps ||
                                                estimator->stopped());
                        });
                } else {
                    run_checkpointed(*chain, config.supersteps, config.checkpoint_every,
                                     effective_observer, index, [&] {
                        checkpoint_boundary(chain->stats().supersteps ==
                                            config.supersteps);
                    });
                }
                out.stats = chain->stats();
            }
            if (config.adaptive) {
                // The realized budget and mixing verdict ride along in the
                // report (emitted only in adaptive mode: fixed-budget report
                // bytes are unchanged).
                out.has_adaptive = true;
                out.realized_supersteps = out.stats.supersteps;
                out.stop_reason =
                    estimator->stopped() ? "ess-target" : "max-supersteps";
                out.ess = estimator->ess();
                out.act_tau = estimator->act_tau();
                out.non_independent = estimator->non_independent_fraction();
                if (obs::metrics_enabled()) {
                    supersteps_saved_counter().add(config.max_supersteps -
                                                   out.stats.supersteps);
                }
            }

            const EdgeList& result =
                finished_from_checkpoint ? finished_graph : chain->graph();
            if (config.verify) {
                GESMC_CHECK(result.is_simple(), "replicate produced a non-simple graph");
                GESMC_CHECK(result.degrees() == initial_degrees,
                            "replicate changed the degree sequence");
            }
            if (!config.output_dir.empty()) {
                out.output_path = replicate_output_path(config, index);
                if (config.output_format == OutputFormat::kBinary) {
                    write_edge_list_binary_file(out.output_path, result);
                } else {
                    write_edge_list_file(out.output_path, result);
                }
            }
            if (config.metrics) {
                const Adjacency adj(result);
                out.triangles = triangle_count(adj);
                out.global_clustering = global_clustering(adj);
                out.assortativity = degree_assortativity(result);
                out.components = connected_components(adj);
                out.has_metrics = true;
            }
        } catch (const InterruptReplicate& stop) {
            out.error = stop.superstep == 0
                            ? std::string(kInterruptPrefix) +
                                  "not started (a resume-from run starts it fresh)"
                            : std::string(kInterruptPrefix) + "stopped at superstep " +
                                  std::to_string(stop.superstep) +
                                  " (checkpointed; a resume-from run continues it)";
            GESMC_LOG_EVENT(Warn, "pipeline", "replicate_interrupted")
                .num("replicate", index)
                .num("superstep", stop.superstep);
        } catch (const std::exception& e) {
            // Exceptions must not cross the pool boundary (scheduler.hpp);
            // record and let the remaining replicates run.
            out.error = e.what();
            GESMC_LOG_EVENT(Error, "pipeline", "replicate_failed")
                .num("replicate", index)
                .str("error", out.error);
        }
        out.seconds = timer.elapsed_s();
        if (out.error.empty()) {
            GESMC_LOG_EVENT(Debug, "pipeline", "replicate_done")
                .num("replicate", index)
                .real("seconds", out.seconds);
        }
        if (obs::metrics_enabled()) {
            struct PipelineCounters {
                obs::Counter& completed = obs::MetricsRegistry::instance().counter(
                    "pipeline.replicates.completed");
                obs::Counter& failed = obs::MetricsRegistry::instance().counter(
                    "pipeline.replicates.failed");
            };
            static PipelineCounters& counters = *new PipelineCounters();
            (out.error.empty() ? counters.completed : counters.failed).add(1);
        }
        // Streamed completion: the replicate's graph is already on disk
        // here — consumers need not wait for the assembled RunReport.
        if (effective_observer != nullptr) effective_observer->on_replicate_done(out);
    });

    report.chain_name = to_string(algo);
    report.total_seconds = total_timer.elapsed_s();

    // Checkpoints exist to survive interruption; once every replicate
    // finished cleanly they are dead weight (stale .gesc files shadowing
    // future runs into the same directory).  keep-checkpoints opts out —
    // e.g. to seed resume-into-fresh-directory moves later.  A partial
    // range never cleans up: the replicates outside it may still need
    // their checkpoints (the coordinator finalizes once it owns the whole
    // run's outcome).
    if (full_range && config.checkpoint_every > 0 && !config.keep_checkpoints &&
        all_succeeded(report)) {
        const std::uint64_t removed = remove_run_checkpoints(config);
        if (log != nullptr && removed > 0) {
            *log << "pipeline: removed " << removed
                 << " checkpoint file(s) after the successful run (set "
                    "keep-checkpoints = true to retain them)\n";
        }
    }

    if (full_range && !config.report_path.empty()) {
        const std::filesystem::path parent =
            std::filesystem::path(config.report_path).parent_path();
        if (!parent.empty()) std::filesystem::create_directories(parent);
        write_json_report_file(config.report_path, report);
    }

    std::uint64_t failed = 0;
    for (const ReplicateReport& r : report.replicates) {
        if (!r.error.empty()) ++failed;
    }
    if (log != nullptr) {
        *log << "pipeline: done in " << fmt_seconds(report.total_seconds) << " ("
             << fmt_si(report.switches_per_second()) << " switches/s";
        if (failed > 0) *log << ", " << failed << " replicate(s) FAILED";
        *log << ")\n";
    }
    GESMC_LOG_EVENT(Info, "pipeline", "run_done")
        .num("replicates", config.replicates)
        .num("failed", failed)
        .real("seconds", report.total_seconds)
        .real("switches_per_second", report.switches_per_second());
    return report;
}

} // namespace gesmc
