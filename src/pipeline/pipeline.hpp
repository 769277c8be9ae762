/// \file pipeline.hpp
/// \brief The batch sampling pipeline: config in, R replicate graphs +
/// JSON report out.
///
/// This is the subsystem that turns the G-ES-MC chains into a service-shaped
/// sampler (ROADMAP north star).  One run:
///
///   1. ingests an input — an edge list (text or GESB binary), a degree
///      sequence, or a built-in generator spec;
///   2. materializes one initial simple graph (degree sequences via
///      Havel–Hakimi or the repaired configuration model);
///   3. runs R independent replicates of the configured chain, each seeded
///      by replicate_seed(master, index), scheduled over one machine-level
///      thread budget under the configured policy — replicate-parallel,
///      intra-chain, or hybrid K x T (see scheduler.hpp and
///      docs/scheduling.md);
///   4. writes one output graph per replicate plus a JSON run report with
///      timings, ChainStats and structural metrics.
///
/// Replicate results are a pure function of (config, seed): the chains use
/// counter-based randomness, so neither the thread count nor the schedule
/// policy changes any output byte — asserted by tests/test_pipeline.cpp.
///
/// Failure model: a replicate that throws (IO error, invariant violation)
/// records its message in ReplicateReport::error; the remaining replicates
/// still run.  Callers check RunReport::all_succeeded (the CLI exits
/// non-zero, tests assert it).
///
/// Checkpoint/resume: with checkpoint_every > 0 the run persists each
/// replicate's ChainState (GESB chain-state section, *.gesc) under
/// <output-dir>/checkpoints/ every N supersteps and once more at replicate
/// completion; with resume_from set it seeds replicates from a previous
/// run's checkpoints — finished replicates are re-emitted without running,
/// in-flight ones continue from their (seed, counter) pair, and the final
/// outputs are byte-identical to an uninterrupted run (counter-based
/// randomness; asserted by tests and the CI resume smoke test).
///
/// Streaming: replicate graphs are written from inside the scheduler as
/// each replicate finishes — a RunObserver passed to run_pipeline sees
/// on_superstep / on_checkpoint / on_replicate_done live instead of
/// waiting for the buffered RunReport (the hook the ROADMAP's service
/// front-end will stream over the wire).
#pragma once

#include "graph/edge_list.hpp"
#include "pipeline/config.hpp"
#include "pipeline/report.hpp"

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace gesmc {

class Adjacency;      // graph/adjacency.hpp
class SharedExecutor; // pipeline/shared_executor.hpp

/// Materializes the initial graph a run starts from (step 1 + 2).  Exposed
/// separately so tools and tests can inspect the input without running
/// chains.
[[nodiscard]] EdgeList materialize_input(const PipelineConfig& config);

/// True iff every replicate finished without error.
[[nodiscard]] bool all_succeeded(const RunReport& report);

/// The replicate verify decision, taken from the replicate's CSR: throws
/// Error "replicate produced a non-simple graph" when a neighborhood holds
/// a loop or a duplicate edge, else "replicate changed the degree sequence"
/// when a degree differs from `degrees` (the initial graph's).
void verify_replicate(const Adjacency& adj, const std::vector<std::uint32_t>& degrees);

/// Execution context for a pipeline run — how the run is hosted and how it
/// can be stopped from the outside.  The defaults reproduce the standalone
/// behavior (private executor, uninterruptible); the sampling service and
/// the corpus coordinator inject their shared executor, the service also a
/// per-job interrupt flag.
struct PipelineExec {
    /// Hosts the replicate bodies.  Null: the run builds a private
    /// SharedExecutor of `config.threads` width.
    SharedExecutor* executor = nullptr;

    /// Cooperative stop flag (signal handlers, job cancel, daemon drain).
    /// Once set: replicates that have not started are recorded as errors
    /// without running, and running replicates stop at their next
    /// checkpoint boundary — the checkpoint just written makes the run
    /// resumable via resume-from.  Replicates without checkpointing run to
    /// completion (there is no consistent state to stop at).  Null: never
    /// interrupted.
    const std::atomic<bool>* interrupt = nullptr;

    /// Half-open replicate index range [replicate_begin, replicate_end) to
    /// actually run, clamped to [0, config.replicates).  The defaults run
    /// everything.  A partial range (the corpus coordinator's two-phase
    /// early-stop, docs/corpus.md) still derives seeds and output names
    /// from the *absolute* indices — outputs are byte-identical to the same
    /// replicate in a full run — but skips the run-level finalization steps
    /// that only make sense for a complete run (report file, checkpoint
    /// cleanup); the RunReport entries outside the range stay default-
    /// initialized and the caller assembles the merged report.
    std::uint64_t replicate_begin = 0;
    std::uint64_t replicate_end = UINT64_MAX;
};

/// Runs the full pipeline; `log` (may be null) receives human-readable
/// progress lines.  Writes output graphs and the report file as configured,
/// and always returns the in-memory report.  A non-null `observer` streams
/// per-superstep, per-checkpoint and per-replicate events as they happen;
/// its callbacks fire from the executor's workers, concurrently when
/// K > 1 (see RunObserver).
RunReport run_pipeline(const PipelineConfig& config, std::ostream* log = nullptr,
                       RunObserver* observer = nullptr);

/// As above, with an injected execution context (see PipelineExec).
RunReport run_pipeline(const PipelineConfig& config, std::ostream* log,
                       RunObserver* observer, const PipelineExec& exec);

/// Removes the run's checkpoint files (.gesc plus adaptive .gesa estimator
/// sidecars) for every replicate of `config`, and the checkpoints/ directory
/// itself once empty; returns how many .gesc files were removed.
/// run_pipeline does this after a successful full-range run unless
/// keep-checkpoints is set; the corpus coordinator calls it when finalizing
/// a two-phase shard (partial-range runs never clean up themselves).
std::uint64_t remove_run_checkpoints(const PipelineConfig& config);

/// True iff `error` is the interruption marker a replicate records when
/// stopped by PipelineExec::interrupt, as opposed to a genuine failure.
[[nodiscard]] bool is_interrupt_error(const std::string& error);

/// True iff `report` records any replicate stopped by PipelineExec::
/// interrupt (error mentions the interruption marker).  Distinguishes "the
/// run was drained/cancelled" from "a replicate genuinely failed".
[[nodiscard]] bool was_interrupted(const RunReport& report);

} // namespace gesmc
