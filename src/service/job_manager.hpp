/// \file job_manager.hpp
/// \brief Multi-job execution over one thread budget for the sampling daemon.
///
/// The daemon's compute core, deliberately socket-free (tests drive it
/// directly).  Two pieces:
///
///   * SharedExecutor (pipeline/shared_executor.hpp, the one replicate
///     executor of standalone, corpus and daemon runs) — one
///     ThreadBudget of P threads that multiplexes the replicates of many
///     concurrent jobs round-robin while preserving each job's resolved
///     (K, T) schedule; the width-counting budget is the admission gate.
///
///   * JobManager — admission, queueing and lifecycle.  submit() validates
///     a PipelineConfig and queues it; max_concurrent runner threads feed
///     jobs into run_pipeline with the SharedExecutor injected, the job's
///     RunObserver forwarded (the daemon passes a socket-backed one), and a
///     per-job interrupt flag wired into PipelineExec.  cancel() trips that
///     flag (queued jobs never start); drain() — the SIGTERM path —
///     cancels the queue, interrupts running *checkpointed* jobs at their
///     next boundary and lets uncheckpointed ones finish, then waits: jobs
///     either complete or leave resumable checkpoints, never half-written
///     outputs.  Checkpoint/resume config keys work unchanged, so a daemon
///     restart resumes in-flight jobs from their output directories.
#pragma once

#include "check/checked_mutex.hpp"
#include "pipeline/config.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/report.hpp"
#include "pipeline/scheduler.hpp"
#include "pipeline/shared_executor.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace gesmc {

/// Lifecycle of one submitted job.
enum class JobStatus {
    kQueued,       ///< admitted, waiting for a runner slot
    kRunning,      ///< run_pipeline in flight
    kSucceeded,    ///< every replicate finished without error
    kFailed,       ///< run threw, or >= 1 replicate recorded a real error
    kCancelled,    ///< stopped by an explicit cancel request
    kInterrupted,  ///< stopped by a daemon drain; checkpoints support resume
};

[[nodiscard]] std::string to_string(JobStatus status);
[[nodiscard]] inline bool is_terminal(JobStatus status) noexcept {
    return status != JobStatus::kQueued && status != JobStatus::kRunning;
}

/// Snapshot of one job for status frames and callers.
struct JobInfo {
    std::uint64_t id = 0;
    JobStatus status = JobStatus::kQueued;
    std::string algorithm;
    std::uint64_t replicates = 0;
    std::uint64_t replicates_done = 0;  ///< on_replicate_done count (any outcome)
    std::string output_dir;
    std::string error;  ///< run-level error (admission errors throw at submit)

    /// Throughput so far: wall clock since the job started running (still
    /// ticking while kRunning) and attempted switches over it.  Zero until
    /// the job leaves the queue.
    double seconds = 0;
    std::uint64_t attempted_switches = 0;
    double switches_per_second = 0;

    /// True when the job runs with `supersteps = adaptive` (docs/adaptive.md);
    /// realized_supersteps then sums the supersteps its finished replicates
    /// actually ran — against replicates_done x max-supersteps it shows how
    /// much budget the adaptive stop saved.  (Summed for fixed-budget jobs
    /// too, where it is simply replicates_done x supersteps.)
    bool adaptive = false;
    std::uint64_t realized_supersteps = 0;
};

/// Point-in-time load snapshot of the whole manager — the payload of the
/// daemon's `metrics` frame.
struct ServiceStats {
    ExecutorStats executor;
    std::uint64_t jobs_queued = 0;
    std::uint64_t jobs_running = 0;
    std::uint64_t jobs_succeeded = 0;
    std::uint64_t jobs_failed = 0;
    std::uint64_t jobs_cancelled = 0;
    std::uint64_t jobs_interrupted = 0;
    std::vector<JobInfo> jobs;  ///< per-job rows, id ascending
};

class JobManager {
public:
    /// `threads`: shared executor width (0 = hardware); `max_concurrent`:
    /// jobs running at once — admission beyond it queues (>= 1).
    JobManager(unsigned threads, unsigned max_concurrent);
    ~JobManager();

    JobManager(const JobManager&) = delete;
    JobManager& operator=(const JobManager&) = delete;

    /// Validates and queues `config`; returns the job id.  `observer` (may
    /// be null) receives the job's pipeline events from runner/pool threads
    /// and must outlive the job (wait for a terminal status before
    /// destroying it).  Throws Error on an invalid config or when the
    /// manager is draining.
    std::uint64_t submit(const PipelineConfig& config, RunObserver* observer);

    /// As above, but the observer is built *knowing its job id*: the
    /// factory runs after the job is registered but before it is queued, so
    /// the first event a client sees already carries the right id (the
    /// server's SocketObserver needs this).  It runs *outside* the manager
    /// lock — it may block on I/O and may call cancel() on its own job
    /// (e.g. from a broken-stream callback); such a cancel finalizes the
    /// job before it ever starts.  The factory may return null; if it
    /// throws, the job is finalized kFailed and the exception propagates.
    std::uint64_t
    submit(const PipelineConfig& config,
           const std::function<RunObserver*(std::uint64_t id)>& make_observer);

    /// Requests a stop: a queued job is finalized kCancelled immediately; a
    /// running one is interrupted (checkpoint boundary / next replicate).
    /// Returns false for unknown or already-terminal jobs.
    bool cancel(std::uint64_t id);

    [[nodiscard]] std::optional<JobInfo> job(std::uint64_t id) const;
    [[nodiscard]] std::vector<JobInfo> jobs() const;

    /// Executor load + per-job throughput in one consistent pass under the
    /// manager lock (the executor part is racy by nature, see ExecutorStats).
    [[nodiscard]] ServiceStats stats() const;

    /// Blocks until `id` reaches a terminal status; throws on unknown id.
    JobInfo wait(std::uint64_t id);

    /// Graceful shutdown: refuse new submissions, cancel queued jobs,
    /// interrupt running checkpointed jobs (uncheckpointed ones finish),
    /// block until everything is terminal.  Idempotent.
    void drain();

    [[nodiscard]] unsigned threads() const noexcept;

private:
    /// Non-atomic Job fields are guarded by the *manager's* mutex_ (not
    /// expressible as GUARDED_BY from a nested struct — the runtime rank
    /// detector and TSan still cover them); `interrupt`, `replicates_done`
    /// and `attempted_switches` are atomics written from pool threads.
    struct Job {
        std::uint64_t id = 0;
        PipelineConfig config;
        RunObserver* observer = nullptr;
        JobStatus status = JobStatus::kQueued;
        std::string error;
        std::atomic<bool> interrupt{false};
        bool cancel_requested = false;      ///< distinguishes cancel from drain
        std::atomic<std::uint64_t> replicates_done{0};
        /// Attempted switches summed over finished replicates (fed by the
        /// counting observer) — the numerator of the job's throughput.
        std::atomic<std::uint64_t> attempted_switches{0};
        /// Supersteps the finished replicates actually ran (JobInfo doc).
        std::atomic<std::uint64_t> realized_supersteps{0};
        std::chrono::steady_clock::time_point started;   ///< set at kRunning
        std::chrono::steady_clock::time_point finished;  ///< set at terminal
        bool has_started = false;
        bool has_finished = false;
    };

    JobInfo info_locked(const Job& job) const GESMC_REQUIRES(mutex_);
    void runner_loop();
    void finish_job(Job& job, JobStatus status, std::string error);

    /// Evicts the oldest terminal jobs beyond kTerminalJobRetention so a
    /// long-lived daemon's memory (and its status frames) stay bounded.
    /// Queued/running jobs are never evicted; a blocked wait() survives an
    /// eviction because it holds its own shared_ptr.
    void prune_terminal_locked() GESMC_REQUIRES(mutex_);

    /// Terminal jobs kept findable for status/wait after they settle.
    static constexpr std::size_t kTerminalJobRetention = 64;

    SharedExecutor executor_;

    mutable CheckedMutex mutex_{LockRank::kJobManager, "JobManager"};
    CheckedCondVar cv_;  ///< queue arrivals + status transitions
    std::map<std::uint64_t, std::shared_ptr<Job>> jobs_ GESMC_GUARDED_BY(mutex_);  ///< by id (ascending)
    std::uint64_t next_job_id_ GESMC_GUARDED_BY(mutex_) = 1;
    std::deque<std::shared_ptr<Job>> queue_ GESMC_GUARDED_BY(mutex_);
    bool draining_ GESMC_GUARDED_BY(mutex_) = false;
    bool stopping_ GESMC_GUARDED_BY(mutex_) = false;
    std::vector<std::thread> runners_;
};

} // namespace gesmc
