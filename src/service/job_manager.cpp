#include "service/job_manager.hpp"

#include "obs/metrics.hpp"
#include "util/check.hpp"

#include <algorithm>
#include <optional>
#include <utility>

namespace gesmc {

// --------------------------------------------------------------- statuses

std::string to_string(JobStatus status) {
    switch (status) {
    case JobStatus::kQueued:
        return "queued";
    case JobStatus::kRunning:
        return "running";
    case JobStatus::kSucceeded:
        return "succeeded";
    case JobStatus::kFailed:
        return "failed";
    case JobStatus::kCancelled:
        return "cancelled";
    case JobStatus::kInterrupted:
        return "interrupted";
    }
    return "unknown";
}

// ------------------------------------------------------------- JobManager

namespace {

/// Forwards a job's events to its (possibly null) observer while counting
/// completed replicates and attempted switches for status frames and the
/// job's throughput row in the metrics frame.
class CountingObserver final : public JobObserver {
public:
    CountingObserver(JobObserver* inner, std::atomic<std::uint64_t>& done,
                     std::atomic<std::uint64_t>& attempted,
                     std::atomic<std::uint64_t>& realized)
        : inner_(inner), done_(&done), attempted_(&attempted), realized_(&realized) {}

    void on_superstep(std::uint64_t replicate, const Chain& chain) override {
        if (inner_ != nullptr) inner_->on_superstep(replicate, chain);
    }
    void on_checkpoint(std::uint64_t replicate, const ChainState& state,
                       const std::string& path) override {
        if (inner_ != nullptr) inner_->on_checkpoint(replicate, state, path);
    }
    void on_replicate_done(const ReplicateReport& report) override {
        count(report);
        if (inner_ != nullptr) inner_->on_replicate_done(report);
    }
    void on_superstep(std::size_t graph, std::uint64_t replicate,
                      const Chain& chain) override {
        if (inner_ != nullptr) inner_->on_superstep(graph, replicate, chain);
    }
    void on_checkpoint(std::size_t graph, std::uint64_t replicate, const ChainState& state,
                       const std::string& path) override {
        if (inner_ != nullptr) inner_->on_checkpoint(graph, replicate, state, path);
    }
    void on_replicate_done(std::size_t graph, const ReplicateReport& report) override {
        count(report);
        if (inner_ != nullptr) inner_->on_replicate_done(graph, report);
    }
    void on_graph_done(std::size_t graph, const CorpusGraphRow& row) override {
        if (inner_ != nullptr) inner_->on_graph_done(graph, row);
    }

private:
    void count(const ReplicateReport& report) {
        done_->fetch_add(1, std::memory_order_relaxed);
        attempted_->fetch_add(report.stats.attempted, std::memory_order_relaxed);
        realized_->fetch_add(report.stats.supersteps, std::memory_order_relaxed);
    }

    JobObserver* inner_;
    std::atomic<std::uint64_t>* done_;
    std::atomic<std::uint64_t>* attempted_;
    std::atomic<std::uint64_t>* realized_;
};

/// service.jobs.* lifecycle counters (the snapshot-style per-status totals
/// live in ServiceStats, computed exactly under the manager lock).
struct JobCounters {
    obs::Counter& submitted =
        obs::MetricsRegistry::instance().counter("service.jobs.submitted");
    obs::Counter& finished =
        obs::MetricsRegistry::instance().counter("service.jobs.finished");
};

JobCounters& job_counters() {
    static JobCounters& c = *new JobCounters();
    return c;
}

} // namespace

JobManager::JobManager(unsigned threads, unsigned max_concurrent)
    : executor_(threads) {
    const unsigned runners = std::max(1u, max_concurrent);
    runners_.reserve(runners);
    for (unsigned i = 0; i < runners; ++i) {
        runners_.emplace_back([this] { runner_loop(); });
    }
}

JobManager::~JobManager() {
    drain();
    {
        CheckedLockGuard lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& r : runners_) r.join();
}

unsigned JobManager::threads() const noexcept { return executor_.threads(); }

std::uint64_t JobManager::submit(const PipelineConfig& config, JobObserver* observer) {
    return submit(config, [observer](std::uint64_t, const CorpusPlan*) { return observer; });
}

std::uint64_t JobManager::submit(
    const PipelineConfig& config,
    const std::function<JobObserver*(std::uint64_t, const CorpusPlan*)>& make_observer) {
    // Reject before queueing: submit errors belong to the caller.
    std::optional<CorpusPlan> corpus;
    if (is_corpus_config(config)) {
        validate_input_sources(config);
        if (config.report_path.empty()) {
            throw Error("a corpus job needs a \"report\" path: its summary is the "
                        "job's result, written on the daemon's disk");
        }
        corpus = plan_corpus(config);
    } else {
        validate(config);
    }
    auto job = std::make_shared<Job>();
    job->config = config;
    job->corpus = std::move(corpus);
    {
        CheckedLockGuard lock(mutex_);
        if (draining_) throw Error("daemon is draining; not accepting jobs");
        job->id = next_job_id_++;
        jobs_.emplace(job->id, job);
        prune_terminal_locked();
    }
    job_counters().submitted.add(1);

    // The factory runs *outside* the manager lock: the server's factory does
    // blocking socket I/O (the "accepted" frame), and its failure path calls
    // cancel(), which re-locks this mutex — under the lock that is a
    // self-deadlock and a slow client would stall every other request.  The
    // job is already registered, so such a cancel lands; it is not yet
    // queued, so no runner can start it — the factory's first frame still
    // precedes every pipeline event.
    JobObserver* observer = nullptr;
    if (make_observer != nullptr) {
        try {
            observer = make_observer(job->id, job->corpus ? &*job->corpus : nullptr);
        } catch (...) {
            {
                CheckedLockGuard lock(mutex_);
                if (!is_terminal(job->status)) {
                    job->status = JobStatus::kFailed;
                    job->error = "observer construction failed";
                }
            }
            cv_.notify_all();
            throw;
        }
    }

    {
        CheckedLockGuard lock(mutex_);
        job->observer = observer;
        // Cancelled (or drained) while the factory ran: already terminal —
        // queueing it would only make a runner skip it.
        if (job->status == JobStatus::kQueued) queue_.push_back(job);
    }
    cv_.notify_all();
    return job->id;
}

void JobManager::prune_terminal_locked() {
    std::size_t terminal = 0;
    for (const auto& [id, job] : jobs_) {
        if (is_terminal(job->status)) ++terminal;
    }
    for (auto it = jobs_.begin(); terminal > kTerminalJobRetention && it != jobs_.end();) {
        if (is_terminal(it->second->status)) {
            it = jobs_.erase(it); // oldest first: map iterates ids ascending
            --terminal;
        } else {
            ++it;
        }
    }
}

JobInfo JobManager::info_locked(const Job& job) const {
    JobInfo info;
    info.id = job.id;
    info.status = job.status;
    info.algorithm = job.config.algorithm;
    info.replicates = job.config.replicates * (job.corpus ? job.corpus->graphs.size() : 1);
    info.replicates_done = job.replicates_done.load(std::memory_order_relaxed);
    info.output_dir = job.config.output_dir;
    info.error = job.error;
    info.attempted_switches = job.attempted_switches.load(std::memory_order_relaxed);
    info.adaptive = job.config.adaptive;
    info.realized_supersteps = job.realized_supersteps.load(std::memory_order_relaxed);
    if (job.has_started) {
        const auto end = job.has_finished ? job.finished
                                          : std::chrono::steady_clock::now();
        info.seconds = std::chrono::duration<double>(end - job.started).count();
        if (info.seconds > 0) {
            info.switches_per_second =
                static_cast<double>(info.attempted_switches) / info.seconds;
        }
    }
    return info;
}

std::optional<JobInfo> JobManager::job(std::uint64_t id) const {
    CheckedLockGuard lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return std::nullopt;
    return info_locked(*it->second);
}

std::vector<JobInfo> JobManager::jobs() const {
    CheckedLockGuard lock(mutex_);
    std::vector<JobInfo> out;
    out.reserve(jobs_.size());
    for (const auto& [id, job] : jobs_) out.push_back(info_locked(*job));
    return out;
}

ServiceStats JobManager::stats() const {
    ServiceStats s;
    s.executor = executor_.stats();
    CheckedLockGuard lock(mutex_);
    s.jobs.reserve(jobs_.size());
    for (const auto& [id, job] : jobs_) {
        s.jobs.push_back(info_locked(*job));
        switch (job->status) {
        case JobStatus::kQueued:
            ++s.jobs_queued;
            break;
        case JobStatus::kRunning:
            ++s.jobs_running;
            break;
        case JobStatus::kSucceeded:
            ++s.jobs_succeeded;
            break;
        case JobStatus::kFailed:
            ++s.jobs_failed;
            break;
        case JobStatus::kCancelled:
            ++s.jobs_cancelled;
            break;
        case JobStatus::kInterrupted:
            ++s.jobs_interrupted;
            break;
        }
    }
    return s;
}

bool JobManager::cancel(std::uint64_t id) {
    CheckedLockGuard lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    Job& job = *it->second;
    if (is_terminal(job.status)) return false;
    job.cancel_requested = true;
    job.interrupt.store(true, std::memory_order_relaxed);
    if (job.status == JobStatus::kQueued) {
        // Never started: finalize here; the runner skips it when popped.
        job.status = JobStatus::kCancelled;
        job.error = "cancelled before start";
        cv_.notify_all();
    }
    return true;
}

JobInfo JobManager::wait(std::uint64_t id) {
    CheckedUniqueLock lock(mutex_);
    const auto it = jobs_.find(id);
    GESMC_CHECK(it != jobs_.end(), "unknown job id " + std::to_string(id));
    // Own shared_ptr: the job stays valid across the wait even if pruning
    // evicts it from the map meanwhile.
    const std::shared_ptr<Job> job = it->second;
    cv_.wait(lock, [&job] { return is_terminal(job->status); });
    return info_locked(*job);
}

void JobManager::finish_job(Job& job, JobStatus status, std::string error) {
    {
        CheckedLockGuard lock(mutex_);
        job.status = status;
        job.error = std::move(error);
        job.finished = std::chrono::steady_clock::now();
        job.has_finished = true;
    }
    job_counters().finished.add(1);
    cv_.notify_all();
}

void JobManager::drain() {
    CheckedUniqueLock lock(mutex_);
    draining_ = true;
    for (const auto& [id, job] : jobs_) {
        if (job->status == JobStatus::kQueued) {
            job->status = JobStatus::kCancelled;
            job->error = "daemon shutting down before the job started";
        } else if (job->status == JobStatus::kRunning &&
                   job->config.checkpoint_every > 0) {
            // Checkpointed jobs stop at their next boundary and resume
            // after a daemon restart; uncheckpointed ones run to completion
            // (there is no consistent state to stop them at).
            job->interrupt.store(true, std::memory_order_relaxed);
        }
    }
    cv_.notify_all();
    cv_.wait(lock, [this] {
        mutex_.assert_held();
        return std::all_of(jobs_.begin(), jobs_.end(), [](const auto& entry) {
            return is_terminal(entry.second->status);
        });
    });
}

void JobManager::runner_loop() {
    for (;;) {
        std::shared_ptr<Job> job;
        {
            CheckedUniqueLock lock(mutex_);
            cv_.wait(lock, [this] {
                mutex_.assert_held();
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty()) return; // stopping_, nothing left to run
            job = queue_.front();
            queue_.pop_front();
            if (job->status != JobStatus::kQueued) continue; // cancelled in queue
            job->status = JobStatus::kRunning;
            job->started = std::chrono::steady_clock::now();
            job->has_started = true;
        }

        run_job(*job);
    }
}

void JobManager::run_job(Job& job) {
    CountingObserver observer(job.observer, job.replicates_done, job.attempted_switches,
                              job.realized_supersteps);
    // A replicate error is either the interrupt marker (the chain stopped
    // at a cancel/drain boundary — resumable) or a genuine failure.  Only
    // genuine failures may fail the job; only marker errors may classify
    // it interrupted/cancelled — an interrupt flag alone must not mask real
    // failures behind a resume hint.
    std::uint64_t replicates = 0;
    std::uint64_t failed = 0;
    std::uint64_t stopped = 0;
    std::string first_error;
    try {
        if (job.corpus) {
            // The rows count a corpus job's replicates: a graph the early
            // stop settled after its first wave ran fewer than R.
            const CorpusReport report =
                run_corpus(*job.corpus, nullptr, &job.interrupt, &observer, &executor_);
            for (const CorpusGraphRow& row : report.rows) {
                replicates += row.replicates;
                failed += row.failed;
                stopped += row.interrupted;
                if (first_error.empty()) first_error = row.error;
            }
        } else {
            PipelineExec exec;
            exec.executor = &executor_;
            exec.interrupt = &job.interrupt;
            const RunReport report = run_pipeline(job.config, nullptr, &observer, exec);
            replicates = report.replicates.size();
            for (const ReplicateReport& r : report.replicates) {
                if (r.error.empty()) continue;
                if (is_interrupt_error(r.error)) {
                    ++stopped;
                    continue;
                }
                ++failed;
                if (first_error.empty()) first_error = r.error;
            }
        }
    } catch (const std::exception& e) {
        finish_job(job, JobStatus::kFailed, e.what());
        return;
    }
    // cancel_requested is written under mutex_ (cancel()); read it the same
    // way — the run is over, so the value is final.
    bool cancel_requested = false;
    {
        CheckedLockGuard lock(mutex_);
        cancel_requested = job.cancel_requested;
    }
    const std::string of_total = " of " + std::to_string(replicates);
    if (failed > 0) {
        std::string error = std::to_string(failed) + of_total +
                            " replicate(s) failed; first: " +
                            first_error.substr(0, 512);
        if (stopped > 0) {
            error += " (" + std::to_string(stopped) +
                     " stopped at an interrupt boundary)";
        }
        finish_job(job, JobStatus::kFailed, std::move(error));
    } else if (stopped == 0) {
        finish_job(job, JobStatus::kSucceeded, "");
    } else if (cancel_requested) {
        finish_job(job, JobStatus::kCancelled,
                   "cancelled; " + std::to_string(stopped) + of_total +
                       " replicate(s) stopped");
    } else {
        finish_job(job, JobStatus::kInterrupted,
                   "drained; resubmit with resume-from = \"" + job.config.output_dir +
                       "\" to continue");
    }
}

} // namespace gesmc
