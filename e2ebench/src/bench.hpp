/// \file bench.hpp
/// \brief Shared pieces of the end-to-end sampling benchmark driver.
///
/// The driver runs one workload per process: it writes the workload's
/// inputs from the seed, drives the program through its public entry points
/// (run_pipeline, an in-process ServiceServer), checks every output graph
/// against the sequential reference chain, and prints one JSON result line.
/// With --trace 1 it instead replays replicates stage by stage through the
/// layers' public functions and reports per-layer metrics (replay.cpp).
#pragma once

#include "core/chain.hpp"
#include "graph/edge_list.hpp"
#include "pipeline/config.hpp"
#include "pipeline/report.hpp"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using gesmc::EdgeList;
using gesmc::PipelineConfig;

/// Command-line arguments of one benchmark run.
struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool toy = false;     ///< self-test size: every workload in well under a second
    std::string workdir;  ///< scratch directory (relative to the checkout root)
};

/// Seconds on the steady clock.
[[nodiscard]] inline double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

[[nodiscard]] double median(std::vector<double> values);

/// Quantile q in [0, 1] with linear interpolation between order statistics.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// The metrics, counts and notes one run reports.  emit() refuses (returns
/// false, prints nothing on stdout) when a required metric is missing, not
/// finite, or carries another unit, or when nothing was attempted.
class Result {
public:
    void set(const std::string& name, double value, const std::string& unit);
    void drop(const std::string& name) { metrics_.erase(name); }

    void attempt(std::uint64_t n = 1) { attempted_ += n; }
    void fail(const std::string& why);

    /// Free-form context printed on the line before the result (host
    /// calibration, digests, coverage).
    void note(const std::string& key, const std::string& json_value);

    /// Prints the context line and the result line on stdout.
    [[nodiscard]] bool emit(const std::vector<std::pair<std::string, std::string>>& required,
                            const std::string& workload) const;

private:
    std::map<std::string, std::pair<double, std::string>> metrics_;
    std::vector<std::pair<std::string, std::string>> notes_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/// FNV-1a over num_nodes and the sorted edge keys: equal graphs hash equal
/// whatever their edge order.
[[nodiscard]] std::uint64_t graph_digest(const EdgeList& graph);

[[nodiscard]] std::string hex(std::uint64_t v);

/// Output check: simple, the input degree sequence, and (when
/// `expected_digest` is non-zero) the reference digest.  Returns "" when the
/// graph passes, otherwise why it failed.
[[nodiscard]] std::string check_graph(const EdgeList& graph,
                                      const std::vector<std::uint32_t>& input_degrees,
                                      std::uint64_t expected_digest);

/// Digest of the graph the sequential reference chain `algorithm` reaches
/// from `initial` after `supersteps` supersteps under replicate seed `seed`.
[[nodiscard]] std::uint64_t reference_digest(gesmc::ChainAlgorithm algorithm,
                                             const EdgeList& initial, std::uint64_t seed,
                                             double pl, std::uint64_t supersteps);

/// Runs `tasks` on at most `threads` threads and waits for all of them;
/// rethrows the first exception a task threw.
void run_parallel(std::vector<std::function<void()>> tasks, unsigned threads);

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mib();

/// Notes the host calibration: nproc, CPU model, fingerprint and the
/// parallel ceiling measured at nproc threads in this run.
void note_host(Result& result);

// ------------------------------------------------------------- service client

/// One replicate graph streamed back by the daemon.
struct StreamedGraph {
    std::uint64_t replicate = 0;
    std::string bytes;   ///< callers may drop these once checked
    std::uint64_t size = 0;
    double seconds = 0;  ///< 'G' header to the last 'D' chunk
};

/// What a client saw of one submitted job.
struct JobOutcome {
    bool ok = false;          ///< "done" with status "succeeded" and no errors
    std::string error;
    double submit_t = 0;      ///< steady-clock instants
    double accepted_t = 0;
    /// When the first replicate started computing: its 'replicate' frame's
    /// arrival minus its reported seconds.
    double first_start_t = 0;
    double done_t = 0;
    std::vector<gesmc::ReplicateReport> replicates; ///< from the 'replicate' events
    std::vector<StreamedGraph> graphs;
};

/// Submits `config_text` to the daemon at `socket_path` and reads the job's
/// stream until the "done" frame.
[[nodiscard]] JobOutcome run_job(const std::string& socket_path,
                                 const std::string& config_text);

// ------------------------------------------------------------------ workloads

/// gnp-4m-intra and powerlaw-hh-hybrid (batch.cpp).
void run_batch_workload(const Args& args, Result& result);

/// daemon-small-adaptive (daemon.cpp).
void run_daemon_workload(const Args& args, Result& result);

// --------------------------------------------------------------------- replay

/// Per-layer figures of replicates replayed stage by stage (replay.cpp).
struct ReplaySpec {
    PipelineConfig config;             ///< the workload's job config
    std::vector<std::uint64_t> replicates; ///< indices replayed concurrently
    unsigned chain_threads = 1;        ///< T of each replayed chain
    /// Digest each replayed output must reach (from the untraced run),
    /// indexed like `replicates`.
    std::vector<std::uint64_t> expected_digests;
    double gen_seconds = 0;            ///< time of the gen call that made the input
    /// Count a failure when the stages cover < 95% of the pipeline replicate.
    bool gate_coverage = false;
};

/// Replays spec.replicates concurrently and sets the per-layer metrics of
/// the replicate stages and of the hashing/rng probes on `result`.
/// `pipeline_replicate_s` is the traced pipeline's median replicate wall,
/// the denominator of the coverage check.
void replay_and_probe(const ReplaySpec& spec, double pipeline_replicate_s,
                        Result& result);

/// Sets the metrics the traced job reports: service.*, parallel.lease_wait_s,
/// pipeline.occupancy (over `wall` seconds on `threads` threads).
void set_job_layer_metrics(const std::vector<JobOutcome>& jobs, const std::string& trace_json,
                           double wall, unsigned threads, Result& result);

/// The per-layer metric names and units every traced run reports.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// The end-to-end metric names and units every untraced run reports.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();

} // namespace e2e
