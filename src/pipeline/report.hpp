/// \file report.hpp
/// \brief Machine-readable JSON run reports for batch sampling runs.
///
/// Every pipeline run can emit one JSON document describing the input, the
/// effective configuration, and per-replicate results (timings, ChainStats
/// counters, structural metrics).  Downstream null-model analyses consume
/// the report instead of re-deriving statistics from the output graphs.
#pragma once

#include "core/chain.hpp"
#include "pipeline/config.hpp"
#include "util/json_writer.hpp"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace gesmc {

/// Outcome of one replicate.
struct ReplicateReport {
    std::uint64_t index = 0;
    std::uint64_t seed = 0;
    double seconds = 0;        ///< chain construction + supersteps + output
    ChainStats stats;
    std::string output_path;   ///< empty when graphs are not written
    std::string error;         ///< empty on success

    /// Supersteps restored from a checkpoint instead of being re-run
    /// (equals the configured supersteps when the replicate was skipped as
    /// already finished); 0 on a fresh run.
    std::uint64_t resumed_supersteps = 0;

    bool has_metrics = false;  ///< structural metrics were computed
    std::uint64_t triangles = 0;
    double global_clustering = 0;
    double assortativity = 0;
    std::uint64_t components = 0;

    // Adaptive mode (supersteps = adaptive, docs/adaptive.md).  Emitted in
    // the JSON only when has_adaptive is set, so fixed-budget reports are
    // byte-identical to pre-adaptive ones.
    bool has_adaptive = false;
    std::uint64_t realized_supersteps = 0; ///< where the replicate stopped
    std::string stop_reason;               ///< "ess-target" | "max-supersteps"
    double ess = 0;                        ///< final ESS estimate
    double act_tau = 0;                    ///< final AR(1) autocorrelation time
    double non_independent = 0;            ///< final G2/BIC non-indep. fraction
};

/// Everything the JSON report records about a run.
struct RunReport {
    PipelineConfig config;      ///< effective configuration
    std::string chain_name;     ///< e.g. "ParGlobalES"
    SchedulePolicy resolved_policy = SchedulePolicy::kAuto;
    unsigned threads = 1;       ///< thread budget P the run resolved against
    unsigned chain_threads = 1; ///< resolved T: threads leased per chain
    unsigned max_concurrent = 1;///< resolved K: replicates computing at once

    std::uint64_t input_nodes = 0;
    std::uint64_t input_edges = 0;
    std::uint32_t input_max_degree = 0;
    double input_p2 = 0;        ///< paper Theorem 3 round-bound statistic

    double init_seconds = 0;    ///< input load + initial graph materialization
    double total_seconds = 0;   ///< whole run wall clock
    std::vector<ReplicateReport> replicates;

    /// Attempted switches per second summed over replicates (throughput).
    [[nodiscard]] double switches_per_second() const noexcept;
};

/// Serializes the report as a self-contained JSON document.
void write_json_report(std::ostream& os, const RunReport& report);
void write_json_report_file(const std::string& path, const RunReport& report);

/// Emits one replicate as a JSON object through `w` — the fragment the full
/// report embeds per replicate, and what the sampling service streams over
/// the wire as each replicate finishes (docs/service_protocol.md).
void write_replicate_json(JsonWriter& w, const ReplicateReport& r);

} // namespace gesmc
