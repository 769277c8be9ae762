/// \file gauges.hpp
/// \brief Analysis-layer telemetry: mixing and proxy-metric gauges.
///
/// Bridges the analysis subsystem into the live metrics registry so the
/// telemetry sampler (obs/timeseries.hpp), the daemon's `watch` stream and
/// the Prometheus exposition can surface *statistical* health next to the
/// operational counters:
///
///   * MixingGaugeObserver wraps a pipeline RunObserver and publishes each
///     finished replicate's proxy metrics as gauges.  The mixing signal
///     (the paper's §6.1 non-independent-edge fraction) comes from the
///     adaptive stop rule's own tracker, analysis.ess.non_independent_milli
///     (analysis/ess.hpp); fixed-budget runs take no decision on it and pay
///     for no tracker.
///   * replicate_z_scores / publish_corpus_z_gauges turn one corpus
///     shard's replicate triangle counts into z-scores against the shard's
///     own replicate distribution — the Milo-style "is this sample an
///     outlier among its siblings" signal — and publish the extremes.
///
/// Gauges are last-writer-wins by design: with replicates (or corpus
/// graphs) finishing concurrently, each gauge tracks the most recently
/// completed unit — a live-dashboard signal, not an archival record (the
/// JSON reports remain the archival path).  Fractions travel as fixed-point
/// milli units (value x 1000, rounded) because gauges are integral; signed
/// values (assortativity, z-scores) survive the trip — the JSON and
/// Prometheus emitters both render negative gauges faithfully.
#pragma once

#include "core/chain.hpp"
#include "pipeline/report.hpp"

#include <cstdint>
#include <vector>

namespace gesmc {

/// `value` x 1000 rounded to the nearest integer — the fixed-point spelling
/// fractional analysis results use as gauges.  Non-finite values map to 0.
[[nodiscard]] std::int64_t fixed_point_milli(double value);

/// Per-replicate z-scores of the triangle count against the report's own
/// replicate distribution (population stddev).  One entry per replicate,
/// aligned with report.replicates; entries without metrics — and every
/// entry when fewer than two replicates have metrics or the spread is
/// degenerate — are 0.
[[nodiscard]] std::vector<double> replicate_z_scores(const RunReport& report);

/// Publishes one finished shard's replicate z-score extremes as gauges
/// (analysis.corpus.z_replicates, analysis.corpus.max_abs_z_milli,
/// analysis.corpus.last_z_milli).  No-op when metrics are disabled or the
/// report carries no structural metrics.
void publish_corpus_z_gauges(const RunReport& report);

/// RunObserver decorator publishing per-replicate proxy metrics.
///
/// Forwards every callback to `inner` (may be null) unchanged.  When a
/// replicate finishes without error and with structural metrics, it sets
///
///   analysis.replicate.triangles            last finished replicate's
///   analysis.replicate.clustering_milli     proxy metrics
///   analysis.replicate.assortativity_milli
///
/// Gauge stores are atomic, so concurrent replicates need no lock.
class MixingGaugeObserver final : public RunObserver {
public:
    /// The replicate and superstep counts are not read; the signature is
    /// kept for existing callers.
    MixingGaugeObserver(std::uint64_t replicates, std::uint64_t supersteps,
                        RunObserver* inner);

    void on_superstep(std::uint64_t replicate, const Chain& chain) override;
    void on_checkpoint(std::uint64_t replicate, const ChainState& state,
                       const std::string& path) override;
    void on_replicate_done(const ReplicateReport& report) override;

private:
    RunObserver* inner_;
};

} // namespace gesmc
