#include "analysis/gauges.hpp"

#include "obs/metrics.hpp"

#include <cmath>

namespace gesmc {

std::int64_t fixed_point_milli(double value) {
    if (!std::isfinite(value)) return 0;
    return static_cast<std::int64_t>(std::llround(value * 1000.0));
}

std::vector<double> replicate_z_scores(const RunReport& report) {
    std::vector<double> z(report.replicates.size(), 0.0);
    double sum = 0, count = 0;
    for (const ReplicateReport& r : report.replicates) {
        if (!r.has_metrics || !r.error.empty()) continue;
        sum += static_cast<double>(r.triangles);
        count += 1;
    }
    if (count < 2) return z;
    const double mean = sum / count;
    double var = 0;
    for (const ReplicateReport& r : report.replicates) {
        if (!r.has_metrics || !r.error.empty()) continue;
        const double d = static_cast<double>(r.triangles) - mean;
        var += d * d;
    }
    const double stddev = std::sqrt(var / count);
    if (stddev <= 0) return z;
    for (std::size_t i = 0; i < report.replicates.size(); ++i) {
        const ReplicateReport& r = report.replicates[i];
        if (!r.has_metrics || !r.error.empty()) continue;
        z[i] = (static_cast<double>(r.triangles) - mean) / stddev;
    }
    return z;
}

void publish_corpus_z_gauges(const RunReport& report) {
    if (!obs::metrics_enabled()) return;
    const std::vector<double> z = replicate_z_scores(report);
    double max_abs = 0, last = 0;
    std::uint64_t scored = 0;
    for (std::size_t i = 0; i < z.size(); ++i) {
        if (!report.replicates[i].has_metrics || !report.replicates[i].error.empty()) {
            continue;
        }
        ++scored;
        last = z[i];
        if (std::fabs(z[i]) > std::fabs(max_abs)) max_abs = z[i];
    }
    if (scored == 0) return;
    struct ZGauges {
        obs::Gauge& replicates =
            obs::MetricsRegistry::instance().gauge("analysis.corpus.z_replicates");
        obs::Gauge& max_abs =
            obs::MetricsRegistry::instance().gauge("analysis.corpus.max_abs_z_milli");
        obs::Gauge& last =
            obs::MetricsRegistry::instance().gauge("analysis.corpus.last_z_milli");
    };
    static ZGauges& gauges = *new ZGauges();
    gauges.replicates.set(static_cast<std::int64_t>(scored));
    gauges.max_abs.set(fixed_point_milli(max_abs));
    gauges.last.set(fixed_point_milli(last));
}

MixingGaugeObserver::MixingGaugeObserver(std::uint64_t /*replicates*/,
                                         std::uint64_t /*supersteps*/,
                                         RunObserver* inner)
    : inner_(inner) {}

void MixingGaugeObserver::on_superstep(std::uint64_t replicate, const Chain& chain) {
    if (inner_ != nullptr) inner_->on_superstep(replicate, chain);
}

void MixingGaugeObserver::on_checkpoint(std::uint64_t replicate,
                                        const ChainState& state,
                                        const std::string& path) {
    if (inner_ != nullptr) inner_->on_checkpoint(replicate, state, path);
}

void MixingGaugeObserver::on_replicate_done(const ReplicateReport& report) {
    if (report.error.empty() && report.has_metrics && obs::metrics_enabled()) {
        struct ReplicateGauges {
            obs::Gauge& triangles = obs::MetricsRegistry::instance().gauge(
                "analysis.replicate.triangles");
            obs::Gauge& clustering = obs::MetricsRegistry::instance().gauge(
                "analysis.replicate.clustering_milli");
            obs::Gauge& assortativity = obs::MetricsRegistry::instance().gauge(
                "analysis.replicate.assortativity_milli");
        };
        static ReplicateGauges& gauges = *new ReplicateGauges();
        gauges.triangles.set(static_cast<std::int64_t>(report.triangles));
        gauges.clustering.set(fixed_point_milli(report.global_clustering));
        gauges.assortativity.set(fixed_point_milli(report.assortativity));
    }
    if (inner_ != nullptr) inner_->on_replicate_done(report);
}

} // namespace gesmc
