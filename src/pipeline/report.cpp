#include "pipeline/report.hpp"

#include "obs/metrics.hpp"
#include "util/check.hpp"

#include <fstream>
#include <ostream>

namespace gesmc {

// -------------------------------------------------------------- RunReport

double RunReport::switches_per_second() const noexcept {
    std::uint64_t attempted = 0;
    for (const ReplicateReport& r : replicates) attempted += r.stats.attempted;
    // Throughput against wall clock, not summed replicate seconds: under the
    // replicate-parallel policy the replicates overlap.
    if (total_seconds <= 0) return 0;
    return static_cast<double>(attempted) / total_seconds;
}

namespace {

void write_stats(JsonWriter& w, const ChainStats& stats) {
    w.begin_object();
    w.kv("supersteps", stats.supersteps);
    w.kv("attempted", stats.attempted);
    w.kv("accepted", stats.accepted);
    w.kv("rejected_loop", stats.rejected_loop);
    w.kv("rejected_edge", stats.rejected_edge);
    w.kv("rounds_total", stats.rounds_total);
    w.kv("rounds_max", stats.rounds_max);
    w.kv("first_round_seconds", stats.first_round_seconds);
    w.kv("later_rounds_seconds", stats.later_rounds_seconds);
    w.end_object();
}

} // namespace

void write_replicate_json(JsonWriter& w, const ReplicateReport& r) {
    w.begin_object();
    w.kv("index", r.index);
    w.kv("seed", r.seed);
    w.kv("seconds", r.seconds);
    if (r.resumed_supersteps > 0) w.kv("resumed_supersteps", r.resumed_supersteps);
    if (!r.output_path.empty()) w.kv("output", r.output_path);
    if (!r.error.empty()) w.kv("error", r.error);
    if (r.has_adaptive) {
        w.kv("realized_supersteps", r.realized_supersteps);
        w.kv("stop_reason", r.stop_reason);
        w.key("mixing");
        w.begin_object();
        w.kv("ess", r.ess);
        w.kv("act_tau", r.act_tau);
        w.kv("non_independent", r.non_independent);
        w.end_object();
    }
    w.key("stats");
    write_stats(w, r.stats);
    if (r.has_metrics) {
        w.key("metrics");
        w.begin_object();
        w.kv("triangles", r.triangles);
        w.kv("global_clustering", r.global_clustering);
        w.kv("assortativity", r.assortativity);
        w.kv("components", r.components);
        w.end_object();
    }
    w.end_object();
}

void write_json_report(std::ostream& os, const RunReport& report) {
    JsonWriter w(os);
    w.begin_object();

    w.key("config");
    w.begin_object();
    w.kv("input", report.config.input_path);
    w.kv("input_kind", to_string(report.config.input_kind));
    if (report.config.input_kind == InputKind::kGenerator) {
        // Echo every generator parameter: the config block must suffice to
        // re-materialize the identical input graph.
        w.kv("generator", report.config.generator);
        if (report.config.generator == "powerlaw") {
            w.kv("gen_n", report.config.gen_n);
            w.kv("gen_gamma", report.config.gen_gamma);
        } else if (report.config.generator == "gnp") {
            w.kv("gen_n", report.config.gen_n);
            w.kv("gen_m", report.config.gen_m);
        } else if (report.config.generator == "grid") {
            w.kv("gen_rows", report.config.gen_rows);
            w.kv("gen_cols", report.config.gen_cols);
        } else if (report.config.generator == "regular") {
            w.kv("gen_n", report.config.gen_n);
            w.kv("gen_degree", static_cast<std::uint64_t>(report.config.gen_degree));
        }
    }
    if (report.config.input_kind == InputKind::kDegreeSequence) {
        w.kv("init", to_string(report.config.init));
    }
    w.kv("algorithm", report.config.algorithm);
    if (report.config.adaptive) {
        w.kv("supersteps", "adaptive");
        w.kv("ess_target", report.config.ess_target);
        w.kv("mixing_tau", report.config.mixing_tau);
        w.kv("min_supersteps", report.config.min_supersteps);
        w.kv("max_supersteps", report.config.max_supersteps);
        w.kv("check_every", report.config.check_every);
    } else {
        w.kv("supersteps", report.config.supersteps);
    }
    w.kv("pl", report.config.pl);
    w.kv("prefetch", report.config.prefetch);
    w.kv("small_cutoff", report.config.small_graph_cutoff);
    w.kv("replicates", report.config.replicates);
    w.kv("seed", report.config.seed);
    w.kv("requested_threads", report.config.threads);
    w.kv("policy", to_string(report.config.policy));
    if (report.config.chain_threads > 0) {
        w.kv("chain_threads", static_cast<std::uint64_t>(report.config.chain_threads));
    }
    if (report.config.max_concurrent > 0) {
        w.kv("max_concurrent", static_cast<std::uint64_t>(report.config.max_concurrent));
    }
    w.kv("output_dir", report.config.output_dir);
    w.kv("output_prefix", report.config.output_prefix);
    w.kv("output_format", to_string(report.config.output_format));
    w.kv("checkpoint_every", report.config.checkpoint_every);
    if (!report.config.resume_from.empty()) w.kv("resume_from", report.config.resume_from);
    if (report.config.keep_checkpoints) w.kv("keep_checkpoints", true);
    w.kv("metrics", report.config.metrics);
    w.kv("verify", report.config.verify);
    w.end_object();

    w.kv("chain", report.chain_name);
    w.kv("resolved_policy", to_string(report.resolved_policy));
    w.kv("threads", report.threads);
    // The (K, T) point the schedule resolved to: K = resolved_max_concurrent
    // replicates at once, T = resolved_chain_threads threads each.
    w.kv("resolved_chain_threads", static_cast<std::uint64_t>(report.chain_threads));
    w.kv("resolved_max_concurrent", static_cast<std::uint64_t>(report.max_concurrent));

    w.key("input_graph");
    w.begin_object();
    w.kv("nodes", report.input_nodes);
    w.kv("edges", report.input_edges);
    w.kv("max_degree", static_cast<std::uint64_t>(report.input_max_degree));
    w.kv("p2", report.input_p2);
    w.end_object();

    w.kv("init_seconds", report.init_seconds);
    w.kv("total_seconds", report.total_seconds);
    w.kv("switches_per_second", report.switches_per_second());

    w.key("replicates");
    w.begin_array();
    for (const ReplicateReport& r : report.replicates) {
        write_replicate_json(w, r);
    }
    w.end_array();

    // Process-wide observability counters ride along when enabled — the
    // same snapshot `gesmc_sample --metrics-out` writes standalone.
    if (obs::metrics_enabled()) {
        w.key("obs_metrics");
        obs::write_metrics_json(w, obs::MetricsRegistry::instance().snapshot());
    }

    w.end_object();
    os << '\n';
}

void write_json_report_file(const std::string& path, const RunReport& report) {
    std::ofstream os(path);
    if (!os.good()) throw Error("cannot open report for writing: " + path);
    write_json_report(os, report);
}

} // namespace gesmc
