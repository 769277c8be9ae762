/// \file replay.cpp
/// \brief Stage-by-stage replay of replicates through the layers' public
/// calls, plus direct probes of the rng and hashing layers.
///
/// One replayed replicate runs exactly what a pipeline replicate runs, in
/// the same order, each stage timed and wrapped in a "bench" trace span:
/// make_chain, run_checkpointed / run_adaptive_checkpointed (with the
/// analysis observers the pipeline would attach, timed inside the observer
/// callback), EdgeList::is_simple/degrees, write_edge_list_*_file,
/// Adjacency plus the graph/metrics functions, and the chain's teardown.
/// The replayed output must hash to the digest of the untraced run.  The
/// probes then drive sample_global_switch, ConcurrentEdgeSet and
/// DependencyTable directly on one real batch of replicate 0.
#include "bench.hpp"

#include "analysis/ess.hpp"
#include "analysis/gauges.hpp"
#include "core/edge_switch.hpp"
#include "core/seq_global_es.hpp"
#include "gen/havel_hakimi.hpp"
#include "graph/adjacency.hpp"
#include "graph/io.hpp"
#include "graph/metrics.hpp"
#include "hashing/concurrent_edge_set.hpp"
#include "hashing/dependency_table.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/seeds.hpp"
#include "service/frame.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>

namespace e2e {

using namespace gesmc;

namespace {

/// Stage seconds of one replayed replicate.
struct StageTimes {
    double construct = 0;
    double superstep = 0;
    double observe = 0;
    double checkpoint = 0;      ///< the replicate's own checkpoints
    double checkpoint_probe = 0;///< one final-state write when the job has none
    double verify = 0;
    double write = 0;
    double write_bytes = 0;
    double adjacency = 0;
    double triangles = 0;
    double metrics_other = 0;
    double teardown = 0;        ///< destroying the chain (unnamed in the stage list)
    double wall = 0;            ///< make_chain to chain teardown
    ChainStats stats;
    std::uint64_t digest = 0;
    bool verified = false;
    std::vector<edge_key_t> after_first; ///< keys after superstep 1 (probe input)

    [[nodiscard]] double stage_sum() const {
        return construct + superstep + observe + checkpoint + verify + write + adjacency +
               triangles + metrics_other;
    }
};

/// Feeds the analysis observers the pipeline would attach and times them;
/// optionally keeps the edge keys after superstep 1 for the hashing probe.
class StageObserver final : public RunObserver {
public:
    StageObserver(RunObserver* mixing, EssEstimator* ess, std::vector<edge_key_t>* keep_first)
        : mixing_(mixing), ess_(ess), keep_first_(keep_first) {}

    void on_superstep(std::uint64_t replicate, const Chain& chain) override {
        double t = now_s();
        {
            const obs::TraceSpan span("analysis.observe", "bench");
            if (ess_ != nullptr) ess_->observe(chain);
            if (mixing_ != nullptr) mixing_->on_superstep(replicate, chain);
        }
        observe += now_s() - t;
        if (keep_first_ != nullptr && chain.stats().supersteps == 1) {
            t = now_s();
            *keep_first_ = chain.graph().keys();
            excluded += now_s() - t;
        }
    }

    double observe = 0;
    double excluded = 0; ///< bench-only work inside the callbacks

private:
    RunObserver* mixing_;
    EssEstimator* ess_;
    std::vector<edge_key_t>* keep_first_;
};

StageTimes replay_one(const PipelineConfig& config, const EdgeList& initial,
                      const std::vector<std::uint32_t>& degrees, std::uint64_t index,
                      unsigned threads, RunObserver* mixing, bool keep_first) {
    StageTimes st;
    double excluded = 0;
    const double start = now_s();
    const ChainAlgorithm algo = chain_algorithm_from_string(config.algorithm);
    ChainConfig cc;
    cc.seed = replicate_seed(config.seed, index);
    cc.threads = threads;
    cc.pl = config.pl;
    cc.prefetch = config.prefetch;
    cc.small_graph_cutoff = config.small_graph_cutoff;
    cc.edge_set_backend = config.edge_set_backend;

    double t = now_s();
    std::unique_ptr<Chain> chain;
    {
        const obs::TraceSpan span("core.construct", "bench");
        chain = make_chain(algo, initial, cc);
    }
    st.construct = now_s() - t;

    std::optional<EssEstimator> estimator;
    AdaptiveStopConfig stop;
    stop.ess_target = config.ess_target;
    stop.mixing_tau = config.mixing_tau;
    stop.min_supersteps = config.min_supersteps;
    stop.max_supersteps = config.max_supersteps;
    stop.check_every = config.check_every;
    if (config.adaptive) {
        t = now_s();
        estimator.emplace(*chain, stop, adaptive_max_thinning(config.max_supersteps));
        st.observe += now_s() - t;
    }
    StageObserver observer(mixing, estimator ? &*estimator : nullptr,
                           keep_first ? &st.after_first : nullptr);

    const std::filesystem::path dir(config.output_dir);
    const std::string stem = "replicate_" + std::to_string(index);
    const std::string checkpoint_path = (dir / (stem + ".gesc")).string();
    const auto boundary = [&] {
        if (config.checkpoint_every == 0) return;
        const double c = now_s();
        {
            const obs::TraceSpan span("graph.checkpoint", "bench");
            write_chain_state_file_atomic(checkpoint_path, chain->snapshot());
            if (estimator) {
                std::ofstream os(checkpoint_path + ".gesa", std::ios::binary);
                estimator->save(os);
            }
        }
        st.checkpoint += now_s() - c;
    };
    t = now_s();
    if (config.adaptive) {
        run_adaptive_checkpointed(*chain, config.max_supersteps, config.min_supersteps,
                                  config.check_every, config.checkpoint_every, &observer,
                                  index, [&] { return estimator->stopped(); }, boundary);
    } else {
        run_checkpointed(*chain, config.supersteps, config.checkpoint_every, &observer, index,
                         boundary);
    }
    st.superstep = now_s() - t - st.checkpoint - observer.observe - observer.excluded;
    st.observe += observer.observe;
    excluded += observer.excluded;
    st.stats = chain->stats();

    const EdgeList& g = chain->graph();
    t = now_s();
    {
        const obs::TraceSpan span("graph.verify", "bench");
        st.verified = g.is_simple() && g.degrees() == degrees;
    }
    st.verify = now_s() - t;

    const bool binary = config.output_format == OutputFormat::kBinary;
    const std::string out_path = (dir / (stem + (binary ? ".gesb" : ".txt"))).string();
    t = now_s();
    {
        const obs::TraceSpan span("graph.write", "bench");
        if (binary) {
            write_edge_list_binary_file(out_path, g);
        } else {
            write_edge_list_file(out_path, g);
        }
    }
    st.write = now_s() - t;
    st.write_bytes = static_cast<double>(std::filesystem::file_size(out_path));

    if (config.metrics) {
        const obs::TraceSpan span("graph.metrics", "bench");
        t = now_s();
        std::optional<Adjacency> adj;
        adj.emplace(g);
        st.adjacency = now_s() - t;
        t = now_s();
        (void)triangle_count(*adj);
        st.triangles = now_s() - t;
        t = now_s();
        (void)global_clustering(*adj);
        (void)degree_assortativity(g);
        (void)connected_components(*adj);
        adj.reset();
        st.metrics_other = now_s() - t;
    }

    t = now_s();
    st.digest = graph_digest(g);
    if (config.checkpoint_every == 0) {
        // The job writes no checkpoints; time one of its final state so the
        // checkpoint IO layer is measured on every workload.
        const double c = now_s();
        write_chain_state_file_atomic(checkpoint_path, chain->snapshot());
        st.checkpoint_probe = now_s() - c;
    }
    excluded += now_s() - t;
    t = now_s();
    {
        const obs::TraceSpan span("core.teardown", "bench");
        chain.reset();
    }
    st.teardown = now_s() - t;
    st.wall = now_s() - start - excluded;
    return st;
}

struct ProbeTimes {
    double sample = 0;        ///< every superstep's batch
    double fill = 0;
    double register_s = 0;
    double contains_mops = 0;
    double apply_mops = 0;
    double deptable_bytes = 0;
};

/// Drives rng and hashing directly on replicate 0's real batches.
ProbeTimes probe_layers(const PipelineConfig& config, const EdgeList& initial,
                        const std::vector<edge_key_t>& after_first, std::uint64_t supersteps,
                        unsigned threads) {
    ProbeTimes p;
    ThreadPool pool(threads);
    const std::uint64_t m = initial.num_edges();
    const std::uint64_t seed = replicate_seed(config.seed, 0);
    const std::vector<edge_key_t>& keys = initial.keys();

    std::vector<Switch> batch, first;
    std::vector<std::uint32_t> perm;
    {
        const obs::TraceSpan span("rng.sample", "bench");
        for (std::uint64_t g = 0; g < supersteps; ++g) {
            const double t = now_s();
            (void)sample_global_switch(batch, perm, m, seed, g, config.pl, pool);
            p.sample += now_s() - t;
            if (g == 0) first = batch;
        }
    }
    const std::uint64_t l = first.size();

    ConcurrentEdgeSet set(m, config.edge_set_backend);
    double t = now_s();
    {
        const obs::TraceSpan span("hashing.edgeset.fill", "bench");
        for (const edge_key_t k : keys) set.insert_unique(k);
    }
    p.fill = now_s() - t;

    // Phase A of the superstep: targets plus dependency registration.
    DependencyTable table(m / 2);
    p.deptable_bytes = static_cast<double>(table.bucket_count()) * 32.0 +
                       static_cast<double>(m) * 4.0; // slots + 2 arena links per switch
    std::vector<edge_key_t> targets(2 * l);
    t = now_s();
    {
        const obs::TraceSpan span("hashing.deptable.register", "bench");
        table.begin_superstep(l, pool);
        pool.for_chunks(0, l, [&](unsigned tid, std::uint64_t lo, std::uint64_t hi) {
            for (std::uint64_t k = lo; k < hi; ++k) {
                const Switch sw = first[k];
                const edge_key_t k1 = keys[sw.i];
                const edge_key_t k2 = keys[sw.j];
                const auto [t3, t4] =
                    switch_targets(edge_from_key(k1), edge_from_key(k2), sw.g != 0);
                const auto idx = static_cast<std::uint32_t>(k);
                targets[2 * k] = edge_key(t3);
                targets[2 * k + 1] = edge_key(t4);
                table.register_erase(k1, idx, tid);
                table.register_erase(k2, idx, tid);
                if (!t3.is_loop()) table.register_insert(targets[2 * k], idx, 0, tid);
                if (!t4.is_loop()) table.register_insert(targets[2 * k + 1], idx, 1, tid);
            }
        });
    }
    p.register_s = now_s() - t;

    std::vector<std::uint64_t> hits(threads, 0); // keeps the lookups' results live
    t = now_s();
    {
        const obs::TraceSpan span("hashing.edgeset.contains", "bench");
        pool.for_chunks(0, targets.size(), [&](unsigned tid, std::uint64_t lo, std::uint64_t hi) {
            std::uint64_t h = 0;
            for (std::uint64_t i = lo; i < hi; ++i) h += set.contains(targets[i]) ? 1 : 0;
            hits[tid] += h;
        });
    }
    p.contains_mops = static_cast<double>(targets.size()) / (now_s() - t) / 1e6;

    // The batch's edge-set delta: keys erased and inserted by superstep 1.
    std::vector<edge_key_t> before = keys, after = after_first, erased, inserted;
    std::sort(before.begin(), before.end());
    std::sort(after.begin(), after.end());
    std::set_difference(before.begin(), before.end(), after.begin(), after.end(),
                        std::back_inserter(erased));
    std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                        std::back_inserter(inserted));
    t = now_s();
    {
        const obs::TraceSpan span("hashing.edgeset.apply", "bench");
        pool.for_chunks(0, erased.size(), [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
            for (std::uint64_t i = lo; i < hi; ++i) (void)set.erase_unique(erased[i]);
        });
        pool.for_chunks(0, inserted.size(), [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
            for (std::uint64_t i = lo; i < hi; ++i) (void)set.insert_unique(inserted[i]);
        });
    }
    p.apply_mops =
        static_cast<double>(erased.size() + inserted.size()) / (now_s() - t) / 1e6;
    return p;
}

/// Sum of the durations (seconds) of every span named `name` in a Chrome
/// trace document, and their count.
std::pair<double, std::uint64_t> span_total(const std::string& trace_json,
                                            const std::string& name) {
    const std::string needle = "{\"name\": " + json_quote(name) + ",";
    double total_us = 0;
    std::uint64_t count = 0;
    for (std::size_t at = trace_json.find(needle); at != std::string::npos;
         at = trace_json.find(needle, at + 1)) {
        const std::size_t dur = trace_json.find("\"dur\": ", at);
        if (dur == std::string::npos) break;
        total_us += std::strtod(trace_json.c_str() + dur + 7, nullptr);
        ++count;
    }
    return {total_us * 1e-6, count};
}

template <typename F>
double median_of(const std::vector<StageTimes>& all, F field) {
    std::vector<double> v;
    for (const StageTimes& st : all) v.push_back(field(st));
    return median(v);
}

} // namespace

void replay_and_probe(const ReplaySpec& spec, double pipeline_replicate_s, Result& result) {
    const PipelineConfig& config = spec.config;
    std::filesystem::create_directories(config.output_dir);

    // materialize_input, split into its read and gen parts.
    EdgeList initial;
    double t = now_s();
    double realize = spec.gen_seconds;
    if (config.input_kind == InputKind::kDegreeSequence) {
        DegreeSequence seq;
        {
            const obs::TraceSpan span("graph.read", "bench");
            seq = read_degree_sequence_file(single_input_path(config));
        }
        result.set("graph.read_s", now_s() - t, "s");
        t = now_s();
        {
            const obs::TraceSpan span("gen.realize", "bench");
            initial = havel_hakimi(seq);
        }
        realize = now_s() - t;
    } else {
        {
            const obs::TraceSpan span("graph.read", "bench");
            initial = read_any_edge_list_file(single_input_path(config));
        }
        result.set("graph.read_s", now_s() - t, "s");
    }
    result.set("gen.realize_s", realize, "s");
    result.attempt();
    if (graph_digest(initial) != graph_digest(materialize_input(config))) {
        result.fail("replayed input differs from materialize_input");
    }
    const std::vector<std::uint32_t> degrees = initial.degrees();

    // The analysis observer the pipeline attaches when metrics and the
    // registry are both on.
    const std::uint64_t target =
        config.adaptive ? config.max_supersteps : config.supersteps;
    std::optional<MixingGaugeObserver> mixing;
    if (config.metrics && obs::metrics_enabled()) {
        mixing.emplace(config.replicates, target, nullptr);
    }

    std::vector<StageTimes> all(spec.replicates.size());
    std::vector<std::function<void()>> replays;
    for (std::size_t i = 0; i < spec.replicates.size(); ++i) {
        replays.emplace_back([&, i] {
            all[i] = replay_one(config, initial, degrees, spec.replicates[i],
                                spec.chain_threads, mixing ? &*mixing : nullptr, i == 0);
        });
    }
    run_parallel(std::move(replays), static_cast<unsigned>(spec.replicates.size()));
    for (std::size_t i = 0; i < all.size(); ++i) {
        result.attempt();
        if (!all[i].verified) {
            result.fail("replayed replicate " + std::to_string(spec.replicates[i]) +
                        " is not simple or changed the degree sequence");
        } else if (all[i].digest != spec.expected_digests[i]) {
            result.fail("replayed replicate " + std::to_string(spec.replicates[i]) +
                        " digest " + hex(all[i].digest) + " != untraced " +
                        hex(spec.expected_digests[i]));
        }
    }

    const StageTimes& r0 = all.front();
    const ProbeTimes p = probe_layers(config, initial, r0.after_first, r0.stats.supersteps,
                                      spec.chain_threads);

    const ChainStats& stats = r0.stats;
    const double supersteps = static_cast<double>(std::max<std::uint64_t>(1, stats.supersteps));
    result.set("core.construct_s", median_of(all, [](auto& s) { return s.construct; }), "s");
    result.set("hashing.edgeset.fill_s", p.fill, "s");
    result.set("core.superstep_s", r0.superstep, "s");
    result.set("core.switches_per_s", static_cast<double>(stats.attempted) / r0.superstep,
               "1/s");
    result.set("rng.sample_s", p.sample, "s");
    result.set("core.first_round_s", stats.first_round_seconds, "s");
    // A share, not seconds: uniform-degree graphs often finish every
    // superstep in one round, and a time that is exactly 0 says nothing.
    result.set("core.later_rounds_share",
               stats.later_rounds_seconds /
                   (stats.first_round_seconds + stats.later_rounds_seconds),
               "ratio");
    result.set("core.rounds_per_superstep", static_cast<double>(stats.rounds_total) / supersteps,
               "count");
    result.set("core.superstep_rest_s",
               r0.superstep - p.sample - stats.first_round_seconds - stats.later_rounds_seconds,
               "s");
    result.set("hashing.deptable.register_s", p.register_s, "s");
    result.set("hashing.edgeset.apply_mops", p.apply_mops, "Mops/s");
    result.set("hashing.edgeset.contains_mops", p.contains_mops, "Mops/s");
    result.set("hashing.deptable.bytes", p.deptable_bytes, "B");
    result.set("core.accept_ratio",
               static_cast<double>(stats.accepted) / static_cast<double>(stats.attempted),
               "ratio");
    result.set("graph.verify_s", median_of(all, [](auto& s) { return s.verify; }), "s");
    result.set("graph.adjacency_s", median_of(all, [](auto& s) { return s.adjacency; }), "s");
    result.set("graph.triangles_s", median_of(all, [](auto& s) { return s.triangles; }), "s");
    result.set("graph.metrics_other_s",
               median_of(all, [](auto& s) { return s.metrics_other; }), "s");
    const double write_s = median_of(all, [](auto& s) { return s.write; });
    result.set("graph.write_s", write_s, "s");
    result.set("graph.write_mb_per_s", r0.write_bytes / r0.write / 1e6, "MB/s");
    result.set("graph.checkpoint_s",
               median_of(all, [](auto& s) { return s.checkpoint + s.checkpoint_probe; }), "s");
    result.set("analysis.observe_s", median_of(all, [](auto& s) { return s.observe; }), "s");
    result.set("analysis.realized_supersteps", static_cast<double>(stats.supersteps), "count");
    const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::instance().snapshot();
    double autocorr_bytes = 0;
    for (const auto& [name, value] : snapshot.gauges) {
        if (name == "analysis.autocorr.bytes") autocorr_bytes = static_cast<double>(value);
    }
    result.set("analysis.autocorr_bytes", autocorr_bytes, "B");

    // Coverage.  The gate compares the named stages with the replayed
    // replicate's own wall: both come from the same run, so host noise
    // cannot fail it.  The comparison with the traced pipeline's replicate
    // (another run) is reported, not gated.
    const double stages = median_of(all, [](auto& s) { return s.stage_sum(); });
    const double replay_wall = median_of(all, [](auto& s) { return s.wall; });
    const double teardown = median_of(all, [](auto& s) { return s.teardown; });
    result.set("pipeline.coverage", stages / pipeline_replicate_s, "ratio");
    result.set("pipeline.unattributed_s", pipeline_replicate_s - stages, "s");
    const double coverage = stages / replay_wall;
    const double glue = replay_wall - stages - teardown;
    const std::string largest_gap = teardown >= glue ? "core.teardown" : "glue between stages";
    result.note("coverage", "{\"stages_s\": " + std::to_string(stages) +
                                ", \"replay_wall_s\": " + std::to_string(replay_wall) +
                                ", \"replay_coverage\": " + std::to_string(coverage) +
                                ", \"pipeline_replicate_s\": " +
                                std::to_string(pipeline_replicate_s) +
                                ", \"largest_gap\": \"" + largest_gap + "\", \"gap_s\": " +
                                std::to_string(std::max(teardown, glue)) + "}");
    if (spec.gate_coverage) {
        result.attempt();
        if (coverage < 0.95) {
            result.fail("named stages cover " + std::to_string(coverage) +
                        " of the replicate wall (< 0.95); largest gap: " + largest_gap);
        }
    }
}

void set_job_layer_metrics(const std::vector<JobOutcome>& jobs, const std::string& trace_json,
                           double wall, unsigned threads, Result& result) {
    std::vector<double> admission, queue, stream;
    double bytes = 0, stream_total = 0, compute = 0;
    std::uint64_t replicates = 0;
    for (const JobOutcome& job : jobs) {
        admission.push_back(job.accepted_t - job.submit_t);
        queue.push_back(job.first_start_t - job.accepted_t);
        for (const StreamedGraph& g : job.graphs) {
            stream.push_back(g.seconds);
            bytes += static_cast<double>(g.size);
            stream_total += g.seconds;
        }
        for (const ReplicateReport& r : job.replicates) compute += r.seconds;
        replicates += job.replicates.size();
    }
    result.set("service.admission_s", median(admission), "s");
    result.set("service.queue_s", median(queue), "s");
    result.set("service.stream_s", median(stream), "s");
    result.set("service.stream_mb_per_s", bytes / stream_total / 1e6, "MB/s");
    const auto [lease_wait, leases] = span_total(trace_json, "lease.wait");
    result.set("parallel.lease_wait_s",
               lease_wait / static_cast<double>(std::max<std::uint64_t>(1, replicates)), "s");
    result.note("lease_waits", std::to_string(leases));
    result.set("pipeline.occupancy", compute / (static_cast<double>(threads) * wall), "ratio");
}

} // namespace e2e
