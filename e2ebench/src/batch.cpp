/// \file batch.cpp
/// \brief The batch workloads: gnp-4m-intra and powerlaw-hh-hybrid.
///
/// Untraced, one iteration is one run_pipeline call of the workload's job
/// plus the same replicate on single-thread seq-es; iterations repeat until
/// the measured time would pass --seconds.  Every output file is read back
/// and checked, and after the window each replicate's digest is compared
/// with the sequential reference chain (seq-global-es for par-global-es,
/// seq-es for the baseline).  Traced, the job runs once untraced, once
/// through an in-process ServiceServer with TraceSession and MetricsRegistry
/// on, and its replicates are replayed stage by stage (replay.cpp).
#include "bench.hpp"

#include "gen/gnp.hpp"
#include "gen/powerlaw.hpp"
#include "graph/io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/seeds.hpp"
#include "service/frame.hpp"
#include "service/server.hpp"
#include "service/socket.hpp"

#include <filesystem>
#include <functional>
#include <map>
#include <sstream>
#include <thread>

namespace e2e {

using namespace gesmc;

namespace {

struct BatchSpec {
    bool degrees_input = false; ///< power-law degree file realized by Havel–Hakimi
    node_t n = 0;
    std::uint64_t m = 0;        ///< G(n,p) target edge count
    double gamma = 2.1;
    std::uint64_t supersteps = 0;
    std::uint64_t replicates = 1;
    std::uint64_t checkpoint_every = 0;
    std::string policy;
    unsigned chain_threads = 0;
};

BatchSpec batch_spec(const Args& args) {
    BatchSpec s;
    if (args.workload == "gnp-4m-intra") {
        s.n = args.toy ? 4'000 : 400'000;
        s.m = args.toy ? 40'000 : 4'000'000;
        s.supersteps = 5;
        s.policy = "intra-chain";
    } else {
        s.degrees_input = true;
        s.n = args.toy ? 5'000 : 200'000;
        s.supersteps = 4;
        s.replicates = 4;
        s.checkpoint_every = 2;
        s.policy = "hybrid";
        s.chain_threads = 2;
    }
    return s;
}

std::string job_text(const BatchSpec& s, const std::string& input, const std::string& out_dir,
                     std::uint64_t seed, bool seq_baseline) {
    std::ostringstream os;
    os << "input = " << input << "\n"
       << "input-kind = " << (s.degrees_input ? "degrees" : "edges") << "\n"
       << "init = havel-hakimi\n"
       << "algorithm = " << (seq_baseline ? "seq-es" : "par-global-es") << "\n"
       << "supersteps = " << s.supersteps << "\n"
       << "replicates = " << (seq_baseline ? 1 : s.replicates) << "\n"
       << "seed = " << seed << "\n"
       << "threads = " << (seq_baseline ? 1 : hardware_threads()) << "\n"
       << "policy = " << (seq_baseline ? "intra-chain" : s.policy) << "\n";
    if (!seq_baseline && s.chain_threads > 0) os << "chain-threads = " << s.chain_threads << "\n";
    if (s.checkpoint_every > 0) os << "checkpoint-every = " << s.checkpoint_every << "\n";
    os << "output-dir = " << out_dir << "\n"
       << "output-format = binary\n"
       << "metrics = true\n";
    return os.str();
}

/// Seed of the power-law degree sequence.  A gamma = 2.1 tail is so heavy
/// that the sequence drawn, and even the node order Havel-Hakimi breaks
/// ties by, move the replicate cost by 20-50% from seed to seed (the hub
/// clique the realization builds survives 4 supersteps and dominates the
/// triangle count).  So the degree file is the same for every seed; the
/// workload seed drives the chains.
constexpr std::uint64_t kDegreeSequenceSeed = 2022;

/// Writes the workload input; returns the seconds the gen call took (the
/// G(n,p) generator; the power-law case's realization is timed in replay).
double write_input(const BatchSpec& s, std::uint64_t seed, const std::string& path) {
    const double t = now_s();
    if (s.degrees_input) {
        write_degree_sequence_file(path,
                                   sample_powerlaw_degrees(s.n, s.gamma, kDegreeSequenceSeed));
        return now_s() - t;
    }
    const EdgeList g = generate_gnp(s.n, gnp_probability_for_edges(s.n, s.m), seed);
    const double gen_s = now_s() - t;
    write_edge_list_binary_file(path, g);
    return gen_s;
}

/// Reads back and checks every replicate output of `report`, appending each
/// digest to digests[index].  Checks against the reference come later.
void check_outputs(const RunReport& report, const std::vector<std::uint32_t>& degrees,
                   std::map<std::uint64_t, std::vector<std::uint64_t>>& digests,
                   Result& result) {
    for (const ReplicateReport& r : report.replicates) {
        result.attempt();
        if (!r.error.empty()) {
            result.fail("replicate " + std::to_string(r.index) + ": " + r.error);
            continue;
        }
        const EdgeList g = read_any_edge_list_file(r.output_path);
        const std::string why = check_graph(g, degrees, 0);
        if (!why.empty()) {
            result.fail("replicate " + std::to_string(r.index) + ": " + why);
            continue;
        }
        digests[r.index].push_back(graph_digest(g));
    }
}

/// Compares every recorded digest with the reference chain's; returns how
/// many matched.
std::uint64_t match_references(const std::map<std::uint64_t, std::vector<std::uint64_t>>& digests,
                               const std::map<std::uint64_t, std::uint64_t>& refs,
                               const std::string& label, Result& result) {
    std::uint64_t ok = 0;
    for (const auto& [index, list] : digests) {
        for (const std::uint64_t d : list) {
            if (d == refs.at(index)) {
                ++ok;
            } else {
                result.fail(label + " replicate " + std::to_string(index) + " digest " +
                            hex(d) + " != reference " + hex(refs.at(index)));
            }
        }
    }
    return ok;
}

std::string digests_note(const std::map<std::uint64_t, std::uint64_t>& refs) {
    std::string out = "[";
    for (const auto& [index, d] : refs) {
        if (out.size() > 1) out += ", ";
        out += json_quote(hex(d));
    }
    return out + "]";
}

void run_untraced(const Args& args, const BatchSpec& s, const std::string& input,
                  Result& result) {
    const PipelineConfig par =
        read_pipeline_config_string(job_text(s, input, args.workdir + "/par", args.seed, false));
    const PipelineConfig seq =
        read_pipeline_config_string(job_text(s, input, args.workdir + "/seq", args.seed, true));

    // Set-up: input read plus initial-graph realization, several times.
    std::vector<double> setup;
    EdgeList initial;
    for (int i = 0; i < 5; ++i) {
        const double t = now_s();
        initial = materialize_input(par);
        setup.push_back(now_s() - t);
    }
    const std::vector<std::uint32_t> degrees = initial.degrees();

    std::vector<double> job_walls, par_replicates, seq_replicates;
    std::map<std::uint64_t, std::vector<std::uint64_t>> par_digests, seq_digests;
    double measured = 0;
    for (;;) {
        double t = now_s();
        const RunReport rp = run_pipeline(par);
        const double par_wall = now_s() - t;
        t = now_s();
        const RunReport rs = run_pipeline(seq);
        const double seq_wall = now_s() - t;

        job_walls.push_back(par_wall);
        setup.push_back(rp.init_seconds);
        setup.push_back(rs.init_seconds);
        for (const ReplicateReport& r : rp.replicates) par_replicates.push_back(r.seconds);
        for (const ReplicateReport& r : rs.replicates) seq_replicates.push_back(r.seconds);
        check_outputs(rp, degrees, par_digests, result);
        check_outputs(rs, degrees, seq_digests, result);

        measured += par_wall + seq_wall;
        if (measured + par_wall + seq_wall > args.seconds) break;
    }
    // Before the reference chains below, whose allocations would count too.
    const double peak_rss = peak_rss_mib();

    // Reference digests, all chains at once (outside the measured time).
    std::map<std::uint64_t, std::uint64_t> par_refs, seq_refs;
    for (std::uint64_t r = 0; r < s.replicates; ++r) par_refs[r] = 0;
    seq_refs[0] = 0;
    std::vector<std::function<void()>> tasks;
    for (auto& [index, ref] : par_refs) {
        tasks.emplace_back([&, index = index, ref = &ref] {
            *ref = reference_digest(ChainAlgorithm::kSeqGlobalES, initial,
                                    replicate_seed(par.seed, index), par.pl, par.supersteps);
        });
    }
    tasks.emplace_back([&] {
        seq_refs[0] = reference_digest(ChainAlgorithm::kSeqES, initial,
                                       replicate_seed(seq.seed, 0), seq.pl, seq.supersteps);
    });
    run_parallel(std::move(tasks), hardware_threads());
    const std::uint64_t verified =
        match_references(par_digests, par_refs, "par-global-es", result);
    match_references(seq_digests, seq_refs, "seq-es", result);
    result.note("reference_digests", "{\"seq-global-es\": " + digests_note(par_refs) +
                                         ", \"seq-es\": " + digests_note(seq_refs) + "}");

    double par_total = 0;
    for (const double w : job_walls) par_total += w;
    result.set("setup_s", median(setup), "s");
    result.set("replicate_s", median(par_replicates), "s");
    result.set("seq_es_replicate_s", median(seq_replicates), "s");
    result.set("samples_per_s", static_cast<double>(verified) / par_total, "1/s");
    result.set("job_latency_p50_s", quantile(job_walls, 0.5), "s");
    result.set("job_latency_p90_s", quantile(job_walls, 0.9), "s");
    result.set("peak_rss_mb", peak_rss, "MiB");
    result.note("iterations", std::to_string(job_walls.size()));
}

void run_traced(const Args& args, const BatchSpec& s, const std::string& input,
                double gen_seconds, Result& result) {
    const std::string plain_text =
        job_text(s, input, args.workdir + "/plain", args.seed, false);
    const std::string traced_text =
        job_text(s, input, args.workdir + "/traced", args.seed, false);
    const PipelineConfig plain = read_pipeline_config_string(plain_text);
    const EdgeList initial = materialize_input(plain);
    const std::vector<std::uint32_t> degrees = initial.degrees();

    // Untraced reference run: the replicate wall the overhead is relative
    // to, and the digests every traced output must reproduce.
    const RunReport untraced = run_pipeline(plain);
    std::map<std::uint64_t, std::vector<std::uint64_t>> digests;
    check_outputs(untraced, degrees, digests, result);
    std::vector<double> untraced_s;
    for (const ReplicateReport& r : untraced.replicates) untraced_s.push_back(r.seconds);
    std::map<std::uint64_t, std::uint64_t> refs;
    for (const auto& [index, list] : digests) refs[index] = 0;
    std::vector<std::function<void()>> tasks;
    for (auto& [index, ref] : refs) {
        tasks.emplace_back([&, index = index, ref = &ref] {
            *ref = reference_digest(ChainAlgorithm::kSeqGlobalES, initial,
                                    replicate_seed(plain.seed, index), plain.pl,
                                    plain.supersteps);
        });
    }
    run_parallel(std::move(tasks), hardware_threads());
    match_references(digests, refs, "par-global-es", result);

    // Traced: the same job through the daemon, then the stage replay.
    obs::MetricsRegistry::instance().reset();
    obs::set_metrics_enabled(true);
    obs::TraceSession::start();
    ServerConfig server_config;
    server_config.socket_path = args.workdir + "/d.sock";
    server_config.threads = hardware_threads();
    JobOutcome job;
    {
        ServiceServer server(server_config);
        std::thread serve([&server] { server.serve(nullptr); });
        job = run_job(server_config.socket_path, traced_text);
        server.request_stop();
        serve.join();
    }
    result.attempt(job.replicates.size());
    if (!job.ok) result.fail("traced job: " + job.error);
    std::vector<double> traced_s;
    for (const ReplicateReport& r : job.replicates) traced_s.push_back(r.seconds);
    for (const StreamedGraph& g : job.graphs) {
        const std::string path = (std::filesystem::path(args.workdir) / "traced" /
                                  ("replicate_" + std::to_string(g.replicate) + ".gesb"))
                                     .string();
        if (g.bytes != read_file_bytes(path)) {
            result.fail("streamed replicate " + std::to_string(g.replicate) +
                        " differs from the daemon's file");
            continue;
        }
        std::istringstream is(g.bytes);
        const std::string why =
            check_graph(read_edge_list_binary(is), degrees, refs.at(g.replicate));
        if (!why.empty()) result.fail("streamed replicate: " + why);
    }

    ReplaySpec spec;
    spec.config = read_pipeline_config_string(
        job_text(s, input, args.workdir + "/replay", args.seed, false));
    spec.chain_threads = untraced.chain_threads;
    for (std::uint64_t r = 0; r < untraced.max_concurrent && r < s.replicates; ++r) {
        spec.replicates.push_back(r);
        spec.expected_digests.push_back(refs.at(r));
    }
    spec.gen_seconds = gen_seconds;
    spec.gate_coverage = true;
    replay_and_probe(spec, median(traced_s), result);

    const std::string trace_json = obs::TraceSession::stop_to_string();
    set_job_layer_metrics({job}, trace_json, job.done_t - job.submit_t, hardware_threads(),
                          result);
    result.set("obs.trace_overhead", median(traced_s) / median(untraced_s), "ratio");
}

} // namespace

void run_batch_workload(const Args& args, Result& result) {
    const BatchSpec s = batch_spec(args);
    const std::string input =
        args.workdir + (s.degrees_input ? "/input.deg" : "/input.gesb");
    const double gen_seconds = write_input(s, args.seed, input);
    if (args.trace) {
        run_traced(args, s, input, gen_seconds, result);
    } else {
        run_untraced(args, s, input, result);
    }
}

} // namespace e2e
