/// \file daemon.cpp
/// \brief The daemon-small-adaptive workload.
///
/// An in-process ServiceServer with the shipped daemon defaults (hardware
/// threads, two concurrent jobs) listens on a Unix socket in the work
/// directory; its metrics registry is on only in the traced half.  A closed loop of nproc client threads each
/// submit the next job when the previous one's "done" frame arrives; every
/// job is a fresh small G(n,p) file with 4 adaptive par-global-es replicates
/// under policy `replicates`, text output streamed back as 'G'/'D' frames.
/// Each streamed graph must equal the daemon's file, keep the input degrees
/// and hash to the seq-global-es reference at the replicate's realized
/// superstep count.  Every 4th job of the untraced loop is a seq-es job, the
/// baseline, so that it samples the host over the same window.
#include "bench.hpp"

#include "gen/gnp.hpp"
#include "graph/io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/seeds.hpp"
#include "service/server.hpp"
#include "service/socket.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <thread>

namespace e2e {

using namespace gesmc;

namespace {

struct DaemonSpec {
    node_t n = 2'000;
    std::uint64_t m = 10'000;
    unsigned clients = 1;
    std::uint64_t seq_every = 4; ///< every 4th job is the seq-es baseline
};

/// One finished job, its streamed graphs already checked and dropped.
struct JobRecord {
    std::uint64_t index = 0;
    std::string config_text;
    std::string algorithm;
    double gen_seconds = 0;
    JobOutcome outcome;
    std::map<std::uint64_t, std::uint64_t> digests;  ///< replicate -> streamed digest
    std::map<std::uint64_t, std::uint64_t> realized; ///< replicate -> supersteps run
    std::uint64_t passed = 0; ///< graphs that matched their reference
    std::vector<std::string> errors;
};

constexpr std::uint64_t kReplicates = 4;

std::uint64_t job_seed(std::uint64_t seed, std::uint64_t index) { return mix64(seed, index); }

/// Writes the job's input graph, submits it and checks what streams back.
void submit_and_check(const Args& args, const DaemonSpec& spec, const std::string& socket,
                      JobRecord& rec) {
    const std::uint64_t index = rec.index;
    const std::string& algorithm = rec.algorithm;
    const std::uint64_t seed = job_seed(args.seed, index);
    const std::string input = args.workdir + "/in_" + std::to_string(index) + ".gesb";
    const std::string out_dir = args.workdir + "/job_" + std::to_string(index);
    double t = now_s();
    const EdgeList g = generate_gnp(spec.n, gnp_probability_for_edges(spec.n, spec.m), seed);
    rec.gen_seconds = now_s() - t;
    write_edge_list_binary_file(input, g);
    const std::vector<std::uint32_t> degrees = g.degrees();
    std::ostringstream os;
    os << "input = " << input << "\n"
       << "algorithm = " << algorithm << "\n"
       << "supersteps = adaptive\n"
       << "replicates = " << kReplicates << "\n"
       << "seed = " << seed << "\n"
       << "policy = replicates\n"
       << "output-dir = " << out_dir << "\n"
       << "output-format = text\n";
    rec.config_text = os.str();

    rec.outcome = run_job(socket, rec.config_text);
    if (!rec.outcome.ok) rec.errors.push_back("job " + std::to_string(index) + ": " +
                                              rec.outcome.error);
    for (const ReplicateReport& r : rec.outcome.replicates) {
        rec.realized[r.index] = r.realized_supersteps;
    }
    for (StreamedGraph& sg : rec.outcome.graphs) {
        std::string path;
        for (const ReplicateReport& r : rec.outcome.replicates) {
            if (r.index == sg.replicate) path = r.output_path;
        }
        const std::string label =
            "job " + std::to_string(index) + " replicate " + std::to_string(sg.replicate);
        if (path.empty() || sg.bytes != read_file_bytes(path)) {
            rec.errors.push_back(label + ": streamed bytes differ from the daemon's file");
            continue;
        }
        std::istringstream is(sg.bytes);
        const EdgeList out = read_edge_list(is);
        const std::string why = check_graph(out, degrees, 0);
        if (!why.empty()) {
            rec.errors.push_back(label + ": " + why);
            continue;
        }
        rec.digests[sg.replicate] = graph_digest(out);
        sg.bytes = std::string();
    }
}

JobRecord run_one(const Args& args, const DaemonSpec& spec, const std::string& socket,
                  std::uint64_t index, const std::string& algorithm) {
    JobRecord rec;
    rec.index = index;
    rec.algorithm = algorithm;
    try {
        submit_and_check(args, spec, socket, rec);
    } catch (const std::exception& e) {
        rec.errors.push_back("job " + std::to_string(index) + ": " + e.what());
    }
    std::error_code ec;
    std::filesystem::remove_all(args.workdir + "/job_" + std::to_string(index), ec);
    return rec;
}

/// Closed loop: `clients` threads submit jobs back to back until `seconds`
/// have passed; returns the finished jobs and the loop's wall time.  Jobs
/// are par-global-es, except that every `seq_every`-th job (when non-zero)
/// is the seq-es baseline, so both sample the whole window.
std::vector<JobRecord> closed_loop(const Args& args, const DaemonSpec& spec,
                                   const std::string& socket, std::atomic<std::uint64_t>& next,
                                   std::uint64_t seq_every, double seconds, double& wall) {
    std::vector<JobRecord> records;
    std::mutex mu;
    const double start = now_s();
    const double deadline = start + seconds;
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < spec.clients; ++c) {
        clients.emplace_back([&] {
            while (now_s() < deadline) {
                const std::uint64_t index = next++;
                const bool seq = seq_every != 0 && index % seq_every == seq_every - 1;
                JobRecord rec =
                    run_one(args, spec, socket, index, seq ? "seq-es" : "par-global-es");
                const std::lock_guard<std::mutex> lock(mu);
                records.push_back(std::move(rec));
            }
        });
    }
    for (std::thread& c : clients) c.join();
    wall = now_s() - start;
    return records;
}

/// Checks every record's digests against the sequential reference chain
/// (all jobs at once, after the measured loop).  Returns the graphs that
/// passed every check.
std::uint64_t verify_records(std::vector<JobRecord>& records, Result& result) {
    std::vector<std::function<void()>> tasks;
    for (JobRecord& rec : records) {
        tasks.emplace_back([&rec] {
            if (rec.digests.empty()) return;
            const PipelineConfig config = read_pipeline_config_string(rec.config_text);
            const EdgeList initial = materialize_input(config);
            const ChainAlgorithm ref = rec.algorithm == "seq-es" ? ChainAlgorithm::kSeqES
                                                                 : ChainAlgorithm::kSeqGlobalES;
            for (const auto& [r, digest] : rec.digests) {
                const std::uint64_t want = reference_digest(
                    ref, initial, replicate_seed(config.seed, r), config.pl, rec.realized.at(r));
                if (digest == want) {
                    ++rec.passed;
                } else {
                    rec.errors.push_back("job " + std::to_string(rec.index) + " replicate " +
                                         std::to_string(r) + " digest " + hex(digest) +
                                         " != reference " + hex(want));
                }
            }
        });
    }
    run_parallel(std::move(tasks), hardware_threads());
    std::uint64_t ok = 0;
    for (const JobRecord& rec : records) {
        result.attempt(kReplicates);
        for (std::uint64_t r = rec.passed; r < kReplicates; ++r) {
            result.fail(rec.errors.empty() ? "job " + std::to_string(rec.index) +
                                                 ": replicate graph missing"
                                           : rec.errors.front());
        }
        ok += rec.passed;
    }
    return ok;
}

std::vector<double> replicate_seconds(const std::vector<JobRecord>& records) {
    std::vector<double> out;
    for (const JobRecord& rec : records) {
        for (const ReplicateReport& r : rec.outcome.replicates) out.push_back(r.seconds);
    }
    return out;
}

/// Server start to the first answered connection.
double start_to_first_connection(const ServerConfig& config) {
    const double t = now_s();
    ServiceServer server(config);
    std::thread serve([&server] { server.serve(nullptr); });
    double answered = 0;
    {
        const FdHandle fd = connect_unix(config.socket_path);
        Request status;
        status.kind = RequestKind::kStatus;
        write_all(fd.get(), make_request_line(status));
        FrameReader reader;
        (void)read_frame(fd.get(), reader);
        answered = now_s() - t;
    }
    server.request_stop();
    serve.join();
    return answered;
}

} // namespace

void run_daemon_workload(const Args& args, Result& result) {
    DaemonSpec spec;
    spec.clients = hardware_threads();
    if (args.toy) {
        spec.n = 300;
        spec.m = 1'200;
    }
    // The shipped daemon defaults (hardware threads, two concurrent jobs),
    // except that the metrics registry is off while end-to-end metrics are
    // measured, as in the batch workloads; the traced half turns it on.
    // With it on, a daemon's replicate time swings by 20-30% from one daemon
    // lifetime to the next (likely pool threads that draw the same metric
    // shard contending on it), which would drown any change under test.
    ServerConfig config;
    config.socket_path = args.workdir + "/d.sock";
    std::atomic<std::uint64_t> next{0};

    if (!args.trace) {
        const std::string setup_input = args.workdir + "/setup.gesb";
        write_edge_list_binary_file(
            setup_input, generate_gnp(spec.n, gnp_probability_for_edges(spec.n, spec.m), args.seed));
        const PipelineConfig setup_config =
            read_pipeline_config_string("input = " + setup_input + "\n");
        std::vector<double> setup;
        // Sub-millisecond and dominated by thread start-up jitter: take many.
        for (int i = 0; i < 101; ++i) {
            const double started = start_to_first_connection(config);
            const double t = now_s();
            (void)materialize_input(setup_config);
            setup.push_back(started + now_s() - t);
        }

        ServiceServer server(config);
        std::thread serve([&server] { server.serve(nullptr); });
        double wall = 0;
        std::vector<JobRecord> all = closed_loop(args, spec, config.socket_path, next,
                                                 spec.seq_every, args.seconds, wall);
        server.request_stop();
        serve.join();
        // Before the reference chains below, whose allocations would count too.
        const double peak_rss = peak_rss_mib();

        std::vector<JobRecord> jobs, seq_jobs;
        for (JobRecord& rec : all) {
            (rec.algorithm == "seq-es" ? seq_jobs : jobs).push_back(std::move(rec));
        }
        const std::uint64_t verified = verify_records(jobs, result);
        verify_records(seq_jobs, result);
        std::vector<double> latency;
        for (const JobRecord& rec : jobs) {
            latency.push_back(rec.outcome.done_t - rec.outcome.submit_t);
        }
        result.set("setup_s", median(setup), "s");
        result.set("replicate_s", median(replicate_seconds(jobs)), "s");
        result.set("samples_per_s", static_cast<double>(verified) / wall, "1/s");
        result.set("seq_es_replicate_s", median(replicate_seconds(seq_jobs)), "s");
        result.set("job_latency_p50_s", quantile(latency, 0.5), "s");
        result.set("job_latency_p90_s", quantile(latency, 0.9), "s");
        result.set("peak_rss_mb", peak_rss, "MiB");
        result.note("jobs", std::to_string(jobs.size()));
        result.note("seq_es_jobs", std::to_string(seq_jobs.size()));
        result.note("jobs_above_p90", std::to_string(jobs.size() - (jobs.size() * 9 + 9) / 10));
        return;
    }

    // Traced: half the window untraced, half with the registry and a
    // TraceSession on, then the stage replay of job 0 (a function of the
    // seed alone, so the replay's exact counts repeat from run to run).
    ServiceServer server(config);
    std::thread serve([&server] { server.serve(nullptr); });
    double wall = 0;
    std::vector<JobRecord> plain =
        closed_loop(args, spec, config.socket_path, next, 0, args.seconds / 2, wall);
    obs::set_metrics_enabled(true);
    obs::TraceSession::start();
    std::vector<JobRecord> traced =
        closed_loop(args, spec, config.socket_path, next, 0, args.seconds / 2, wall);
    server.request_stop();
    serve.join();
    verify_records(plain, result);
    verify_records(traced, result);

    const auto job0 = std::find_if(plain.begin(), plain.end(),
                                   [](const JobRecord& rec) { return rec.index == 0; });
    GESMC_CHECK(job0 != plain.end(), "job 0 did not finish");
    ReplaySpec replay;
    replay.config = read_pipeline_config_string(job0->config_text);
    replay.config.output_dir = args.workdir + "/replay";
    replay.chain_threads = 1;
    for (const auto& [r, digest] : job0->digests) {
        replay.replicates.push_back(r);
        replay.expected_digests.push_back(digest);
    }
    replay.gen_seconds = job0->gen_seconds;
    const double traced_s = median(replicate_seconds(traced));
    replay_and_probe(replay, traced_s, result);

    const std::string trace_json = obs::TraceSession::stop_to_string();
    std::vector<JobOutcome> outcomes;
    for (const JobRecord& rec : traced) outcomes.push_back(rec.outcome);
    set_job_layer_metrics(outcomes, trace_json, wall, hardware_threads(), result);
    result.set("obs.trace_overhead", traced_s / median(replicate_seconds(plain)), "ratio");
}

} // namespace e2e
