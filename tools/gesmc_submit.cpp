/// \file gesmc_submit.cpp
/// \brief Sampling-service client: submits a job to a running gesmc_serve
/// daemon and streams the results to disk as they arrive.
///
///   gesmc_submit --socket /tmp/gesmc.sock --config run.cfg --stream-dir out/
///   gesmc_submit --socket /tmp/gesmc.sock --config run.cfg --set seed=7
///   gesmc_submit --socket /tmp/gesmc.sock --status
///   gesmc_submit --socket /tmp/gesmc.sock --cancel 3
///   gesmc_submit --socket /tmp/gesmc.sock --shutdown
///
/// A submitted config document travels verbatim (same "key = value" keys as
/// gesmc_sample); --set overrides append lines, later entries win.  The
/// daemon streams 'J' event frames (progress, checkpoints, per-replicate
/// report fragments) and, per finished replicate, one chunked graph
/// transfer — a 'G' header followed by bounded 'D' data chunks — carrying
/// the output graph byte-identical to the daemon-side file; with
/// --stream-dir the chunks are appended straight to disk (O(chunk) client
/// memory, no size ceiling) under their original basenames, plus an
/// events.log of every JSON payload.  Exit code mirrors the job: 0
/// succeeded, 1 otherwise (failed / cancelled / interrupted / connection
/// lost).
///
/// --corpus fans a corpus config out as per-graph jobs: the client expands
/// the corpus locally (derived seeds, namespaced output dirs), submits one
/// job per graph over its own connection — the daemon schedules them with
/// the same round-robin fairness as any other traffic — and reassembles
/// the merged corpus summary from the shard reports the daemon wrote:
///
///   gesmc_submit --socket /tmp/gesmc.sock --corpus --config corpus.cfg
#include "check/checked_mutex.hpp"
#include "pipeline/config.hpp"
#include "pipeline/corpus.hpp"
#include "service/corpus_client.hpp"
#include "service/frame.hpp"
#include "service/json.hpp"
#include "service/socket.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>

using namespace gesmc;

namespace {

constexpr const char* kUsage = R"(gesmc_submit — sampling service client

Connection:
  --socket PATH     gesmc_serve Unix-domain socket (required)

Submit (default action):
  --config FILE     pipeline config to submit ("key = value" lines)
  --set KEY=VALUE   append a config override (repeatable, later wins)
  --stream-dir DIR  save streamed replicate graphs + events.log into DIR
                    (--corpus: per-graph subdirectories DIR/<name>/)
  --corpus          treat the config as a corpus: submit one job per input
                    graph (derived seeds, output-dir/<name>/ namespacing)
                    and merge the shard reports into the corpus summary
                    (written to the config's `report` path, else stdout);
                    requires output-dir — client and daemon share it
  --quiet           suppress per-replicate progress lines

Control actions:
  --status          print all jobs' status JSON to stdout
  --job N           restrict --status to one job
  --cancel N        cancel job N
  --metrics         print the daemon's metrics snapshot JSON (executor
                    occupancy, queue depth, per-job throughput; see
                    docs/observability.md)
  --watch SECS      subscribe to the daemon's telemetry stream and print
                    one JSON line per sampler tick for SECS seconds
                    (per-interval rates, executor occupancy; implies
                    --metrics; live dashboard: gesmc_top)
  --prom            print a Prometheus text exposition (v0.0.4) of the
                    daemon's metrics registry to stdout
  --shutdown        drain and stop the daemon

Exit code: the job's outcome (0 = succeeded), 2 = usage error.
)";

/// One-shot control round-trip: send `request`, print the single 'J'
/// response payload to stdout.  Returns the process exit code.
int control_action(const std::string& socket_path, const Request& request) {
    const FdHandle fd = connect_unix(socket_path);
    write_all(fd.get(), make_request_line(request));
    FrameReader reader;
    const std::optional<Frame> frame = read_frame(fd.get(), reader);
    if (!frame.has_value()) {
        std::cerr << "error: daemon closed the connection without answering\n";
        return 1;
    }
    std::cout << frame->payload << "\n";
    const JsonValue doc = parse_json(frame->payload);
    const JsonValue* event = doc.find("event");
    if (event != nullptr && event->is_string() && event->string_value == "error") {
        return 1;
    }
    // A refused action (e.g. cancelling an unknown or already-terminal
    // job) answers ok:false — scripts must see that in the exit code.
    const JsonValue* ok = doc.find("ok");
    if (ok != nullptr && ok->is_bool() && !ok->bool_value) return 1;
    return 0;
}

/// --prom: one-shot scrape.  The daemon wraps the Prometheus text in a 'J'
/// frame ({"event":"prom","exposition":"..."}); print the unwrapped text so
/// stdout is directly scrapeable / pipeable into promtool.
int prom_action(const std::string& socket_path) {
    const FdHandle fd = connect_unix(socket_path);
    Request request;
    request.kind = RequestKind::kProm;
    write_all(fd.get(), make_request_line(request));
    FrameReader reader;
    const std::optional<Frame> frame = read_frame(fd.get(), reader);
    if (!frame.has_value()) {
        std::cerr << "error: daemon closed the connection without answering\n";
        return 1;
    }
    const JsonValue doc = parse_json(frame->payload);
    std::cout << doc.string_member("exposition");
    return 0;
}

/// --watch SECS: subscribe and stream one telemetry JSON line per sampler
/// tick until the deadline (or the daemon stops).  Exit 0 iff at least one
/// tick arrived — a daemon that never ticks within SECS is a failure a
/// monitoring script should see.
int watch_action(const std::string& socket_path, double seconds) {
    const FdHandle fd = connect_unix(socket_path);
    Request request;
    request.kind = RequestKind::kWatch;
    write_all(fd.get(), make_request_line(request));
    FrameReader reader;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(seconds);
    std::uint64_t ticks = 0;
    for (;;) {
        const auto remaining = deadline - std::chrono::steady_clock::now();
        if (remaining <= std::chrono::steady_clock::duration::zero()) break;
        struct pollfd pfd;
        pfd.fd = fd.get();
        pfd.events = POLLIN;
        pfd.revents = 0;
        const auto remaining_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(remaining).count() + 1;
        const int ready = ::poll(&pfd, 1, static_cast<int>(remaining_ms));
        if (ready == 0) break; // deadline with no pending frame
        if (ready < 0) {
            if (errno == EINTR) continue;
            break;
        }
        const std::optional<Frame> frame = read_frame(fd.get(), reader);
        if (!frame.has_value()) break; // daemon stopped
        std::cout << frame->payload << "\n" << std::flush;
        ++ticks;
    }
    return ticks > 0 ? 0 : 1;
}

struct SubmitOptions {
    std::string socket_path;
    std::string config_path;
    std::vector<std::string> overrides; ///< "key=value" entries, in order
    std::string stream_dir;
    bool corpus = false;
    bool quiet = false;
};

/// Builds the submitted config document: the --config file's text verbatim,
/// then one appended line per --set (later wins, matching gesmc_sample's
/// CLI-over-file precedence).  Returns 0 and fills `out`, or a usage exit
/// code.
int assemble_config_text(const SubmitOptions& options, std::string& out) {
    out.clear();
    if (!options.config_path.empty()) out = read_file_bytes(options.config_path);
    for (const std::string& entry : options.overrides) {
        const std::size_t eq = entry.find('=');
        if (eq == std::string::npos) {
            std::cerr << "--set expects KEY=VALUE, got: " << entry << "\n";
            return 2;
        }
        if (!out.empty() && out.back() != '\n') out += '\n';
        out += entry.substr(0, eq) + " = " + entry.substr(eq + 1) + "\n";
    }
    if (out.empty()) {
        std::cerr << "nothing to submit: give --config and/or --set\n";
        return 2;
    }
    return 0;
}

/// What one submitted job's stream ended in.
struct StreamOutcome {
    int exit_code = 1;
    std::string final_status; ///< daemon's terminal status ("" = stream broke)
};

/// Submits `config_text` over its own connection and consumes the frame
/// stream until the job settles; with a non-empty `stream_dir`, replicate
/// graphs and events.log land there.  Shared by the single-job and corpus
/// paths (the latter runs one of these per graph, concurrently).
StreamOutcome stream_job(const std::string& socket_path, const std::string& config_text,
                         const std::string& stream_dir, bool quiet) {
    StreamOutcome outcome;
    std::optional<std::ofstream> events_log;
    if (!stream_dir.empty()) {
        std::filesystem::create_directories(stream_dir);
        events_log.emplace((std::filesystem::path(stream_dir) / "events.log").string(),
                           std::ios::binary);
        if (!events_log->good()) {
            std::cerr << "error: cannot write events.log under " << stream_dir << "\n";
            return outcome;
        }
    }

    const FdHandle fd = connect_unix(socket_path);
    Request request;
    request.kind = RequestKind::kSubmit;
    request.config_text = config_text;
    write_all(fd.get(), make_request_line(request));

    FrameReader reader;
    std::uint64_t graphs_saved = 0;
    // Chunked graph reassembly: a 'G' header opens a transfer, 'D' chunks
    // append to it until the announced total arrives.  The state machine
    // enforces the protocol caps (chunk bound, no overflow past the total)
    // before any byte touches the filesystem.
    GraphTransferState transfer;
    std::ofstream graph_out;
    std::string graph_path;
    const auto finish_graph = [&] {
        if (graph_out.is_open()) {
            graph_out.close();
            if (!graph_out.good()) throw Error("cannot write " + graph_path);
        }
        ++graphs_saved;
        if (!quiet) {
            std::cerr << "streamed replicate " << transfer.header().replicate << " -> "
                      << (graph_path.empty() ? transfer.header().name : graph_path)
                      << " (" << transfer.header().total_bytes << " bytes)\n";
        }
    };
    for (;;) {
        const std::optional<Frame> frame = read_frame(fd.get(), reader);
        if (!frame.has_value()) {
            std::cerr << "error: connection closed before the job finished\n";
            return outcome;
        }
        if (frame->type == FrameType::kGraph) {
            const GraphFrame header = decode_graph_payload(frame->payload);
            const bool complete = transfer.begin(header);
            if (!stream_dir.empty()) {
                graph_path =
                    (std::filesystem::path(stream_dir) / header.name).string();
                graph_out.open(graph_path, std::ios::binary | std::ios::trunc);
                if (!graph_out.good()) throw Error("cannot write " + graph_path);
            } else {
                graph_path.clear();
            }
            if (complete) finish_graph(); // zero-byte transfer
            continue;
        }
        if (frame->type == FrameType::kGraphData) {
            const bool complete = transfer.consume(frame->payload.size());
            if (graph_out.is_open()) {
                graph_out.write(frame->payload.data(),
                                static_cast<std::streamsize>(frame->payload.size()));
                if (!graph_out.good()) throw Error("cannot write " + graph_path);
            }
            if (complete) finish_graph();
            continue;
        }
        if (events_log.has_value()) *events_log << frame->payload << "\n";
        const JsonValue doc = parse_json(frame->payload);
        const std::string& event = doc.string_member("event");
        if (event == "accepted") {
            if (!quiet) {
                std::cerr << "job " << doc.uint_member("job") << " accepted\n";
            }
        } else if (event == "replicate") {
            if (!quiet) {
                const JsonValue* report = doc.find("report");
                std::cerr << "replicate";
                if (report != nullptr && report->find("index") != nullptr) {
                    std::cerr << " " << report->uint_member("index");
                }
                if (report != nullptr && report->find("error") != nullptr) {
                    std::cerr << " FAILED: " << report->string_member("error");
                } else {
                    std::cerr << " done";
                }
                std::cerr << "\n";
            }
        } else if (event == "error") {
            std::cerr << "error: " << doc.string_member("message") << "\n";
            return outcome;
        } else if (event == "done") {
            outcome.final_status = doc.string_member("status");
            if (!quiet) {
                std::cerr << "job " << doc.uint_member("job") << " "
                          << outcome.final_status;
                if (doc.find("error") != nullptr) {
                    std::cerr << " (" << doc.string_member("error") << ")";
                }
                std::cerr << "\n";
            }
            break;
        }
        // superstep / checkpoint events: logged to events.log only.
    }
    if (!stream_dir.empty() && !quiet) {
        std::cerr << graphs_saved << " replicate graph(s) saved under " << stream_dir
                  << "\n";
    }
    outcome.exit_code = outcome.final_status == "succeeded" ? 0 : 1;
    return outcome;
}

int submit_action(const SubmitOptions& options) {
    std::string config_text;
    if (const int rc = assemble_config_text(options, config_text); rc != 0) return rc;
    return stream_job(options.socket_path, config_text, options.stream_dir,
                      options.quiet)
        .exit_code;
}

/// --corpus: expand locally, submit one job per graph concurrently, merge
/// the daemon-written shard reports into the corpus summary.  Client and
/// daemon share a filesystem (Unix-socket service), so the shard output
/// directories and reports are readable here.
int corpus_submit_action(const SubmitOptions& options) {
    std::string config_text;
    if (const int rc = assemble_config_text(options, config_text); rc != 0) return rc;
    const PipelineConfig config = read_pipeline_config_string(config_text);
    if (!is_corpus_config(config)) {
        std::cerr << "--corpus: the config names a single input; give several "
                     "inputs, an input-glob, a corpus-manifest, or a corpus spec\n";
        return 2;
    }
    if (config.output_dir.empty()) {
        std::cerr << "--corpus requires output-dir: the daemon writes per-graph "
                     "outputs and reports there and the client merges the summary "
                     "from them\n";
        return 2;
    }
    const CorpusPlan plan = plan_corpus(config);
    // Derive every shard before anything runs: corpus_shard consults the
    // resume-from directories on disk, and the daemon is about to write
    // into this run's own.
    std::vector<PipelineConfig> shards;
    shards.reserve(plan.graphs.size());
    for (std::size_t i = 0; i < plan.graphs.size(); ++i) {
        shards.push_back(corpus_shard(plan, i));
    }

    const auto started = std::chrono::steady_clock::now();
    struct GraphOutcome {
        StreamOutcome stream;
        std::string error; ///< client-side failure (connect, write, ...)
    };
    std::vector<GraphOutcome> outcomes(plan.graphs.size());
    CheckedMutex progress_mutex{LockRank::kToolProgress, "gesmc_submit.progress"};
    std::size_t finished = 0;
    // A bounded window of in-flight submissions, each on its own
    // connection + consumer thread (every stream needs a live reader so
    // observer sends never stall).  The window, not one stream per graph:
    // a thousand-member corpus must not open a thousand sockets against
    // the thread-per-connection daemon — the daemon queues beyond
    // --max-jobs anyway, so a handful of open streams keeps it saturated
    // while the rest of the corpus waits client-side.
    constexpr std::size_t kMaxStreams = 8;
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= plan.graphs.size()) return;
            try {
                const std::string stream_dir =
                    options.stream_dir.empty()
                        ? std::string()
                        : (std::filesystem::path(options.stream_dir) /
                           plan.graphs[i].name)
                              .string();
                outcomes[i].stream =
                    stream_job(options.socket_path,
                               pipeline_config_to_string(shards[i]), stream_dir,
                               /*quiet=*/true);
            } catch (const std::exception& e) {
                outcomes[i].error = e.what();
            }
            if (!options.quiet) {
                const CheckedLockGuard lock(progress_mutex);
                ++finished;
                std::cerr << "corpus: graph " << plan.graphs[i].name << " ";
                if (!outcomes[i].error.empty()) {
                    std::cerr << "error: " << outcomes[i].error;
                } else if (outcomes[i].stream.final_status.empty()) {
                    std::cerr << "connection lost";
                } else {
                    std::cerr << outcomes[i].stream.final_status;
                }
                std::cerr << " [" << finished << "/" << plan.graphs.size() << "]\n";
            }
        }
    };
    std::vector<std::thread> streams;
    const std::size_t width = std::min(kMaxStreams, plan.graphs.size());
    streams.reserve(width);
    for (std::size_t w = 0; w < width; ++w) streams.emplace_back(worker);
    for (std::thread& stream : streams) stream.join();

    // Reassemble the merged summary from the shard reports the daemon wrote
    // — the same rows a local run_corpus computes in memory.
    CorpusReport report;
    report.config = plan.base;
    bool ok = true;
    for (std::size_t i = 0; i < plan.graphs.size(); ++i) {
        CorpusGraphRow row;
        try {
            row = corpus_row_from_report_json(plan.graphs[i],
                                              read_file_bytes(shards[i].report_path));
        } catch (const std::exception& e) {
            row.name = plan.graphs[i].name;
            row.input_path = plan.graphs[i].path;
            row.seed = shards[i].seed;
            row.replicates = shards[i].replicates;
            row.failed = shards[i].replicates;
            row.error = "cannot read shard report: " + std::string(e.what());
        }
        // The daemon's terminal status overrides a clean-looking parse: a
        // job that failed before run_pipeline rewrote report.json (e.g. a
        // vanished input) leaves a *stale* report from an earlier run
        // behind, and the summary must name the failed graph rather than
        // echo old numbers as success.
        const bool job_ok =
            outcomes[i].error.empty() && outcomes[i].stream.exit_code == 0;
        if (!job_ok && row.error.empty() && row.failed == 0 &&
            row.interrupted == 0) {
            row.error = !outcomes[i].error.empty()
                            ? outcomes[i].error
                        : outcomes[i].stream.final_status.empty()
                            ? "connection lost before the job finished"
                            : "daemon job " + outcomes[i].stream.final_status +
                                  " (per-graph report may be stale)";
        }
        ok = ok && job_ok && row.failed == 0 && row.interrupted == 0 &&
             row.error.empty();
        report.rows.push_back(std::move(row));
    }
    report.total_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
            .count();
    if (!config.report_path.empty()) {
        const std::filesystem::path parent =
            std::filesystem::path(config.report_path).parent_path();
        if (!parent.empty()) std::filesystem::create_directories(parent);
        write_corpus_json_file(config.report_path, report);
        if (!options.quiet) {
            std::cerr << "corpus: merged summary written to " << config.report_path
                      << "\n";
        }
    } else {
        write_corpus_json(std::cout, report);
    }
    return ok ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    std::string socket_path;
    SubmitOptions submit;
    enum class Action { kSubmit, kStatus, kCancel, kMetrics, kWatch, kProm, kShutdown };
    Action action = Action::kSubmit;
    std::uint64_t job = 0;
    bool has_job = false;
    double watch_seconds = 0;

    auto need_value = [&](int& i) -> const char* {
        if (i + 1 >= argc) {
            std::cerr << "missing value for " << argv[i] << "\n";
            return nullptr;
        }
        return argv[++i];
    };
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const char* v = nullptr;
            if (arg == "--help") {
                std::cout << kUsage;
                return 0;
            } else if (arg == "--quiet") {
                submit.quiet = true;
            } else if (arg == "--socket") {
                if (!(v = need_value(i))) return 2;
                socket_path = v;
            } else if (arg == "--config") {
                if (!(v = need_value(i))) return 2;
                submit.config_path = v;
            } else if (arg == "--set") {
                if (!(v = need_value(i))) return 2;
                submit.overrides.emplace_back(v);
            } else if (arg == "--stream-dir") {
                if (!(v = need_value(i))) return 2;
                submit.stream_dir = v;
            } else if (arg == "--corpus") {
                submit.corpus = true;
            } else if (arg == "--status") {
                action = Action::kStatus;
            } else if (arg == "--job") {
                if (!(v = need_value(i))) return 2;
                job = parse_u64(arg, v);
                has_job = true;
            } else if (arg == "--cancel") {
                if (!(v = need_value(i))) return 2;
                action = Action::kCancel;
                job = parse_u64(arg, v);
                has_job = true;
            } else if (arg == "--metrics") {
                if (action != Action::kWatch) action = Action::kMetrics;
            } else if (arg == "--watch") {
                if (!(v = need_value(i))) return 2;
                watch_seconds = parse_double(arg, v);
                if (!(watch_seconds > 0)) {
                    std::cerr << "--watch expects a positive duration in seconds\n";
                    return 2;
                }
                action = Action::kWatch;
            } else if (arg == "--prom") {
                action = Action::kProm;
            } else if (arg == "--shutdown") {
                action = Action::kShutdown;
            } else {
                std::cerr << "unknown option: " << arg << "\n" << kUsage;
                return 2;
            }
        }
    } catch (const Error& e) { // a malformed flag value, named in the message
        std::cerr << e.what() << "\n";
        return 2;
    }
    if (socket_path.empty()) {
        std::cerr << "--socket PATH is required\n" << kUsage;
        return 2;
    }

    try {
        switch (action) {
        case Action::kSubmit:
            submit.socket_path = socket_path;
            return submit.corpus ? corpus_submit_action(submit) : submit_action(submit);
        case Action::kStatus: {
            Request request;
            request.kind = RequestKind::kStatus;
            request.job = job;
            request.has_job = has_job;
            return control_action(socket_path, request);
        }
        case Action::kCancel: {
            Request request;
            request.kind = RequestKind::kCancel;
            request.job = job;
            request.has_job = true;
            return control_action(socket_path, request);
        }
        case Action::kMetrics: {
            Request request;
            request.kind = RequestKind::kMetrics;
            return control_action(socket_path, request);
        }
        case Action::kWatch:
            return watch_action(socket_path, watch_seconds);
        case Action::kProm:
            return prom_action(socket_path);
        case Action::kShutdown: {
            Request request;
            request.kind = RequestKind::kShutdown;
            return control_action(socket_path, request);
        }
        }
        return 2;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
