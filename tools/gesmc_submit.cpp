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
/// memory, no size ceiling) under their names relative to the job's
/// output-dir, plus an events.log of every JSON payload.  Exit code
/// mirrors the job: 0 succeeded, 1 otherwise (failed / cancelled /
/// interrupted / connection lost).
///
/// A corpus config (several inputs, input-glob, corpus-manifest or corpus)
/// is submitted the same way and runs as one daemon job: the daemon plans
/// and runs it like gesmc_sample does, writes corpus_rows.ndjson and the
/// summary at the config's `report` path (required), and streams each
/// member's graphs as <member>/<basename> plus one `graph` event per
/// settled member (docs/corpus.md).
#include "pipeline/config.hpp"
#include "service/frame.hpp"
#include "service/json.hpp"
#include "service/socket.hpp"

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
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
                    (a corpus job's graphs under DIR/<member>/)
  --quiet           suppress per-replicate and per-graph progress lines

A corpus config (several inputs, input-glob, corpus-manifest or corpus)
runs as one job; it needs a `report` path, where the daemon writes the
corpus summary.

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

/// Submits the config and consumes the frame stream until the job
/// settles; with --stream-dir, replicate graphs and events.log land there.
int submit_action(const SubmitOptions& options) {
    std::string config_text;
    if (const int rc = assemble_config_text(options, config_text); rc != 0) return rc;
    const bool quiet = options.quiet;
    const std::filesystem::path stream_dir = options.stream_dir;
    std::optional<std::ofstream> events_log;
    if (!stream_dir.empty()) {
        std::filesystem::create_directories(stream_dir);
        events_log.emplace(stream_dir / "events.log", std::ios::binary);
        if (!events_log->good()) {
            std::cerr << "error: cannot write events.log under " << stream_dir.string()
                      << "\n";
            return 1;
        }
    }

    const FdHandle fd = connect_unix(options.socket_path);
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
    std::string final_status;
    for (;;) {
        const std::optional<Frame> frame = read_frame(fd.get(), reader);
        if (!frame.has_value()) {
            std::cerr << "error: connection closed before the job finished\n";
            return 1;
        }
        if (frame->type == FrameType::kGraph) {
            const GraphFrame header = decode_graph_payload(frame->payload);
            const bool complete = transfer.begin(header);
            if (!stream_dir.empty()) {
                // The name is "<basename>" or "<member>/<basename>" (the
                // decoder admits nothing else).
                const std::filesystem::path path = stream_dir / header.name;
                std::filesystem::create_directories(path.parent_path());
                graph_path = path.string();
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
                if (const JsonValue* graph = doc.find("graph"); graph != nullptr) {
                    std::cerr << " " << graph->string_value;
                }
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
        } else if (event == "graph") {
            // One per settled corpus member: its corpus_rows.ndjson row.
            if (const JsonValue* row = doc.find("row"); row != nullptr && !quiet) {
                std::cerr << "graph " << row->string_member("name") << ": "
                          << row->uint_member("replicates") << " replicate(s)";
                if (const JsonValue* early = row->find("stopped_early");
                    early != nullptr && early->bool_value) {
                    std::cerr << ", stopped early";
                }
                if (row->find("error") != nullptr) {
                    std::cerr << ", FAILED: " << row->string_member("error");
                } else if (row->uint_member("interrupted") > 0) {
                    std::cerr << ", " << row->uint_member("interrupted") << " interrupted";
                }
                std::cerr << "\n";
            }
        } else if (event == "error") {
            std::cerr << "error: " << doc.string_member("message") << "\n";
            return 1;
        } else if (event == "done") {
            final_status = doc.string_member("status");
            if (!quiet) {
                std::cerr << "job " << doc.uint_member("job") << " " << final_status;
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
        std::cerr << graphs_saved << " replicate graph(s) saved under "
                  << stream_dir.string() << "\n";
    }
    return final_status == "succeeded" ? 0 : 1;
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
            return submit_action(submit);
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
