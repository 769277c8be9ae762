/// \file gesmc_serve.cpp
/// \brief Sampling-service daemon: a long-lived process owning the shared
/// thread pool, accepting sampling jobs over a Unix-domain socket.
///
/// Null-model pipelines submit config documents (the same "key = value"
/// vocabulary gesmc_sample reads) and get replicate graphs + report
/// fragments streamed back as they finish — no fork/exec per run, one
/// machine-wide pool across all jobs.  Protocol: docs/service_protocol.md;
/// client: gesmc_submit.
///
///   gesmc_serve --socket /tmp/gesmc.sock
///   gesmc_serve --socket /tmp/gesmc.sock --threads 16 --max-jobs 4
///
/// SIGTERM/SIGINT drain gracefully: running checkpointed jobs stop at
/// their next checkpoint boundary (resumable after a restart via
/// resume-from), uncheckpointed jobs finish, queued jobs are cancelled,
/// then the daemon exits 0.
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "pipeline/config.hpp"
#include "service/server.hpp"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

using namespace gesmc;

namespace {

constexpr const char* kUsage = R"(gesmc_serve — sampling service daemon

Options:
  --socket PATH   Unix-domain socket to listen on (required)
  --threads P     machine-level thread budget shared by all jobs;
                  each job's replicates lease chain-threads-wide
                  sub-pools out of it (0 = hardware concurrency) [0]
  --max-jobs N    jobs running concurrently; others queue       [2]
  --no-metrics    disable runtime metrics collection (on by default;
                  query with gesmc_submit --metrics)
  --telemetry-interval MS
                  sampler tick: how often counters/gauges/executor
                  stats are snapshotted into the telemetry ring that
                  feeds `watch` subscribers (gesmc_top)        [1000]
  --telemetry-out FILE
                  append one NDJSON time-series row per tick to FILE
                  (truncated at startup; tail -f-able)
  --log-file FILE structured JSON-lines event log (appended);
                  schema in docs/observability.md
  --log-level L   minimum event level: debug|info|warn|error   [info]
  --quiet         suppress progress logging
  --help          this text

Submit jobs with gesmc_submit; frame layout in docs/service_protocol.md.
Watch live telemetry with gesmc_top; scrape Prometheus text with
gesmc_submit --prom.  SIGTERM drains: running jobs finish or
checkpoint, then the daemon exits.
)";

std::atomic<ServiceServer*> g_server{nullptr};

void handle_signal(int) {
    // Async-signal-safe: request_stop only stores a flag + writes a pipe.
    ServiceServer* const server = g_server.load(std::memory_order_relaxed);
    if (server != nullptr) server->request_stop();
}

/// Clears g_server on *every* exit path — also when serve() throws and the
/// server unwinds — so a late SIGTERM never dereferences a destroyed server.
/// Declared after the server so it runs first during unwinding.
struct ClearServerOnExit {
    ~ClearServerOnExit() { g_server.store(nullptr, std::memory_order_relaxed); }
};

} // namespace

int main(int argc, char** argv) {
    ServerConfig config;
    bool quiet = false;
    bool metrics = true;
    std::string log_file;
    std::string log_level;

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
                quiet = true;
            } else if (arg == "--no-metrics") {
                metrics = false;
            } else if (arg == "--socket") {
                if (!(v = need_value(i))) return 2;
                config.socket_path = v;
            } else if (arg == "--threads") {
                if (!(v = need_value(i))) return 2;
                config.threads = parse_unsigned(arg, v);
            } else if (arg == "--max-jobs") {
                if (!(v = need_value(i))) return 2;
                config.max_jobs = parse_unsigned(arg, v);
                if (config.max_jobs == 0) {
                    std::cerr << "--max-jobs must be >= 1\n";
                    return 2;
                }
            } else if (arg == "--telemetry-interval") {
                if (!(v = need_value(i))) return 2;
                const std::uint64_t ms = parse_u64(arg, v);
                if (ms == 0) {
                    std::cerr << "--telemetry-interval must be >= 1 ms\n";
                    return 2;
                }
                config.telemetry_interval = std::chrono::milliseconds(ms);
            } else if (arg == "--telemetry-out") {
                if (!(v = need_value(i))) return 2;
                config.telemetry_out = v;
            } else if (arg == "--log-file") {
                if (!(v = need_value(i))) return 2;
                log_file = v;
            } else if (arg == "--log-level") {
                if (!(v = need_value(i))) return 2;
                log_level = v;
            } else {
                std::cerr << "unknown option: " << arg << "\n" << kUsage;
                return 2;
            }
        }
    } catch (const Error& e) { // a malformed flag value, named in the message
        std::cerr << e.what() << "\n";
        return 2;
    }
    if (config.socket_path.empty()) {
        std::cerr << "--socket PATH is required\n" << kUsage;
        return 2;
    }

    // A daemon is long-lived and shared — collect by default so a `metrics`
    // request is never an empty answer (~1ns per counter hit; batch tools
    // stay opt-in instead).
    obs::set_metrics_enabled(metrics);

    if (!log_level.empty()) {
        if (log_level == "debug") obs::set_log_level(obs::LogLevel::kDebug);
        else if (log_level == "info") obs::set_log_level(obs::LogLevel::kInfo);
        else if (log_level == "warn") obs::set_log_level(obs::LogLevel::kWarn);
        else if (log_level == "error") obs::set_log_level(obs::LogLevel::kError);
        else {
            std::cerr << "--log-level must be debug|info|warn|error\n";
            return 2;
        }
    }
    if (!log_file.empty() && !obs::set_log_file(log_file)) {
        std::cerr << "cannot open --log-file for appending: " << log_file << "\n";
        return 2;
    }
    if (!config.telemetry_out.empty()) {
        // The sampler truncates-on-open inside ServiceServer and would
        // otherwise fail silently; make the parent directory and prove the
        // sink writable up front.
        const auto parent =
            std::filesystem::path(config.telemetry_out).parent_path();
        if (!parent.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(parent, ec);
        }
        std::ofstream probe(config.telemetry_out, std::ios::trunc);
        if (!probe.good()) {
            std::cerr << "cannot open --telemetry-out for writing: "
                      << config.telemetry_out << "\n";
            return 2;
        }
    }

    try {
        ServiceServer server(config);
        g_server.store(&server, std::memory_order_relaxed);
        ClearServerOnExit clear_on_exit;

        struct sigaction action;
        std::memset(&action, 0, sizeof(action));
        action.sa_handler = handle_signal;
        sigaction(SIGTERM, &action, nullptr);
        sigaction(SIGINT, &action, nullptr);

        server.serve(quiet ? nullptr : &std::cerr);
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
