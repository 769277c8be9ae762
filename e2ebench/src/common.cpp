#include "bench.hpp"

#include "bench_util/harness.hpp"
#include "core/chain.hpp"
#include "graph/io.hpp"
#include "service/frame.hpp"
#include "service/json.hpp"
#include "service/socket.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <exception>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

namespace e2e {

using namespace gesmc;

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

// ----------------------------------------------------------------- Result

void Result::set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
}

void Result::fail(const std::string& why) {
    ++failed_;
    std::cerr << "e2ebench: FAILED: " << why << "\n";
}

void Result::note(const std::string& key, const std::string& json_value) {
    notes_.emplace_back(key, json_value);
}

namespace {

std::string number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

bool Result::emit(const std::vector<std::pair<std::string, std::string>>& required,
                  const std::string& workload) const {
    std::string refusal;
    if (attempted_ == 0) refusal = "nothing was attempted";
    for (const auto& [name, unit] : required) {
        if (!refusal.empty()) break;
        const auto it = metrics_.find(name);
        if (it == metrics_.end()) {
            refusal = "metric " + name + " is missing";
        } else if (!std::isfinite(it->second.first)) {
            refusal = "metric " + name + " is not finite";
        } else if (it->second.second != unit) {
            refusal = "metric " + name + " has unit " + it->second.second + ", not " + unit;
        }
    }
    if (!refusal.empty()) {
        std::cerr << "e2ebench: refusing to emit a result: " << refusal << "\n";
        return false;
    }

    std::string context = "{\"workload\": " + json_quote(workload) +
                          ", \"failed_frac\": " +
                          number(static_cast<double>(failed_) /
                                 static_cast<double>(attempted_));
    for (const auto& [key, value] : notes_) context += ", " + json_quote(key) + ": " + value;
    context += "}";

    std::string line = "{\"correct\": ";
    line += failed_ == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted_);
    line += ", \"failed\": " + std::to_string(failed_);
    line += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, unit] : required) {
        if (!first) line += ", ";
        first = false;
        line += json_quote(name) + ": {\"value\": " + number(metrics_.at(name).first) +
                ", \"unit\": " + json_quote(unit) + "}";
    }
    line += "}}";
    std::cout << context << "\n" << line << std::endl;
    return true;
}

// ---------------------------------------------------------- output checks

std::uint64_t graph_digest(const EdgeList& graph) {
    std::vector<edge_key_t> keys = graph.keys();
    std::sort(keys.begin(), keys.end());
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    mix(graph.num_nodes());
    for (const edge_key_t k : keys) mix(k);
    return h;
}

std::string hex(std::uint64_t v) {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

std::string check_graph(const EdgeList& graph, const std::vector<std::uint32_t>& input_degrees,
                        std::uint64_t expected_digest) {
    if (!graph.is_simple()) return "output graph is not simple";
    std::vector<std::uint32_t> degrees = graph.degrees();
    degrees.resize(std::max(degrees.size(), input_degrees.size()), 0);
    std::vector<std::uint32_t> want = input_degrees;
    want.resize(degrees.size(), 0);
    if (degrees != want) return "output graph changed the degree sequence";
    if (expected_digest != 0 && graph_digest(graph) != expected_digest) {
        return "output digest " + hex(graph_digest(graph)) + " != reference " +
               hex(expected_digest);
    }
    return "";
}

std::uint64_t reference_digest(ChainAlgorithm algorithm, const EdgeList& initial,
                               std::uint64_t seed, double pl, std::uint64_t supersteps) {
    ChainConfig config;
    config.seed = seed;
    config.pl = pl;
    config.threads = 1;
    const std::unique_ptr<Chain> chain = make_chain(algorithm, initial, config);
    chain->run_supersteps(supersteps);
    return graph_digest(chain->graph());
}

void run_parallel(std::vector<std::function<void()>> tasks, unsigned threads) {
    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::exception_ptr first_error;
    std::vector<std::thread> workers;
    const unsigned width =
        std::max(1u, std::min<unsigned>(threads, static_cast<unsigned>(tasks.size())));
    for (unsigned t = 0; t < width; ++t) {
        workers.emplace_back([&] {
            for (std::size_t i = next++; i < tasks.size(); i = next++) {
                try {
                    tasks[i]();
                } catch (...) {
                    const std::lock_guard<std::mutex> lock(mu);
                    if (first_error == nullptr) first_error = std::current_exception();
                }
            }
        });
    }
    for (std::thread& w : workers) w.join();
    if (first_error != nullptr) std::rethrow_exception(first_error);
}

double peak_rss_mib() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

void note_host(Result& result) {
    const unsigned threads = hardware_threads();
    const BenchHost host = bench_host_info();
    const double ceiling = measure_parallel_ceiling(threads);
    result.note("host", "{\"nproc\": " + std::to_string(threads) +
                            ", \"cpu\": " + json_quote(host.cpu) +
                            ", \"fingerprint\": " + json_quote(host.fingerprint) +
                            ", \"parallel_ceiling\": " + number(ceiling) + "}");
}

// ----------------------------------------------------------- service client

JobOutcome run_job(const std::string& socket_path, const std::string& config_text) {
    JobOutcome out;
    try {
        const FdHandle fd = connect_unix(socket_path);
        Request request;
        request.kind = RequestKind::kSubmit;
        request.config_text = config_text;
        out.submit_t = now_s();
        write_all(fd.get(), make_request_line(request));

        FrameReader reader;
        GraphTransferState transfer;
        StreamedGraph current;
        double graph_start = 0;
        double first_start = 1e300; // earliest replicate start seen
        for (;;) {
            const std::optional<Frame> frame = read_frame(fd.get(), reader);
            const double t = now_s();
            if (!frame.has_value()) {
                out.error = "stream ended before the done frame";
                break;
            }
            if (frame->type == FrameType::kGraph) {
                const GraphFrame header = decode_graph_payload(frame->payload);
                current = StreamedGraph{header.replicate, {}, header.total_bytes, 0};
                current.bytes.reserve(header.total_bytes);
                graph_start = t;
                if (transfer.begin(header)) out.graphs.push_back(std::move(current));
                continue;
            }
            if (frame->type == FrameType::kGraphData) {
                current.bytes += frame->payload;
                if (transfer.consume(frame->payload.size())) {
                    current.seconds = now_s() - graph_start;
                    out.graphs.push_back(std::move(current));
                }
                continue;
            }
            const JsonValue event = parse_json(frame->payload);
            const std::string& kind = event.string_member("event");
            if (kind == "accepted") {
                out.accepted_t = t;
            } else if (kind == "replicate") {
                const JsonValue* r = event.find("report");
                ReplicateReport rep;
                rep.index = r->uint_member("index");
                rep.seconds = r->find("seconds")->number_value;
                if (const JsonValue* e = r->find("error")) rep.error = e->string_value;
                if (const JsonValue* o = r->find("output")) rep.output_path = o->string_value;
                if (const JsonValue* s = r->find("realized_supersteps")) {
                    rep.has_adaptive = true;
                    rep.realized_supersteps = s->uint_value;
                }
                const JsonValue* stats = r->find("stats");
                rep.stats.supersteps = stats->uint_member("supersteps");
                rep.stats.attempted = stats->uint_member("attempted");
                rep.stats.accepted = stats->uint_member("accepted");
                first_start = std::min(first_start, t - rep.seconds);
                out.replicates.push_back(rep);
            } else if (kind == "error") {
                out.error = event.string_member("message");
            } else if (kind == "done") {
                out.done_t = t;
                const std::string& status = event.string_member("status");
                if (status != "succeeded" && out.error.empty()) {
                    out.error = "job " + status;
                }
                for (const ReplicateReport& r : out.replicates) {
                    if (!r.error.empty() && out.error.empty()) out.error = r.error;
                }
                out.ok = out.error.empty();
                break;
            }
        }
        out.first_start_t = std::max(out.accepted_t, std::min(first_start, out.done_t));
    } catch (const std::exception& e) {
        out.error = e.what();
        out.ok = false;
    }
    return out;
}

// ------------------------------------------------------------ metric names

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"setup_s", "s"},
        {"replicate_s", "s"},
        {"samples_per_s", "1/s"},
        {"seq_es_replicate_s", "s"},
        {"job_latency_p50_s", "s"},
        {"job_latency_p90_s", "s"},
        {"peak_rss_mb", "MiB"},
    };
    return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"graph.read_s", "s"},
        {"gen.realize_s", "s"},
        {"core.construct_s", "s"},
        {"hashing.edgeset.fill_s", "s"},
        {"core.superstep_s", "s"},
        {"core.switches_per_s", "1/s"},
        {"rng.sample_s", "s"},
        {"core.first_round_s", "s"},
        {"core.later_rounds_share", "ratio"},
        {"core.rounds_per_superstep", "count"},
        {"core.superstep_rest_s", "s"},
        {"hashing.deptable.register_s", "s"},
        {"hashing.edgeset.apply_mops", "Mops/s"},
        {"hashing.edgeset.contains_mops", "Mops/s"},
        {"hashing.deptable.bytes", "B"},
        {"core.accept_ratio", "ratio"},
        {"graph.verify_s", "s"},
        {"graph.adjacency_s", "s"},
        {"graph.triangles_s", "s"},
        {"graph.metrics_other_s", "s"},
        {"graph.write_s", "s"},
        {"graph.write_mb_per_s", "MB/s"},
        {"graph.checkpoint_s", "s"},
        {"analysis.observe_s", "s"},
        {"analysis.realized_supersteps", "count"},
        {"analysis.autocorr_bytes", "B"},
        {"parallel.lease_wait_s", "s"},
        {"pipeline.occupancy", "ratio"},
        {"pipeline.coverage", "ratio"},
        {"pipeline.unattributed_s", "s"},
        {"service.admission_s", "s"},
        {"service.queue_s", "s"},
        {"service.stream_s", "s"},
        {"service.stream_mb_per_s", "MB/s"},
        {"obs.trace_overhead", "ratio"},
    };
    return names;
}

} // namespace e2e
