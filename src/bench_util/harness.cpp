#include "bench_util/harness.hpp"

#include "parallel/thread_pool.hpp"
#include "util/check.hpp"
#include "util/json_writer.hpp"

#include <sys/utsname.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

namespace gesmc {

BenchMeasurement time_chain(ChainAlgorithm algo, const EdgeList& initial,
                            const ChainConfig& config, std::uint64_t supersteps,
                            double timeout_s) {
    const Timer timer;
    const auto chain = make_chain(algo, initial, config);
    return detail::run_timed(timer, *chain, supersteps, timeout_s);
}

std::string format_cell(const BenchMeasurement& m) {
    if (!m.finished) return "—";
    return fmt_double(m.seconds, m.seconds < 0.1 ? 4 : 2);
}

unsigned bench_max_threads() {
    return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

double calibration_kernel_seconds(unsigned threads) {
    ThreadPool pool(threads);
    constexpr std::uint64_t kWork = 200'000'000;
    volatile double sink = 0;
    Timer t;
    pool.for_chunks(0, kWork, [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
        double s = 0;
        for (std::uint64_t i = lo; i < hi; ++i) s += static_cast<double>(i & 1023) * 1e-9;
        sink = sink + s;
    });
    return t.elapsed_s();
}

} // namespace

double measure_parallel_ceiling(unsigned threads) {
    const double t1 = calibration_kernel_seconds(1);
    const double tp = calibration_kernel_seconds(threads);
    return t1 / tp;
}

namespace {

/// First /proc/cpuinfo "model name" value, or "" when unavailable (non-Linux
/// or restricted container) — the fingerprint still distinguishes hosts by
/// os/arch/thread count then.
std::string cpu_model_name() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0) continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos) break;
        std::size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ') ++begin;
        return line.substr(begin);
    }
    return "";
}

} // namespace

BenchHost bench_host_info() {
    BenchHost host;
    struct utsname uts;
    if (uname(&uts) == 0) {
        host.os = std::string(uts.sysname) + " " + uts.release;
        host.arch = uts.machine;
    }
    host.cpu = cpu_model_name();
    host.hardware_threads = bench_max_threads();
    std::ostringstream fp;
    fp << (host.os.empty() ? "unknown" : host.os) << "/"
       << (host.arch.empty() ? "unknown" : host.arch) << "/"
       << (host.cpu.empty() ? "unknown" : host.cpu) << "/ht"
       << host.hardware_threads;
    host.fingerprint = fp.str();
    return host;
}

double median_of(std::vector<double> values) {
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    if (values.size() % 2 == 1) return values[mid];
    return (values[mid - 1] + values[mid]) / 2;
}

void write_bench_json(std::ostream& os, const BenchSuite& suite) {
    JsonWriter w(os);
    w.begin_object();
    w.kv("schema", "gesmc-bench-v1");
    w.kv("bench", suite.bench);
    w.key("host");
    w.begin_object();
    w.kv("fingerprint", suite.host.fingerprint);
    w.kv("os", suite.host.os);
    w.kv("arch", suite.host.arch);
    w.kv("cpu", suite.host.cpu);
    w.kv("hardware_threads", suite.host.hardware_threads);
    if (suite.host.parallel_ceiling > 0) {
        w.kv("parallel_ceiling", suite.host.parallel_ceiling);
    }
    w.end_object();
    w.key("results");
    w.begin_array();
    for (const BenchResult& r : suite.results) {
        w.begin_object();
        w.kv("name", r.name);
        w.kv("median_seconds", r.median_seconds);
        if (r.items_per_second > 0) w.kv("items_per_second", r.items_per_second);
        w.kv("repetitions", r.repetitions);
        if (!r.counters.empty()) {
            w.key("counters");
            w.begin_object();
            for (const auto& [name, value] : r.counters) w.kv(name, value);
            w.end_object();
        }
        w.end_object();
    }
    w.end_array();
    w.end_object();
    os << "\n";
}

void write_bench_json_file(const std::string& path, const BenchSuite& suite) {
    GESMC_CHECK(!suite.results.empty(),
                "bench suite \"" + suite.bench + "\" has no results; refusing to write " + path);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    GESMC_CHECK(os.good(), "cannot open bench JSON file: " + path);
    write_bench_json(os, suite);
    GESMC_CHECK(os.good(), "cannot write bench JSON file: " + path);
}

void print_bench_header(const std::string& title, const std::string& paper_ref) {
    std::cout << "==================================================================\n"
              << title << "\n"
              << "Reproduces: " << paper_ref << "\n"
              << "Hardware threads: " << bench_max_threads()
              << " (paper: 64-core EPYC 7702P; absolute numbers are scaled\n"
              << "down — the reproduction target is the *shape*, see EXPERIMENTS.md)\n"
              << "==================================================================\n";
}

} // namespace gesmc
