/// \file gbench_json.hpp
/// \brief Google-Benchmark-to-JSON bridge for the bench_micro_* programs.
///
/// run_micro_bench() replaces BENCHMARK_MAIN(): it runs the registered
/// benchmarks with the normal console output intact and, when the process
/// was given `--bench-json=FILE`, additionally aggregates every
/// per-iteration run into medians and writes the gesmc-bench-v1 document
/// (docs/observability.md).  That file is what CI diffs against the
/// committed BENCH_<name>.json baselines; use --benchmark_repetitions=N to
/// make the median meaningful.
///
/// Header-only on purpose: only the bench_micro_* targets link Google
/// Benchmark, so this must not be compiled into gesmc_bench_util (which
/// test binaries link without it).
#pragma once

#include "bench_util/harness.hpp"

#include <benchmark/benchmark.h>

#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gesmc {

namespace bench_detail {

/// Passes every run through to the console and keeps the raw per-iteration
/// samples (seconds per iteration, items/sec) keyed by benchmark name.
/// Aggregate rows (mean/median/stddev from --benchmark_repetitions) are
/// skipped — the harness computes its own median from the raw runs.
class JsonCollectingReporter : public benchmark::ConsoleReporter {
public:
    /// name -> (seconds per iteration, items/sec counter or 0) samples.
    std::map<std::string, std::vector<std::pair<double, double>>> samples;

    void ReportRuns(const std::vector<Run>& runs) override {
        for (const Run& run : runs) {
            if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
            const double per_iteration =
                run.iterations > 0
                    ? run.real_accumulated_time / static_cast<double>(run.iterations)
                    : 0;
            double items_per_second = 0;
            const auto counter = run.counters.find("items_per_second");
            if (counter != run.counters.end()) {
                items_per_second = static_cast<double>(counter->second);
            }
            samples[run.benchmark_name()].emplace_back(per_iteration,
                                                       items_per_second);
        }
        ConsoleReporter::ReportRuns(runs);
    }
};

} // namespace bench_detail

/// Drop-in main() body for a micro bench.  `bench_name` names the suite in
/// the JSON document ("switching" -> the BENCH_switching.json baseline).
inline int run_micro_bench(const std::string& bench_name, int argc, char** argv) {
    // --bench-json=FILE is ours, not Google Benchmark's: strip it before
    // Initialize, which treats unknown flags as errors.
    std::string json_path;
    std::vector<char*> args;
    args.reserve(static_cast<std::size_t>(argc) + 1);
    for (int i = 0; i < argc; ++i) {
        constexpr std::string_view kFlag = "--bench-json=";
        const std::string_view arg = argv[i];
        if (arg.substr(0, kFlag.size()) == kFlag) {
            json_path = std::string(arg.substr(kFlag.size()));
            continue;
        }
        args.push_back(argv[i]);
    }
    args.push_back(nullptr); // argv contract: argv[argc] == nullptr
    int pass_argc = static_cast<int>(args.size()) - 1;
    benchmark::Initialize(&pass_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(pass_argc, args.data())) return 1;

    bench_detail::JsonCollectingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);

    if (!json_path.empty()) {
        BenchSuite suite;
        suite.bench = bench_name;
        suite.host = bench_host_info();
        for (const auto& [name, rows] : reporter.samples) {
            BenchResult result;
            result.name = name;
            result.repetitions = rows.size();
            std::vector<double> seconds, items;
            seconds.reserve(rows.size());
            items.reserve(rows.size());
            for (const auto& [per_iteration, items_per_second] : rows) {
                seconds.push_back(per_iteration);
                if (items_per_second > 0) items.push_back(items_per_second);
            }
            result.median_seconds = median_of(std::move(seconds));
            result.items_per_second = median_of(std::move(items));
            suite.results.push_back(std::move(result));
        }
        try {
            write_bench_json_file(json_path, suite);
        } catch (const Error& e) {
            std::cerr << "error: " << e.what() << "\n";
            if (suite.results.empty()) {
                // The medians come from the per-iteration runs, which this
                // flag keeps from the reporter.
                std::cerr << "hint: drop --benchmark_report_aggregates_only\n";
            }
            benchmark::Shutdown();
            return 1;
        }
        std::cerr << "bench JSON (" << suite.results.size() << " benchmarks) -> "
                  << json_path << "\n";
    }
    benchmark::Shutdown();
    return 0;
}

} // namespace gesmc
