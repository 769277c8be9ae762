/// \file main.cpp
/// \brief gesmc_e2ebench — one workload of the end-to-end sampling benchmark.
///
///   gesmc_e2ebench --workload NAME --seed N --seconds S --trace 0|1
///                  --workdir DIR [--toy] [--drop-metric NAME]
///
/// Prints a context line (host calibration, reference digests, coverage)
/// and, last, the result line {"correct", "attempted", "failed", "metrics"}:
/// the end-to-end metrics with --trace 0, the per-layer metrics with
/// --trace 1.  Exits non-zero without a result line when the run cannot
/// produce every metric; --drop-metric (self-test only) withholds one metric
/// to prove that refusal.  See e2ebench/README.md.
#include "bench.hpp"

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <set>
#include <string>

namespace {

constexpr const char* kUsage =
    "usage: gesmc_e2ebench --workload NAME --seed N --seconds S --trace 0|1 "
    "--workdir DIR [--toy] [--drop-metric NAME]\n"
    "workloads: gnp-4m-intra | powerlaw-hh-hybrid | daemon-small-adaptive\n";

} // namespace

int main(int argc, char** argv) {
    e2e::Args args;
    std::string drop_metric;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--toy") {
            args.toy = true;
        } else if (arg == "--workload" && has_value) {
            args.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            args.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            args.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace" && has_value) {
            args.trace = std::string(argv[++i]) == "1";
        } else if (arg == "--workdir" && has_value) {
            args.workdir = argv[++i];
        } else if (arg == "--drop-metric" && has_value) {
            drop_metric = argv[++i];
        } else {
            std::cerr << "unknown or incomplete option: " << arg << "\n" << kUsage;
            return 2;
        }
    }
    const std::set<std::string> workloads = {"gnp-4m-intra", "powerlaw-hh-hybrid",
                                             "daemon-small-adaptive"};
    if (workloads.count(args.workload) == 0 || args.workdir.empty() || args.seconds <= 0) {
        std::cerr << kUsage;
        return 2;
    }

    std::filesystem::create_directories(args.workdir);
    e2e::Result result;
    int status = 0;
    try {
        e2e::note_host(result);
        if (args.workload == "daemon-small-adaptive") {
            e2e::run_daemon_workload(args, result);
        } else {
            e2e::run_batch_workload(args, result);
        }
        result.drop(drop_metric);
        const auto& required =
            args.trace ? e2e::per_layer_metrics() : e2e::end_to_end_metrics();
        if (!result.emit(required, args.workload)) status = 3;
    } catch (const std::exception& e) {
        std::cerr << "e2ebench: error: " << e.what() << "\n";
        status = 1;
    }
    std::error_code ec;
    std::filesystem::remove_all(args.workdir, ec);
    return status;
}
