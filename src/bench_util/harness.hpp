/// \file harness.hpp
/// \brief Shared measurement harness for the figure/table benches.
///
/// Mirrors the paper's benchmark protocol (§6.2): each measurement times
/// *data-structure initialization plus N supersteps* of a chain on a given
/// initial graph.  A timeout turns runaway cells into "—" entries like the
/// paper's Fig. 4 (the run is cut off between supersteps, so the reported
/// value is only used as a lower bound / DNF marker).
#pragma once

#include "core/chain.hpp"
#include "util/format.hpp"
#include "util/timer.hpp"

#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace gesmc {

struct BenchMeasurement {
    double seconds = 0;          ///< init + supersteps (valid iff finished)
    bool finished = false;       ///< false: timeout hit
    std::uint64_t supersteps_done = 0;
    ChainStats stats;
};

namespace detail {
/// The timing loop of both time_chain overloads: advances a chain built
/// since `timer` started, one superstep at a time, until `supersteps` are
/// done or `timeout_s` is exceeded.
template <typename C>
BenchMeasurement run_timed(const Timer& timer, C& chain, std::uint64_t supersteps,
                           double timeout_s) {
    BenchMeasurement m;
    for (; m.supersteps_done < supersteps; ++m.supersteps_done) {
        if (timer.elapsed_s() > timeout_s) break;
        chain.run_supersteps(1);
    }
    m.seconds = timer.elapsed_s();
    m.finished = m.supersteps_done == supersteps;
    m.stats = chain.stats();
    return m;
}
} // namespace detail

/// Times chain construction + `supersteps` supersteps; aborts between
/// supersteps once `timeout_s` is exceeded.
BenchMeasurement time_chain(ChainAlgorithm algo, const EdgeList& initial,
                            const ChainConfig& config, std::uint64_t supersteps,
                            double timeout_s = 1e30);

/// The same measurement for a chain outside make_chain's list, built as
/// `C(initial, config)`: NaiveParES (naive_par_es.hpp).
template <typename C>
BenchMeasurement time_chain(const EdgeList& initial, const ChainConfig& config,
                            std::uint64_t supersteps, double timeout_s = 1e30) {
    const Timer timer;
    C chain(initial, config);
    return detail::run_timed(timer, chain, supersteps, timeout_s);
}

/// "1.23" or the DNF dash, mirroring the paper's table.
std::string format_cell(const BenchMeasurement& m);

/// Hardware threads available (the bench's stand-in for the paper's P=32).
unsigned bench_max_threads();

/// Measures the machine's *attainable* self speed-up at P threads with an
/// embarrassingly parallel compute kernel.  Container/VM environments often
/// advertise more concurrency than they deliver; scaling benches print this
/// ceiling so readers can judge the chain speed-ups against it.
double measure_parallel_ceiling(unsigned threads);

/// Prints the standard bench preamble (machine info, scaling note).
void print_bench_header(const std::string& title, const std::string& paper_ref);

// --------------------------------------------------------------------------
// Machine-readable bench output (BENCH_<name>.json; schema gesmc-bench-v1,
// docs/observability.md).  The CI regression gate diffs a fresh run against
// the committed baseline and only compares runs from the same host class.

/// One benchmark's aggregate over its repetitions.
struct BenchResult {
    std::string name;            ///< e.g. "BM_SeqES_Prefetch"
    double median_seconds = 0;   ///< median per-iteration wall time
    double items_per_second = 0; ///< median items/sec counter (0 = no counter)
    std::uint64_t repetitions = 0;

    /// Optional named counters emitted as a "counters" object (insertion
    /// order preserved) — e.g. bench_adaptive's realized supersteps.  The
    /// regression gate ignores them; they exist so a reader can explain a
    /// timing delta from the JSON.
    std::vector<std::pair<std::string, double>> counters;
};

/// Identifies the machine class a bench ran on.  `fingerprint` is the
/// equality key the regression gate uses: numbers from different hardware
/// are not comparable, so a mismatch downgrades the gate to informational.
struct BenchHost {
    std::string fingerprint; ///< "<os>/<arch>/<cpu>/ht<N>"
    std::string os;          ///< uname sysname + release
    std::string arch;        ///< uname machine
    std::string cpu;         ///< /proc/cpuinfo "model name" ("" if unknown)
    unsigned hardware_threads = 0;
    double parallel_ceiling = 0; ///< measured self speed-up at ht (0 = not run)
};

/// A whole bench binary's results.
struct BenchSuite {
    std::string bench; ///< e.g. "switching" -> BENCH_switching.json
    BenchHost host;
    std::vector<BenchResult> results;
};

/// Fills every BenchHost field except parallel_ceiling.
[[nodiscard]] BenchHost bench_host_info();

/// Median of `values` (consumed by sorting); 0 for an empty vector.
[[nodiscard]] double median_of(std::vector<double> values);

/// Serializes the suite as the gesmc-bench-v1 JSON document.
void write_bench_json(std::ostream& os, const BenchSuite& suite);

/// Writes the document to `path`.  Throws Error, writing nothing, when the
/// suite has no results: an empty document would pass the regression gate
/// without comparing anything.
void write_bench_json_file(const std::string& path, const BenchSuite& suite);

} // namespace gesmc
