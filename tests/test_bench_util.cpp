// Tests for the measurement harness the figure benches rely on: timing
// protocol (init + N supersteps), timeout/DNF semantics, cell formatting,
// the calibration kernel, and the gesmc-bench-v1 JSON aggregates the CI
// regression gate consumes.
#include "bench_util/harness.hpp"
#include "bench_util/naive_par_es.hpp"
#include "gen/gnp.hpp"
#include "service/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace gesmc {
namespace {

TEST(Harness, TimesInitPlusSupersteps) {
    const EdgeList g = generate_gnp(500, 0.02, 1);
    ChainConfig config;
    config.seed = 1;
    for (const auto& m : {time_chain(ChainAlgorithm::kSeqES, g, config, 3),
                          time_chain<NaiveParES>(g, config, 3)}) {
        EXPECT_TRUE(m.finished);
        EXPECT_EQ(m.supersteps_done, 3u);
        EXPECT_GT(m.seconds, 0.0);
        EXPECT_EQ(m.stats.supersteps, 3u);
        EXPECT_EQ(m.stats.attempted, 3 * (g.num_edges() / 2));
    }
}

TEST(Harness, TimeoutMarksDnf) {
    const EdgeList g = generate_gnp(2000, 0.05, 2);
    ChainConfig config;
    // Timeout of 0: the first between-superstep check already fires.
    const auto m = time_chain(ChainAlgorithm::kSeqES, g, config, 1000, /*timeout_s=*/0.0);
    EXPECT_FALSE(m.finished);
    EXPECT_LT(m.supersteps_done, 1000u);
    EXPECT_EQ(format_cell(m), "—");
}

TEST(Harness, FormatCellPrecision) {
    BenchMeasurement fast;
    fast.finished = true;
    fast.seconds = 0.01234;
    EXPECT_EQ(format_cell(fast), "0.0123");
    BenchMeasurement slow;
    slow.finished = true;
    slow.seconds = 12.3456;
    EXPECT_EQ(format_cell(slow), "12.35");
}

TEST(Harness, MaxThreadsPositive) { EXPECT_GE(bench_max_threads(), 1u); }

TEST(Harness, CalibrationCeilingSane) {
    // The ceiling is a ratio of two wall-clock runs, so a loaded host can
    // push even P=1 against itself far from 1x.  Only sanity is asserted.
    const double self_ratio = measure_parallel_ceiling(1);
    EXPECT_TRUE(std::isfinite(self_ratio));
    EXPECT_GT(self_ratio, 0.0);
}

TEST(BenchJson, MedianOfHandlesOddEvenAndEmpty) {
    EXPECT_EQ(median_of({}), 0.0);
    EXPECT_EQ(median_of({3.0}), 3.0);
    EXPECT_EQ(median_of({5.0, 1.0, 3.0}), 3.0);       // odd: middle value
    EXPECT_EQ(median_of({4.0, 1.0, 3.0, 2.0}), 2.5);  // even: midpoint
}

TEST(BenchJson, HostInfoCarriesAFingerprint) {
    const BenchHost host = bench_host_info();
    EXPECT_GE(host.hardware_threads, 1u);
    EXPECT_FALSE(host.fingerprint.empty());
    // The fingerprint embeds the thread count — different container shapes
    // on the same kernel must not compare as the same host class.
    EXPECT_NE(host.fingerprint.find("/ht"), std::string::npos);
}

TEST(BenchJson, WriteBenchJsonRoundTripsThroughTheParser) {
    BenchSuite suite;
    suite.bench = "switching";
    suite.host = bench_host_info();
    suite.host.parallel_ceiling = 3.5;
    BenchResult r;
    r.name = "BM_SeqES_Prefetch";
    r.median_seconds = 1.25e-3;
    r.items_per_second = 4.0e7;
    r.repetitions = 3;
    suite.results.push_back(r);
    r.name = "BM_NoCounter";
    r.items_per_second = 0; // omitted from the document
    suite.results.push_back(r);

    std::ostringstream os;
    write_bench_json(os, suite);
    const JsonValue doc = parse_json(os.str());
    EXPECT_EQ(doc.string_member("schema"), "gesmc-bench-v1");
    EXPECT_EQ(doc.string_member("bench"), "switching");
    const JsonValue* host = doc.find("host");
    ASSERT_NE(host, nullptr);
    EXPECT_EQ(host->string_member("fingerprint"), suite.host.fingerprint);
    EXPECT_EQ(host->uint_member("hardware_threads"), suite.host.hardware_threads);
    EXPECT_DOUBLE_EQ(host->find("parallel_ceiling")->number_value, 3.5);
    const JsonValue* results = doc.find("results");
    ASSERT_TRUE(results != nullptr && results->is_array());
    ASSERT_EQ(results->array_items.size(), 2u);
    EXPECT_EQ(results->array_items[0].string_member("name"), "BM_SeqES_Prefetch");
    EXPECT_DOUBLE_EQ(results->array_items[0].find("median_seconds")->number_value,
                     1.25e-3);
    EXPECT_DOUBLE_EQ(results->array_items[0].find("items_per_second")->number_value,
                     4.0e7);
    EXPECT_EQ(results->array_items[0].uint_member("repetitions"), 3u);
    EXPECT_EQ(results->array_items[1].find("items_per_second"), nullptr);
}

TEST(BenchJson, WriteBenchJsonFileRefusesAnEmptySuite) {
    // An empty results array would pass the regression gate vacuously, as
    // bench_micro_switching --benchmark_report_aggregates_only=true once
    // produced: the writer must fail and leave no document behind.
    const std::string path = ::testing::TempDir() + "gesmc_empty_bench.json";
    std::remove(path.c_str());
    BenchSuite suite;
    suite.bench = "switching";
    suite.host = bench_host_info();
    EXPECT_THROW(write_bench_json_file(path, suite), Error);
    EXPECT_FALSE(std::ifstream(path).good());

    BenchResult r;
    r.name = "BM_SeqES_Prefetch";
    r.median_seconds = 1e-3;
    r.repetitions = 1;
    suite.results.push_back(r);
    write_bench_json_file(path, suite);
    EXPECT_TRUE(std::ifstream(path).good());
    std::remove(path.c_str());
}

TEST(Harness, DeterministicMeasurementGraphs) {
    // Two measurements with the same config must agree on the statistics
    // (times differ, stats must not — they derive from the seed only).
    const EdgeList g = generate_gnp(400, 0.03, 3);
    ChainConfig config;
    config.seed = 9;
    const auto a = time_chain(ChainAlgorithm::kSeqGlobalES, g, config, 2);
    const auto b = time_chain(ChainAlgorithm::kSeqGlobalES, g, config, 2);
    EXPECT_EQ(a.stats.accepted, b.stats.accepted);
    EXPECT_EQ(a.stats.attempted, b.stats.attempted);
}

} // namespace
} // namespace gesmc
