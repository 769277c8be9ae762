// Tests for the observability subsystem: the sharded metrics registry
// (exact sums under a concurrent hammer — run under TSan in CI), the
// disabled-by-default contract, histogram bucketing, metrics JSON
// round-trips, Chrome trace_event emission, the telemetry sampler (ring
// wraparound, counter-delta rate math, Prometheus exposition, a concurrent
// sample-vs-record hammer), the structured event log, and the headline
// guarantee that instrumentation never changes sampled bytes.
#include "core/chain.hpp"
#include "gen/gnp.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "pipeline/config.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/report.hpp"
#include "service/json.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

namespace gesmc {
namespace {

namespace fs = std::filesystem;

/// Every test leaves the process flags as it found them (off): the tests in
/// this binary share the global registry, the trace singleton and the event
/// log sink.
struct ObsFlagsGuard {
    ~ObsFlagsGuard() {
        obs::set_metrics_enabled(false);
        obs::TraceSession::stop();
        obs::close_log_sinks();
        obs::set_log_level(obs::LogLevel::kInfo);
    }
};

std::uint64_t counter_value(const obs::MetricsSnapshot& snapshot,
                            const std::string& name) {
    for (const auto& [n, v] : snapshot.counters) {
        if (n == name) return v;
    }
    ADD_FAILURE() << "counter not in snapshot: " << name;
    return 0;
}

std::string slurp(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

// ------------------------------------------------------------------ metrics

TEST(Metrics, DisabledRecordingIsANoOp) {
    ObsFlagsGuard guard;
    obs::set_metrics_enabled(false);
    obs::Counter& counter =
        obs::MetricsRegistry::instance().counter("test.disabled.counter");
    obs::Gauge& gauge = obs::MetricsRegistry::instance().gauge("test.disabled.gauge");
    counter.add(42);
    gauge.set(7);
    gauge.add(3);
    obs::MetricsRegistry::instance().histogram("test.disabled.hist").record(9);
    EXPECT_EQ(counter.total(), 0u);
    EXPECT_EQ(gauge.value(), 0);

    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::instance().snapshot();
    EXPECT_FALSE(snapshot.enabled);
    EXPECT_EQ(counter_value(snapshot, "test.disabled.counter"), 0u);
}

TEST(Metrics, RegistryReturnsStableHandles) {
    obs::Counter& a = obs::MetricsRegistry::instance().counter("test.stable");
    obs::Counter& b = obs::MetricsRegistry::instance().counter("test.stable");
    EXPECT_EQ(&a, &b);
}

TEST(Metrics, ConcurrentHammerSumsExactly) {
    // The sharded counters' correctness contract: adds from many threads are
    // never lost, and a snapshot taken after joining sees the exact total.
    // Concurrent snapshot() calls while writers run must also be safe (they
    // may see partial sums, never torn ones) — TSan in CI checks that.
    ObsFlagsGuard guard;
    obs::set_metrics_enabled(true);
    obs::MetricsRegistry::instance().reset();
    obs::Counter& counter = obs::MetricsRegistry::instance().counter("test.hammer");
    obs::Gauge& gauge = obs::MetricsRegistry::instance().gauge("test.hammer.gauge");
    obs::Histogram& hist =
        obs::MetricsRegistry::instance().histogram("test.hammer.hist");

    constexpr unsigned kThreads = 8;
    constexpr std::uint64_t kAdds = 50'000;
    std::atomic<bool> stop_snapshots{false};
    std::thread snapshotter([&] {
        while (!stop_snapshots.load(std::memory_order_relaxed)) {
            (void)obs::MetricsRegistry::instance().snapshot();
        }
    });
    std::vector<std::thread> writers;
    for (unsigned t = 0; t < kThreads; ++t) {
        writers.emplace_back([&counter, &gauge, &hist] {
            for (std::uint64_t i = 0; i < kAdds; ++i) {
                counter.add(1);
                counter.add(3);
                gauge.add(1);
                gauge.add(-1);
                hist.record(i & 1023);
            }
        });
    }
    for (std::thread& w : writers) w.join();
    stop_snapshots.store(true, std::memory_order_relaxed);
    snapshotter.join();

    EXPECT_EQ(counter.total(), kThreads * kAdds * 4);
    EXPECT_EQ(gauge.value(), 0);
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::instance().snapshot();
    EXPECT_EQ(counter_value(snapshot, "test.hammer"), kThreads * kAdds * 4);
    for (const obs::HistogramSnapshot& h : snapshot.histograms) {
        if (h.name != "test.hammer.hist") continue;
        EXPECT_EQ(h.count, kThreads * kAdds);
        EXPECT_EQ(h.max, 1023u);
    }
}

TEST(Metrics, HistogramBucketsByBitWidth) {
    ObsFlagsGuard guard;
    obs::set_metrics_enabled(true);
    obs::MetricsRegistry::instance().reset();
    obs::Histogram& hist =
        obs::MetricsRegistry::instance().histogram("test.buckets");
    hist.record(0);
    hist.record(1);
    hist.record(5);       // bit_width 3 -> bucket [4, 7]
    hist.record(1000000); // bit_width 20 -> bucket [524288, 1048575]

    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::instance().snapshot();
    bool found = false;
    for (const obs::HistogramSnapshot& h : snapshot.histograms) {
        if (h.name != "test.buckets") continue;
        found = true;
        EXPECT_EQ(h.count, 4u);
        EXPECT_EQ(h.sum, 1000006u);
        EXPECT_EQ(h.max, 1000000u);
        ASSERT_EQ(h.buckets.size(), 4u);
        EXPECT_EQ(h.buckets[0].upper_bound, 0u);
        EXPECT_EQ(h.buckets[1].upper_bound, 1u);
        EXPECT_EQ(h.buckets[2].upper_bound, 7u);
        EXPECT_EQ(h.buckets[3].upper_bound, (1u << 20) - 1);
        for (const auto& bucket : h.buckets) EXPECT_EQ(bucket.count, 1u);
    }
    EXPECT_TRUE(found);
}

TEST(Metrics, SnapshotJsonRoundTripsThroughTheParser) {
    ObsFlagsGuard guard;
    obs::set_metrics_enabled(true);
    obs::MetricsRegistry::instance().reset();
    obs::MetricsRegistry::instance().counter("test.json.counter").add(11);
    obs::MetricsRegistry::instance().gauge("test.json.gauge").set(4);
    obs::MetricsRegistry::instance().histogram("test.json.hist").record(100);

    std::ostringstream os;
    JsonWriter w(os);
    obs::write_metrics_json(w, obs::MetricsRegistry::instance().snapshot());
    const JsonValue doc = parse_json(os.str());
    EXPECT_TRUE(doc.find("enabled")->bool_value);
    EXPECT_EQ(doc.find("counters")->uint_member("test.json.counter"), 11u);
    EXPECT_EQ(doc.find("gauges")->uint_member("test.json.gauge"), 4u);
    const JsonValue* hist = doc.find("histograms")->find("test.json.hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->uint_member("count"), 1u);
    EXPECT_EQ(hist->uint_member("sum"), 100u);
    EXPECT_EQ(hist->uint_member("max"), 100u);
}

// -------------------------------------------------------------------- trace

TEST(Trace, SpansOutsideASessionAreDropped) {
    ObsFlagsGuard guard;
    EXPECT_FALSE(obs::trace_enabled());
    { const obs::TraceSpan span("orphan", "test"); }
    obs::TraceSession::start();
    EXPECT_EQ(obs::TraceSession::event_count(), 0u);
    obs::TraceSession::stop();
}

TEST(Trace, SpanStraddlingStopIsDropped) {
    // A span constructed in one session and destroyed in the next must not
    // record against the wrong epoch (its timestamps are meaningless there).
    ObsFlagsGuard guard;
    obs::TraceSession::start();
    auto straddler = std::make_unique<obs::TraceSpan>("straddler", "test");
    obs::TraceSession::stop();
    obs::TraceSession::start();
    straddler.reset();
    EXPECT_EQ(obs::TraceSession::event_count(), 0u);
    obs::TraceSession::stop();
}

TEST(Trace, EmitsChromeTraceEventJson) {
    ObsFlagsGuard guard;
    obs::TraceSession::start();
    {
        const obs::TraceSpan outer("superstep", "core",
                                   {{"replicate", 2}, {"superstep", 7}});
        const obs::TraceSpan inner("lease.wait", "parallel", {{"width", 3}});
    }
    EXPECT_EQ(obs::TraceSession::event_count(), 2u);
    const std::string json = obs::TraceSession::stop_to_string();

    const JsonValue doc = parse_json(json);
    EXPECT_EQ(doc.string_member("displayTimeUnit"), "ms");
    const JsonValue* events = doc.find("traceEvents");
    ASSERT_TRUE(events != nullptr && events->is_array());
    ASSERT_EQ(events->array_items.size(), 2u);
    bool saw_superstep = false, saw_wait = false;
    for (const JsonValue& event : events->array_items) {
        EXPECT_EQ(event.string_member("ph"), "X");
        EXPECT_GE(event.find("ts")->number_value, 0.0);
        EXPECT_GE(event.find("dur")->number_value, 0.0);
        EXPECT_EQ(event.uint_member("pid"), 1u);
        if (event.string_member("name") == "superstep") {
            saw_superstep = true;
            EXPECT_EQ(event.string_member("cat"), "core");
            EXPECT_EQ(event.find("args")->uint_member("replicate"), 2u);
            EXPECT_EQ(event.find("args")->uint_member("superstep"), 7u);
        } else if (event.string_member("name") == "lease.wait") {
            saw_wait = true;
            EXPECT_EQ(event.find("args")->uint_member("width"), 3u);
        }
    }
    EXPECT_TRUE(saw_superstep);
    EXPECT_TRUE(saw_wait);

    // The session ended: a fresh one starts empty.
    obs::TraceSession::start();
    EXPECT_EQ(obs::TraceSession::event_count(), 0u);
    obs::TraceSession::stop();
}

TEST(Trace, ConcurrentSpansDuringStartStopAreRaceFree) {
    // Regression for a data race the lock-audit surfaced: TraceSpan
    // timestamps read the session epoch without the trace mutex while
    // start() rewrote it under the mutex.  The epoch is an atomic now;
    // spans racing session restarts must neither tear nor trip TSan
    // (this test runs in the TSan CI job).
    ObsFlagsGuard guard;
    std::atomic<bool> stop{false};
    std::vector<std::thread> spanners;
    spanners.reserve(4);
    for (int t = 0; t < 4; ++t) {
        spanners.emplace_back([&stop] {
            while (!stop.load(std::memory_order_relaxed)) {
                const obs::TraceSpan span("racer", "test", {{"arg", 1}});
            }
        });
    }
    for (int cycle = 0; cycle < 50; ++cycle) {
        obs::TraceSession::start();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        obs::TraceSession::stop();
    }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : spanners) t.join();
    // Sessions stopped with spans in flight: nothing may leak into a new one.
    obs::TraceSession::start();
    EXPECT_EQ(obs::TraceSession::event_count(), 0u);
    obs::TraceSession::stop();
}

TEST(Trace, SuperstepPhasesNestInsideSupersteps) {
    // A traced ParGlobalES run shows where a superstep's time goes: its
    // registration, decision-round and apply phases, and the edge-set
    // refills that tombstones call for, are spans nested in the superstep
    // span that ran them.  Names and nesting only; never timings.
    ObsFlagsGuard guard;
    const EdgeList g = generate_gnp(2000, gnp_probability_for_edges(2000, 10000), 5);
    ChainConfig config;
    config.seed = 3;
    config.threads = 2;
    const auto chain = make_chain(ChainAlgorithm::kParGlobalES, g, config);
    constexpr std::uint64_t kSupersteps = 8;
    obs::TraceSession::start();
    run_checkpointed(*chain, kSupersteps, 0, nullptr, 0, [] {});
    const JsonValue doc = parse_json(obs::TraceSession::stop_to_string());

    struct Span {
        std::string name;
        double begin = 0, end = 0; // microseconds
        std::uint64_t tid = 0;
    };
    std::vector<Span> spans;
    for (const JsonValue& event : doc.find("traceEvents")->array_items) {
        const double ts = event.find("ts")->number_value;
        spans.push_back({event.string_member("name"), ts, ts + event.find("dur")->number_value,
                         event.uint_member("tid")});
    }
    const auto count = [&](const std::string& name, bool nested_only) {
        std::size_t n = 0;
        for (const Span& inner : spans) {
            if (inner.name != name) continue;
            bool nested = false;
            for (const Span& outer : spans) {
                // Timestamps are whole nanoseconds; allow one for rounding.
                nested |= outer.name == "superstep" && outer.tid == inner.tid &&
                          outer.begin <= inner.begin + 1e-3 && inner.end <= outer.end + 1e-3;
            }
            if (nested || !nested_only) ++n;
        }
        return n;
    };
    EXPECT_EQ(count("superstep", false), kSupersteps);
    for (const char* phase : {"superstep.register", "superstep.rounds", "superstep.apply"}) {
        EXPECT_EQ(count(phase, true), kSupersteps) << phase;
        EXPECT_EQ(count(phase, false), kSupersteps) << phase;
    }
    EXPECT_GE(count("edgeset.refill", true), 1u);
}

// ---------------------------------------------------------------- telemetry

TEST(Telemetry, QuantileInterpolatesWithinLog2Buckets) {
    obs::HistogramSnapshot h;
    h.count = 10;
    h.max = 7;
    h.buckets = {{0, 2}, {1, 3}, {7, 5}};
    // rank(0.5) = 5 lands in the [1, 1] bucket: exact, no interpolation.
    EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 0.5), 1.0);
    // rank(0.9) = 9 lands in [4, 7] with 4 of its 5 ranks consumed:
    // 4 + (7 - 4) * (9 - 5) / 5 = 6.4.
    EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 0.9), 6.4);
    // The zero bucket reports exactly zero.
    EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 0.1), 0.0);
    // The estimate never exceeds the observed maximum.
    h.max = 5;
    EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 1.0), 5.0);

    const obs::HistogramSnapshot empty;
    EXPECT_DOUBLE_EQ(obs::histogram_quantile(empty, 0.5), 0.0);
}

TEST(Telemetry, DiffSnapshotsComputesRatesAndClampsResets) {
    obs::MetricsSnapshot prev;
    obs::MetricsSnapshot cur;
    prev.enabled = cur.enabled = true;
    prev.counters = {{"steady", 100}, {"was_reset", 50}};
    cur.counters = {{"fresh", 30}, {"steady", 300}, {"was_reset", 10}};
    cur.gauges = {{"assortativity_milli", -42}, {"occupancy", 5}};
    obs::HistogramSnapshot ph;
    ph.name = "wait";
    ph.count = 2;
    ph.sum = 2;
    ph.max = 1;
    ph.buckets = {{1, 2}};
    obs::HistogramSnapshot ch = ph;
    ch.count = 6;
    ch.sum = 22;
    ch.max = 7;
    ch.buckets = {{1, 2}, {7, 4}};
    prev.histograms = {ph};
    cur.histograms = {ch};

    const obs::TelemetryTick tick = obs::diff_snapshots(prev, cur, 2.0);

    ASSERT_EQ(tick.counter_rates.size(), 3u);
    EXPECT_EQ(tick.counter_rates[0].first, "fresh");
    EXPECT_DOUBLE_EQ(tick.counter_rates[0].second, 15.0); // implicit previous 0
    EXPECT_EQ(tick.counter_rates[1].first, "steady");
    EXPECT_DOUBLE_EQ(tick.counter_rates[1].second, 100.0); // (300-100)/2s
    EXPECT_EQ(tick.counter_rates[2].first, "was_reset");
    EXPECT_DOUBLE_EQ(tick.counter_rates[2].second, 0.0); // reset clamps, not -20

    // Gauges pass through as point-in-time values, sign preserved.
    ASSERT_EQ(tick.gauges.size(), 2u);
    EXPECT_EQ(tick.gauges[0].second, -42);

    // The histogram window holds only the interval's 4 new samples (all in
    // [4, 7]); quantiles interpolate the *delta* buckets.
    ASSERT_EQ(tick.histograms.size(), 1u);
    EXPECT_EQ(tick.histograms[0].count, 4u);
    EXPECT_DOUBLE_EQ(tick.histograms[0].rate, 2.0);
    EXPECT_DOUBLE_EQ(tick.histograms[0].p50, 5.5); // 4 + 3 * (2/4)
    EXPECT_DOUBLE_EQ(tick.histograms[0].p90, 6.7); // 4 + 3 * (3.6/4)
    EXPECT_EQ(tick.histograms[0].max, 7u);         // cumulative max

    // The NDJSON row round-trips through the service parser with the same
    // numbers — including the negative gauge (the double emission path).
    // …and it is genuinely one line (the NDJSON contract).
    EXPECT_EQ(telemetry_tick_ndjson(tick).find('\n'), std::string::npos);
    const JsonValue row = parse_json(telemetry_tick_ndjson(tick));
    EXPECT_DOUBLE_EQ(row.find("rates")->find("steady")->number_value, 100.0);
    EXPECT_DOUBLE_EQ(row.find("gauges")->find("assortativity_milli")->number_value,
                     -42.0);
    EXPECT_EQ(row.find("histograms")->find("wait")->uint_member("count"), 4u);
    EXPECT_DOUBLE_EQ(row.find("interval_s")->number_value, 2.0);

    // A zero interval (first-ever sample) must not divide by zero.
    const obs::TelemetryTick first = obs::diff_snapshots({}, cur, 0.0);
    for (const auto& [name, rate] : first.counter_rates) {
        EXPECT_DOUBLE_EQ(rate, 0.0) << name;
    }
}

TEST(Telemetry, RingWrapsKeepingTheNewestTicks) {
    ObsFlagsGuard guard;
    obs::set_metrics_enabled(true);
    obs::MetricsRegistry::instance().reset();
    obs::TelemetrySamplerConfig config;
    config.ring_capacity = 4;
    config.executor_stats = [] {
        ExecutorStats stats;
        stats.threads = 8;
        stats.leased = 3;
        return stats;
    };
    obs::TelemetrySampler sampler(config);
    for (int i = 0; i < 10; ++i) (void)sampler.sample_now();

    EXPECT_EQ(sampler.ticks(), 10u);
    ASSERT_TRUE(sampler.latest().has_value());
    EXPECT_EQ(sampler.latest()->sequence, 10u);
    EXPECT_EQ(sampler.latest()->executor.threads, 8u);
    EXPECT_EQ(sampler.latest()->executor.leased, 3u);

    // Only the newest `ring_capacity` ticks survive, oldest first.
    const std::vector<obs::TelemetryTick> all = sampler.since(0);
    ASSERT_EQ(all.size(), 4u);
    EXPECT_EQ(all.front().sequence, 7u);
    EXPECT_EQ(all.back().sequence, 10u);

    const std::vector<obs::TelemetryTick> tail = sampler.since(8);
    ASSERT_EQ(tail.size(), 2u);
    EXPECT_EQ(tail[0].sequence, 9u);
    EXPECT_EQ(tail[1].sequence, 10u);

    EXPECT_TRUE(sampler.since(10).empty());

    // wait_for_tick returns an already-buffered tick without blocking and
    // times out (nullopt) when nothing newer arrives.
    const auto buffered = sampler.wait_for_tick(8, std::chrono::milliseconds(0));
    ASSERT_TRUE(buffered.has_value());
    EXPECT_EQ(buffered->sequence, 9u);
    EXPECT_FALSE(sampler.wait_for_tick(10, std::chrono::milliseconds(1)).has_value());
}

TEST(Telemetry, ConcurrentSampleAndRecordIsRaceFree) {
    // The sampler only ever reads shared state; writers hammering counters
    // and histograms while ticks fire must be race-free (TSan in CI) and
    // rates must come out non-negative.
    ObsFlagsGuard guard;
    obs::set_metrics_enabled(true);
    obs::MetricsRegistry::instance().reset();
    obs::Counter& counter =
        obs::MetricsRegistry::instance().counter("test.telemetry.hammer");
    obs::Histogram& hist =
        obs::MetricsRegistry::instance().histogram("test.telemetry.hammer.hist");

    obs::TelemetrySamplerConfig config;
    config.interval = std::chrono::milliseconds(1);
    config.ring_capacity = 8;
    obs::TelemetrySampler sampler(config);
    sampler.start(); // background thread ticks while we also sample inline

    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
        writers.emplace_back([&counter, &hist, &stop] {
            std::uint64_t i = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                counter.add(1);
                hist.record(i++ & 255);
            }
        });
    }
    // The writers must actually have started before the inline sampling
    // burst, or all 50 ticks could race past an unscheduled thread.
    while (counter.total() == 0) std::this_thread::yield();
    obs::TelemetryTick last;
    for (int i = 0; i < 50; ++i) last = sampler.sample_now();
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& w : writers) w.join();
    sampler.stop();

    EXPECT_GE(sampler.ticks(), 50u);
    for (const auto& [name, rate] : last.counter_rates) {
        EXPECT_GE(rate, 0.0) << name;
    }
    bool found = false;
    for (const auto& [name, total] : last.counter_totals) {
        if (name == "test.telemetry.hammer") found = total > 0;
    }
    EXPECT_TRUE(found);
}

TEST(Telemetry, PrometheusExpositionIsWellFormed) {
    obs::MetricsSnapshot snapshot;
    snapshot.enabled = true;
    snapshot.counters = {{"chain.switches.attempted", 12345}};
    snapshot.gauges = {{"analysis.replicate.assortativity_milli", -250}};
    obs::HistogramSnapshot h;
    h.name = "executor.lease.wait_us";
    h.count = 3;
    h.sum = 10;
    h.max = 5;
    h.buckets = {{1, 1}, {7, 2}};
    h.p50 = obs::histogram_quantile(h, 0.50);
    h.p90 = obs::histogram_quantile(h, 0.90);
    h.p99 = obs::histogram_quantile(h, 0.99);
    snapshot.histograms = {h};

    std::ostringstream os;
    obs::write_metrics_prometheus(os, snapshot);
    const std::string text = os.str();

    // Names are sanitized to the Prometheus charset ('.' -> '_', gesmc_
    // prefix); every family carries HELP + TYPE.
    EXPECT_NE(text.find("# TYPE gesmc_chain_switches_attempted counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("gesmc_chain_switches_attempted 12345\n"),
              std::string::npos);
    EXPECT_NE(
        text.find("# TYPE gesmc_analysis_replicate_assortativity_milli gauge\n"),
        std::string::npos);
    EXPECT_NE(text.find("gesmc_analysis_replicate_assortativity_milli -250\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE gesmc_executor_lease_wait_us summary\n"),
              std::string::npos);
    EXPECT_NE(text.find("gesmc_executor_lease_wait_us{quantile=\"0.5\"} "),
              std::string::npos);
    EXPECT_NE(text.find("gesmc_executor_lease_wait_us_sum 10\n"),
              std::string::npos);
    EXPECT_NE(text.find("gesmc_executor_lease_wait_us_count 3\n"),
              std::string::npos);
    // No sample line carries an unsanitized metric name (HELP text may
    // mention the dotted registry name; sample lines must not).
    EXPECT_EQ(text.find("\nchain."), std::string::npos);
    EXPECT_EQ(text.find("\nexecutor."), std::string::npos);
    EXPECT_EQ(text.back(), '\n');
}

// ---------------------------------------------------------------- event log

TEST(EventLog, EmitsParseableLeveledJsonLines) {
    ObsFlagsGuard guard;
    const fs::path log_path =
        fs::path(testing::TempDir()) / "gesmc_obs_events.ndjson";
    fs::remove(log_path);
    ASSERT_TRUE(obs::set_log_file(log_path.string()));
    obs::set_log_level(obs::LogLevel::kInfo);

    EXPECT_TRUE(obs::log_enabled(obs::LogLevel::kWarn));
    EXPECT_FALSE(obs::log_enabled(obs::LogLevel::kDebug));

    GESMC_LOG_EVENT(Info, "test", "lifecycle")
        .str("phase", "start \"quoted\"")
        .num("replicates", 8)
        .snum("z_milli", -1250)
        .real("seconds", 0.25)
        .flag("resumed", false);
    GESMC_LOG_EVENT(Debug, "test", "filtered").num("never", 1);
    obs::close_log_sinks();

    std::ifstream is(log_path);
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    const JsonValue doc = parse_json(line);
    EXPECT_EQ(doc.string_member("level"), "info");
    EXPECT_EQ(doc.string_member("component"), "test");
    EXPECT_EQ(doc.string_member("event"), "lifecycle");
    EXPECT_EQ(doc.string_member("phase"), "start \"quoted\"");
    EXPECT_EQ(doc.uint_member("replicates"), 8u);
    EXPECT_DOUBLE_EQ(doc.find("z_milli")->number_value, -1250.0);
    EXPECT_DOUBLE_EQ(doc.find("seconds")->number_value, 0.25);
    EXPECT_FALSE(doc.find("resumed")->bool_value);
    EXPECT_GT(doc.uint_member("ts_ms"), 0u);
    // The debug event was filtered: exactly one line in the file.
    EXPECT_FALSE(std::getline(is, line));
}

// ----------------------------------------------- instrumented-run identity

TEST(Obs, InstrumentationNeverChangesSampledBytes) {
    // The headline contract (and the reason every record path is gated on
    // one flag): a fully instrumented run — metrics, tracing, the telemetry
    // sampler AND the event log all on — emits replicate graphs
    // byte-identical to a bare run of the same config.
    ObsFlagsGuard guard;
    const fs::path base_dir =
        fs::path(testing::TempDir()) / "gesmc_obs_identity";
    fs::remove_all(base_dir);
    const auto config_for = [&](const char* tag) {
        PipelineConfig c;
        c.input_kind = InputKind::kGenerator;
        c.generator = "powerlaw";
        c.gen_n = 400;
        c.gen_gamma = 2.2;
        c.algorithm = "par-global-es";
        c.supersteps = 5;
        c.replicates = 3;
        c.seed = 99;
        c.threads = 2;
        c.checkpoint_every = 2; // exercise the checkpoint + superstep spans
        c.metrics = false;
        c.output_dir = (base_dir / tag).string();
        c.output_format = OutputFormat::kBinary;
        return c;
    };

    obs::set_metrics_enabled(false);
    const RunReport bare = run_pipeline(config_for("bare"));
    ASSERT_TRUE(all_succeeded(bare));

    obs::set_metrics_enabled(true);
    obs::MetricsRegistry::instance().reset();
    obs::TraceSession::start();
    fs::create_directories(base_dir);
    const fs::path events_path = base_dir / "events.ndjson";
    ASSERT_TRUE(obs::set_log_file(events_path.string()));
    obs::set_log_level(obs::LogLevel::kDebug);
    obs::TelemetrySamplerConfig sampler_config;
    sampler_config.interval = std::chrono::milliseconds(5);
    sampler_config.ndjson_path = (base_dir / "telemetry.ndjson").string();
    obs::TelemetrySampler sampler(sampler_config);
    sampler.start();
    const RunReport instrumented = run_pipeline(config_for("instrumented"));
    (void)sampler.sample_now();
    sampler.stop();
    obs::close_log_sinks();
    obs::set_log_level(obs::LogLevel::kInfo);
    const std::string trace_json = obs::TraceSession::stop_to_string();
    obs::set_metrics_enabled(false);
    ASSERT_TRUE(all_succeeded(instrumented));

    ASSERT_EQ(bare.replicates.size(), instrumented.replicates.size());
    for (std::size_t r = 0; r < bare.replicates.size(); ++r) {
        EXPECT_EQ(slurp(bare.replicates[r].output_path),
                  slurp(instrumented.replicates[r].output_path))
            << "replicate " << r;
    }

    // The instrumented run actually measured: chain counters moved and the
    // trace holds replicate + superstep spans Perfetto can render.
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::instance().snapshot();
    EXPECT_GT(counter_value(snapshot, "chain.switches.attempted"), 0u);
    EXPECT_GT(counter_value(snapshot, "hashset.lookups"), 0u);
    const JsonValue trace = parse_json(trace_json);
    bool saw_replicate = false, saw_superstep = false;
    for (const JsonValue& event : trace.find("traceEvents")->array_items) {
        if (event.string_member("name") == "replicate") saw_replicate = true;
        if (event.string_member("name") == "superstep") saw_superstep = true;
    }
    EXPECT_TRUE(saw_replicate);
    EXPECT_TRUE(saw_superstep);

    // The sampler ticked (50ms+ of run on a 5ms interval, plus the final
    // synchronous flush) with monotone sequence/timestamps and non-negative
    // rates; the NDJSON sink holds one parseable row per tick.
    EXPECT_GE(sampler.ticks(), 1u);
    std::uint64_t prev_seq = 0;
    for (const obs::TelemetryTick& tick : sampler.since(0)) {
        EXPECT_GT(tick.sequence, prev_seq);
        prev_seq = tick.sequence;
        for (const auto& [name, rate] : tick.counter_rates) {
            EXPECT_GE(rate, 0.0) << name;
        }
    }
    std::ifstream rows(sampler_config.ndjson_path);
    std::string row_line;
    std::size_t rows_seen = 0;
    while (std::getline(rows, row_line)) {
        const JsonValue row = parse_json(row_line);
        EXPECT_GT(row.uint_member("seq"), 0u);
        ++rows_seen;
    }
    EXPECT_GE(rows_seen, 1u);

    // The event log narrated the run's lifecycle.
    const std::string events = slurp(events_path.string());
    EXPECT_NE(events.find("\"event\": \"run_started\""), std::string::npos);
    EXPECT_NE(events.find("\"event\": \"run_done\""), std::string::npos);
    EXPECT_NE(events.find("\"event\": \"replicate_done\""), std::string::npos);
}

} // namespace
} // namespace gesmc
