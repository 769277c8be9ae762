/// \file timeseries.hpp
/// \brief Live telemetry: a background sampler turning the cumulative
/// metrics registry into per-interval rates, plus exporters.
///
/// The registry (obs/metrics.hpp) is cumulative-only: a counter answers
/// "how many ever", never "how fast right now".  TelemetrySampler closes
/// the gap: a background thread snapshots the registry plus (optionally)
/// `SharedExecutor::stats()` at a fixed interval, diffs consecutive
/// snapshots, and stores the resulting `TelemetryTick` — timestamp,
/// per-counter rates, per-interval histogram quantiles (e.g. the lease-wait
/// p99 *of this second*, not of the process lifetime), executor occupancy —
/// in a fixed-size ring buffer.
///
/// Consumers:
///   * the daemon's `watch` subscription pushes one 'J' frame per tick
///     (service/server.cpp), rendered live by tools/gesmc_top.cpp;
///   * `--telemetry-out FILE` appends one NDJSON row per tick, `tail -f`-able
///     like corpus_rows.ndjson;
///   * `write_metrics_prometheus` renders a cumulative snapshot in the
///     Prometheus text exposition format v0.0.4 (the daemon's `prom`
///     request and `gesmc_sample --metrics-prom`).
///
/// The sampler only ever *reads* shared state (registry snapshot, executor
/// stats) — it must never perturb sampled graph bytes, which
/// Obs.InstrumentationNeverChangesSampledBytes enforces with the sampler
/// running.
#pragma once

#include "obs/metrics.hpp"
#include "pipeline/shared_executor.hpp"

#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace gesmc::obs {

/// One sampling interval's worth of telemetry.
struct TelemetryTick {
    std::uint64_t sequence = 0;   ///< 1-based tick number (monotone)
    std::uint64_t ts_ms = 0;      ///< wall clock at sample time (Unix ms)
    double interval_s = 0.0;      ///< measured seconds since previous sample

    ExecutorStats executor;       ///< occupancy at sample time (zeros if unsourced)

    /// Cumulative totals at sample time, name-sorted (mirrors the registry).
    std::vector<std::pair<std::string, std::uint64_t>> counter_totals;
    /// Per-second rates over the interval: (total - previous) / interval_s.
    /// Non-negative by construction (counters are monotone).
    std::vector<std::pair<std::string, double>> counter_rates;
    /// Gauge values at sample time (point-in-time, no delta).
    std::vector<std::pair<std::string, std::int64_t>> gauges;

    /// Per-interval histogram activity: quantiles are interpolated from the
    /// *bucket deltas* of the interval, so they describe recent samples
    /// only.  `max` is cumulative (a per-interval max is not derivable from
    /// a monotone snapshot).
    struct HistogramWindow {
        std::string name;
        std::uint64_t count = 0;  ///< samples recorded this interval
        double rate = 0.0;        ///< count / interval_s
        double p50 = 0.0;
        double p90 = 0.0;
        double p99 = 0.0;
        std::uint64_t max = 0;    ///< cumulative max
    };
    std::vector<HistogramWindow> histograms;
};

/// Computes a tick from two consecutive registry snapshots.  Exposed for
/// the rate-math tests: the sampler thread calls exactly this.
[[nodiscard]] TelemetryTick diff_snapshots(const MetricsSnapshot& previous,
                                           const MetricsSnapshot& current,
                                           double interval_s);

/// Writes `e` as one JSON object: the executor member of telemetry rows,
/// `watch` frames and the daemon's `metrics` frame.
void write_executor_json(JsonWriter& w, const ExecutorStats& e);

/// Writes the members of one tick into the object `w` has open — the
/// `--telemetry-out` row schema (docs/observability.md), which the `watch`
/// frame carries after its {"event": "telemetry"}.
void write_telemetry_tick(JsonWriter& w, const TelemetryTick& tick);

/// Emits one tick as a single-line NDJSON row (no trailing newline).
[[nodiscard]] std::string telemetry_tick_ndjson(const TelemetryTick& tick);

/// Renders a cumulative snapshot in Prometheus text exposition format
/// v0.0.4: counters as `counter`, gauges as `gauge`, histograms as
/// `summary` (quantile labels from the interpolated p50/p90/p99) plus
/// `_sum`/`_count`.  Metric names are sanitized (`.` -> `_`, prefix
/// `gesmc_`).
void write_metrics_prometheus(std::ostream& os, const MetricsSnapshot& snapshot);

struct TelemetrySamplerConfig {
    std::chrono::milliseconds interval{1000};
    std::size_t ring_capacity = 256;
    /// Optional occupancy source (e.g. the daemon's SharedExecutor).
    /// Called from the sampler thread with no sampler locks held.
    std::function<ExecutorStats()> executor_stats;
    /// Optional NDJSON sink: one row appended (and flushed) per tick.
    std::string ndjson_path;
};

/// Background sampling thread + ring buffer.  start()/stop() bracket the
/// thread; sample_now() drives a tick synchronously (tests, final flush).
/// All public members are thread-safe.
class TelemetrySampler {
public:
    explicit TelemetrySampler(TelemetrySamplerConfig config);
    ~TelemetrySampler();

    TelemetrySampler(const TelemetrySampler&) = delete;
    TelemetrySampler& operator=(const TelemetrySampler&) = delete;

    /// Takes the baseline snapshot and launches the sampler thread.
    void start();

    /// Stops and joins the thread.  Idempotent; the ring stays readable.
    void stop();

    /// Takes one sample immediately and appends it to the ring (works with
    /// or without a running thread).  Returns the new tick.
    TelemetryTick sample_now();

    /// Most recent tick, if any tick exists.
    [[nodiscard]] std::optional<TelemetryTick> latest() const;

    /// All ring-resident ticks with sequence > `after_sequence`, oldest
    /// first.  Ticks older than the ring capacity are gone (it's a ring).
    [[nodiscard]] std::vector<TelemetryTick> since(std::uint64_t after_sequence) const;

    /// Blocks until a tick with sequence > `after_sequence` exists (returns
    /// the oldest such tick), the timeout elapses (nullopt), or stop() is
    /// called (nullopt).  The watch loop's wait primitive.
    [[nodiscard]] std::optional<TelemetryTick> wait_for_tick(
        std::uint64_t after_sequence, std::chrono::milliseconds timeout);

    /// Total ticks ever produced (>= ring occupancy).
    [[nodiscard]] std::uint64_t ticks() const;

    /// False iff an `ndjson_path` was configured but could not be opened
    /// (e.g. its directory does not exist).  Callers should fail loudly —
    /// the sampler itself keeps ticking into the ring either way.
    [[nodiscard]] bool ndjson_ok() const;

private:
    void sampler_loop();

    const TelemetrySamplerConfig config_;

    mutable CheckedMutex mutex_{LockRank::kTelemetryRing, "TelemetryRing"};
    CheckedCondVar tick_cv_;
    std::vector<TelemetryTick> ring_ GESMC_GUARDED_BY(mutex_);
    std::uint64_t next_sequence_ GESMC_GUARDED_BY(mutex_) = 1;
    MetricsSnapshot previous_ GESMC_GUARDED_BY(mutex_);
    std::chrono::steady_clock::time_point previous_time_ GESMC_GUARDED_BY(mutex_);
    bool has_baseline_ GESMC_GUARDED_BY(mutex_) = false;
    bool stop_requested_ GESMC_GUARDED_BY(mutex_) = false;
    bool running_ GESMC_GUARDED_BY(mutex_) = false;
    std::ofstream ndjson_ GESMC_GUARDED_BY(mutex_);
    bool ndjson_open_ GESMC_GUARDED_BY(mutex_) = false;

    std::thread thread_;
};

} // namespace gesmc::obs
