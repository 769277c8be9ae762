#include "obs/metrics.hpp"

#include "check/checked_mutex.hpp"
#include "util/json_writer.hpp"
#include "util/thread_ordinal.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>

namespace gesmc::obs {

namespace detail {

std::atomic<bool> g_metrics_enabled{false};

unsigned shard_index() noexcept { return thread_ordinal() % kMetricShards; }

} // namespace detail

void set_metrics_enabled(bool enabled) noexcept {
    detail::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

// ----------------------------------------------------------------- Counter

std::uint64_t Counter::total() const noexcept {
    std::uint64_t sum = 0;
    for (const Shard& s : shards_) sum += s.value.load(std::memory_order_relaxed);
    return sum;
}

void Counter::reset() noexcept {
    for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
}

// --------------------------------------------------------------- Histogram

void Histogram::record(std::uint64_t value) noexcept {
    if (!metrics_enabled()) return;
    Shard& s = shards_[detail::shard_index()];
    s.buckets[std::bit_width(value)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t prev = s.max.load(std::memory_order_relaxed);
    while (value > prev &&
           !s.max.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
    }
}

void Histogram::reset() noexcept {
    for (Shard& s : shards_) {
        for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
        s.count.store(0, std::memory_order_relaxed);
        s.sum.store(0, std::memory_order_relaxed);
        s.max.store(0, std::memory_order_relaxed);
    }
}

// ---------------------------------------------------------------- registry

struct MetricsRegistry::Impl {
    /// Innermost lock of the whole process (rank 0): a subsystem may
    /// register or record metrics while holding its own lock, never the
    /// other way around.
    mutable CheckedMutex mutex{LockRank::kMetricsRegistry, "MetricsRegistry"};
    // unique_ptr values: map growth must never move a metric another thread
    // holds a reference to.
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters
        GESMC_GUARDED_BY(mutex);
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges
        GESMC_GUARDED_BY(mutex);
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms
        GESMC_GUARDED_BY(mutex);
};

MetricsRegistry& MetricsRegistry::instance() {
    // Leaked on purpose: metric references handed out to static call-site
    // caches must outlive every destructor that might still record.
    static MetricsRegistry* const registry = new MetricsRegistry();
    return *registry;
}

MetricsRegistry::Impl& MetricsRegistry::impl() const {
    static Impl* const impl = new Impl();
    return *impl;
}

// Lookup bodies are spelled out per accessor (not a shared template taking
// the map by reference): the thread-safety analysis only tracks GUARDED_BY
// members accessed where the lock is visibly held, and passing a guarded
// map by reference would trip -Wthread-safety-reference at the call sites.

Counter& MetricsRegistry::counter(std::string_view name) {
    Impl& i = impl();
    CheckedLockGuard lock(i.mutex);
    auto it = i.counters.find(name);
    if (it == i.counters.end()) {
        it = i.counters.emplace(std::string(name), std::make_unique<Counter>()).first;
    }
    return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
    Impl& i = impl();
    CheckedLockGuard lock(i.mutex);
    auto it = i.gauges.find(name);
    if (it == i.gauges.end()) {
        it = i.gauges.emplace(std::string(name), std::make_unique<Gauge>()).first;
    }
    return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
    Impl& i = impl();
    CheckedLockGuard lock(i.mutex);
    auto it = i.histograms.find(name);
    if (it == i.histograms.end()) {
        it = i.histograms.emplace(std::string(name), std::make_unique<Histogram>()).first;
    }
    return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
    Impl& i = impl();
    MetricsSnapshot snap;
    snap.enabled = metrics_enabled();
    CheckedLockGuard lock(i.mutex);
    snap.counters.reserve(i.counters.size());
    for (const auto& [name, counter] : i.counters) {
        snap.counters.emplace_back(name, counter->total());
    }
    snap.gauges.reserve(i.gauges.size());
    for (const auto& [name, gauge] : i.gauges) {
        snap.gauges.emplace_back(name, gauge->value());
    }
    snap.histograms.reserve(i.histograms.size());
    for (const auto& [name, histogram] : i.histograms) {
        HistogramSnapshot h;
        h.name = name;
        std::uint64_t buckets[kHistogramBuckets] = {};
        for (const Histogram::Shard& s : histogram->shards_) {
            for (unsigned b = 0; b < kHistogramBuckets; ++b) {
                buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
            }
            h.count += s.count.load(std::memory_order_relaxed);
            h.sum += s.sum.load(std::memory_order_relaxed);
            h.max = std::max(h.max, s.max.load(std::memory_order_relaxed));
        }
        for (unsigned b = 0; b < kHistogramBuckets; ++b) {
            if (buckets[b] == 0) continue;
            // bucket b holds values of bit_width b: upper bound 2^b - 1.
            const std::uint64_t upper =
                b >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << b) - 1;
            h.buckets.push_back({upper, buckets[b]});
        }
        h.p50 = histogram_quantile(h, 0.50);
        h.p90 = histogram_quantile(h, 0.90);
        h.p99 = histogram_quantile(h, 0.99);
        snap.histograms.push_back(std::move(h));
    }
    return snap;
}

void MetricsRegistry::reset() noexcept {
    Impl& i = impl();
    CheckedLockGuard lock(i.mutex);
    for (auto& [name, counter] : i.counters) counter->reset();
    for (auto& [name, gauge] : i.gauges) gauge->value_.store(0, std::memory_order_relaxed);
    for (auto& [name, histogram] : i.histograms) histogram->reset();
}

// --------------------------------------------------------------- quantiles

double histogram_quantile(const HistogramSnapshot& h, double q) {
    if (h.count == 0 || h.buckets.empty()) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the requested quantile among `count` samples, 1-based.
    const double rank = q * static_cast<double>(h.count);
    double cumulative = 0.0;
    for (const HistogramSnapshot::Bucket& b : h.buckets) {
        const double before = cumulative;
        cumulative += static_cast<double>(b.count);
        if (cumulative < rank) continue;
        // Linear interpolation inside [lower, upper].  Bucket with upper
        // bound 2^k - 1 admits [2^(k-1), 2^k); the zero bucket is exact.
        if (b.upper_bound == 0) return 0.0;
        const double upper = static_cast<double>(b.upper_bound);
        const double lower = b.upper_bound == ~std::uint64_t{0}
                                 ? upper / 2.0 + 1.0
                                 : static_cast<double>((b.upper_bound >> 1) + 1);
        const double fraction =
            (rank - before) / static_cast<double>(b.count);
        const double estimate = lower + (upper - lower) * fraction;
        // Never report beyond the observed maximum — the top bucket's
        // upper bound can overshoot it by almost 2x.
        return h.max > 0 ? std::min(estimate, static_cast<double>(h.max))
                         : estimate;
    }
    return static_cast<double>(h.max);
}

// -------------------------------------------------------------------- JSON

void write_metrics_json(JsonWriter& w, const MetricsSnapshot& snapshot) {
    w.begin_object();
    w.kv("enabled", snapshot.enabled);
    w.key("counters");
    w.begin_object();
    for (const auto& [name, value] : snapshot.counters) w.kv(name, value);
    w.end_object();
    w.key("gauges");
    w.begin_object();
    for (const auto& [name, value] : snapshot.gauges) w.kv(name, value);
    w.end_object();
    w.key("histograms");
    w.begin_object();
    for (const HistogramSnapshot& h : snapshot.histograms) {
        w.key(h.name);
        w.begin_object();
        w.kv("count", h.count);
        w.kv("sum", h.sum);
        w.kv("max", h.max);
        if (h.count > 0) {
            w.kv("mean", static_cast<double>(h.sum) / static_cast<double>(h.count));
            w.kv("p50", h.p50);
            w.kv("p90", h.p90);
            w.kv("p99", h.p99);
        }
        w.key("buckets");
        w.begin_array();
        for (const HistogramSnapshot::Bucket& b : h.buckets) {
            w.begin_object();
            w.kv("le", b.upper_bound);
            w.kv("count", b.count);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_object();
    w.end_object();
}

} // namespace gesmc::obs
