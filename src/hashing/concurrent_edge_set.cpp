#include "hashing/concurrent_edge_set.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"

namespace gesmc {

namespace {

constexpr std::uint64_t kNoSlot = ~std::uint64_t{0};

/// Probe statistics, counted locally per call and added once at the end —
/// the disabled cost on the contains() hot path is one relaxed load and a
/// predictable branch.
struct EdgeSetMetrics {
    obs::Counter& lookups = obs::MetricsRegistry::instance().counter("hashset.lookups");
    obs::Counter& probe_steps =
        obs::MetricsRegistry::instance().counter("hashset.probe_steps");
    obs::Counter& inserts = obs::MetricsRegistry::instance().counter("hashset.inserts");
    obs::Counter& insert_collisions =
        obs::MetricsRegistry::instance().counter("hashset.insert_collisions");
    obs::Counter& cas_retries =
        obs::MetricsRegistry::instance().counter("hashset.cas_retries");
    obs::Gauge& psl_max = obs::MetricsRegistry::instance().gauge("hashset.psl_max");
};

EdgeSetMetrics& edge_set_metrics() noexcept {
    static EdgeSetMetrics& m = *new EdgeSetMetrics();
    return m;
}

/// 4x headroom: live keys stay below 1/4 load, tombstones may add another
/// 1/4 before needs_rebuild() asks for a refill, so probes stay short.
std::uint64_t bucket_count_for(std::uint64_t max_live_keys) noexcept {
    return next_pow2(std::max<std::uint64_t>(64, max_live_keys * 4));
}
} // namespace

ConcurrentEdgeSet::ConcurrentEdgeSet(std::uint64_t max_live_keys, EdgeSetBackend)
    : table_(bucket_count_for(max_live_keys), nullptr, kEmpty),
      mask_(table_.size() - 1),
      shift_(64 - log2_floor(table_.size())) {}

ConcurrentEdgeSet::ConcurrentEdgeSet(std::span<const std::uint64_t> keys, ThreadPool& pool)
    : table_(bucket_count_for(keys.size()), &pool, kEmpty),
      mask_(table_.size() - 1),
      shift_(64 - log2_floor(table_.size())) {
    const obs::TraceSpan span("edgeset.refill", "hashing");
    fill(keys, pool);
}

void ConcurrentEdgeSet::note_psl(std::uint64_t distance) noexcept {
    std::uint64_t cur = psl_max_.load(std::memory_order_relaxed);
    while (distance > cur &&
           !psl_max_.compare_exchange_weak(cur, distance, std::memory_order_relaxed)) {
    }
    if (distance > cur) {
        edge_set_metrics().psl_max.set(
            static_cast<std::int64_t>(psl_max_.load(std::memory_order_relaxed)));
    }
}

// The probe loops test kEmpty before the key, so key 0 is never found; a
// probe for kTomb that meets a tombstone reports it absent.

bool ConcurrentEdgeSet::contains(std::uint64_t key) const noexcept {
    if (!obs::metrics_enabled()) {
        std::uint64_t idx = home(key);
        for (std::uint64_t probes = 0; probes <= mask_; ++probes) {
            const std::uint64_t k = table_[idx].load(std::memory_order_acquire);
            if (k == kEmpty) return false;
            if (k == key) return key != kTomb;
            idx = (idx + 1) & mask_;
        }
        return false; // table fully scanned (cannot happen at load <= 1/2)
    }
    EdgeSetMetrics& m = edge_set_metrics();
    m.lookups.add(1);
    std::uint64_t idx = home(key);
    for (std::uint64_t probes = 0; probes <= mask_; ++probes) {
        const std::uint64_t k = table_[idx].load(std::memory_order_acquire);
        if (k == kEmpty || k == key) {
            m.probe_steps.add(probes + 1);
            return k != kEmpty && k != kTomb;
        }
        idx = (idx + 1) & mask_;
    }
    m.probe_steps.add(mask_ + 1);
    return false;
}

bool ConcurrentEdgeSet::insert_unique(std::uint64_t key) {
    GESMC_CHECK(key != kEmpty && key < kTomb, "key out of the 56-bit domain");
    const bool measure = obs::metrics_enabled();
    std::uint64_t retries = 0;
    // No other thread writes `key`, so only other keys can take the bucket
    // this insert is about to claim; a lost CAS rescans.
retry:
    std::uint64_t idx = home(key);
    std::uint64_t first_tomb = kNoSlot;
    for (std::uint64_t probes = 0; probes <= mask_; ++probes) {
        const std::uint64_t k = table_[idx].load(std::memory_order_acquire);
        if (k == key) return false;
        if (k == kTomb && first_tomb == kNoSlot) {
            first_tomb = idx;
        } else if (k == kEmpty) {
            // Prefer recycling the first tombstone of the probe chain.
            const bool recycle = first_tomb != kNoSlot;
            const std::uint64_t slot = recycle ? first_tomb : idx;
            std::uint64_t expected = recycle ? kTomb : kEmpty;
            if (table_[slot].compare_exchange_strong(expected, key,
                                                     std::memory_order_acq_rel)) {
                counts_.add(+1, recycle ? -1 : 0);
                if (measure) {
                    EdgeSetMetrics& m = edge_set_metrics();
                    m.inserts.add(1);
                    if (probes > 0) m.insert_collisions.add(probes);
                    if (retries > 0) m.cas_retries.add(retries);
                    note_psl((slot - home(key)) & mask_);
                }
                return true;
            }
            ++retries;
            if (recycle) goto retry; // another key claimed the tombstone; rescan
            continue;                // slot taken by another key; re-examine it
        }
        idx = (idx + 1) & mask_;
    }
    GESMC_CHECK(false, "ConcurrentEdgeSet overfull — missing refill?");
    return false;
}

bool ConcurrentEdgeSet::erase_unique(std::uint64_t key) {
    std::uint64_t idx = home(key);
    for (std::uint64_t probes = 0; probes <= mask_; ++probes) {
        const std::uint64_t k = table_[idx].load(std::memory_order_acquire);
        if (k == kEmpty) return false;
        if (k == key) {
            if (key == kTomb) return false;
            // Inserts claim only empty and tombstone buckets, and no other
            // thread writes `key`: the bucket is ours to overwrite.
            table_[idx].store(kTomb, std::memory_order_release);
            counts_.add(-1, +1);
            return true;
        }
        idx = (idx + 1) & mask_;
    }
    return false;
}

std::uint64_t ConcurrentEdgeSet::place(std::uint64_t key) noexcept {
    std::uint64_t idx = home(key);
    std::uint64_t distance = 0;
    for (;;) {
        std::uint64_t expected = kEmpty;
        if (table_[idx].load(std::memory_order_relaxed) == kEmpty &&
            table_[idx].compare_exchange_strong(expected, key, std::memory_order_acq_rel)) {
            return distance;
        }
        idx = (idx + 1) & mask_; // taken, possibly just now by another placer
        ++distance;
    }
}

void ConcurrentEdgeSet::refill(std::span<const std::uint64_t> keys, ThreadPool& pool) {
    const obs::TraceSpan span("edgeset.refill", "hashing");
    pool.for_chunks(0, table_.size(), [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t i = lo; i < hi; ++i) table_[i].store(kEmpty, std::memory_order_relaxed);
    });
    fill(keys, pool);
}

void ConcurrentEdgeSet::fill(std::span<const std::uint64_t> keys, ThreadPool& pool) {
    // Placing at most 1/2 load always finds an empty bucket, so place()
    // needs no bound and never throws on a worker.
    GESMC_CHECK(keys.size() <= table_.size() / 2, "refill exceeds the table's sizing");
    counts_.reset(keys.size());
    psl_max_.store(0, std::memory_order_relaxed);
    constexpr std::uint64_t kAhead = 16; // bucket prefetch distance, in keys
    pool.for_chunks(0, keys.size(), [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
        std::uint64_t psl = 0;
        for (std::uint64_t k = lo; k < hi; ++k) {
            if (k + kAhead < hi) prefetch_write(&table_[home(keys[k + kAhead])]);
            psl = std::max(psl, place(keys[k]));
        }
        if (obs::metrics_enabled()) {
            edge_set_metrics().inserts.add(hi - lo);
            note_psl(psl);
        }
    });
}

} // namespace gesmc
