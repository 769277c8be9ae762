#include "hashing/concurrent_edge_set.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/bits.hpp"

#include <thread>

namespace gesmc {

namespace {
constexpr std::uint64_t kLockShift = ConcurrentEdgeSet::kKeyBits;
constexpr std::uint64_t kUnlockedMask = ConcurrentEdgeSet::kKeyMask;
constexpr std::uint64_t kNoSlot = ~std::uint64_t{0};

constexpr std::uint64_t key_of(std::uint64_t bucket) noexcept { return bucket & kUnlockedMask; }
constexpr unsigned owner_of(std::uint64_t bucket) noexcept {
    return static_cast<unsigned>(bucket >> kLockShift);
}

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
/// 1/4 before maybe_rebuild() compacts, so probes stay short.
std::uint64_t bucket_count_for(std::uint64_t max_live_keys) noexcept {
    return next_pow2(std::max<std::uint64_t>(64, max_live_keys * 4));
}
} // namespace

ConcurrentEdgeSet::ConcurrentEdgeSet(std::uint64_t max_live_keys, EdgeSetBackend)
    : table_(bucket_count_for(max_live_keys), nullptr, kEmpty),
      stripes_(kStripes),
      mask_(table_.size() - 1),
      shift_(64 - log2_floor(table_.size())) {}

ConcurrentEdgeSet::ConcurrentEdgeSet(std::span<const std::uint64_t> keys, ThreadPool& pool)
    : table_(bucket_count_for(keys.size()), &pool, kEmpty),
      stripes_(kStripes),
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
            const std::uint64_t k = key_of(table_[idx].load(std::memory_order_acquire));
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
        const std::uint64_t k = key_of(table_[idx].load(std::memory_order_acquire));
        if (k == kEmpty || k == key) {
            m.probe_steps.add(probes + 1);
            return k != kEmpty && k != kTomb;
        }
        idx = (idx + 1) & mask_;
    }
    m.probe_steps.add(mask_ + 1);
    return false;
}

void ConcurrentEdgeSet::lock_stripe(std::atomic<std::uint8_t>& s) noexcept {
    unsigned spins = 0;
    std::uint64_t retries = 0;
    for (;;) {
        std::uint8_t expected = 0;
        if (s.compare_exchange_weak(expected, 1, std::memory_order_acquire,
                                    std::memory_order_relaxed)) {
            if (retries > 0 && obs::metrics_enabled()) {
                edge_set_metrics().cas_retries.add(retries);
            }
            return;
        }
        ++retries;
        if (++spins > 256) {
            std::this_thread::yield();
            spins = 0;
        }
    }
}

void ConcurrentEdgeSet::unlock_stripe(std::atomic<std::uint8_t>& s) noexcept {
    s.store(0, std::memory_order_release);
}

/// Core probe-and-claim. Must run with same-key operations excluded (either
/// under the key's stripe lock or by the insert_unique contract).
bool ConcurrentEdgeSet::insert_impl(std::uint64_t key, std::uint64_t locked_state,
                                    std::uint64_t* slot_out, bool* exists_locked_out) {
    const std::uint64_t value = key | locked_state;
    const bool measure = obs::metrics_enabled();
    std::uint64_t retries = 0;
retry:
    std::uint64_t idx = home(key);
    std::uint64_t first_tomb = kNoSlot;
    for (std::uint64_t probes = 0; probes <= mask_; ++probes) {
        const std::uint64_t bucket = table_[idx].load(std::memory_order_acquire);
        const std::uint64_t k = key_of(bucket);
        if (k == key) {
            if (slot_out) *slot_out = idx;
            if (exists_locked_out) *exists_locked_out = owner_of(bucket) != 0;
            return false;
        }
        if (k == kTomb && first_tomb == kNoSlot) {
            first_tomb = idx;
        } else if (k == kEmpty) {
            // Prefer recycling the first tombstone of the probe chain.
            if (first_tomb != kNoSlot) {
                std::uint64_t expected = kTomb;
                if (table_[first_tomb].compare_exchange_strong(expected, value,
                                                               std::memory_order_acq_rel)) {
                    counts_.add(+1, -1);
                    if (measure) {
                        EdgeSetMetrics& m = edge_set_metrics();
                        m.inserts.add(1);
                        if (probes > 0) m.insert_collisions.add(probes);
                        if (retries > 0) m.cas_retries.add(retries);
                        note_psl((first_tomb - home(key)) & mask_);
                    }
                    if (slot_out) *slot_out = first_tomb;
                    return true;
                }
                ++retries;
                goto retry; // another key claimed the tombstone; rescan
            }
            std::uint64_t expected = kEmpty;
            if (table_[idx].compare_exchange_strong(expected, value,
                                                    std::memory_order_acq_rel)) {
                counts_.add(+1, 0);
                if (measure) {
                    EdgeSetMetrics& m = edge_set_metrics();
                    m.inserts.add(1);
                    if (probes > 0) m.insert_collisions.add(probes);
                    if (retries > 0) m.cas_retries.add(retries);
                    note_psl((idx - home(key)) & mask_);
                }
                if (slot_out) *slot_out = idx;
                return true;
            }
            ++retries;
            continue; // slot taken by another key; re-examine the same slot
        }
        idx = (idx + 1) & mask_;
    }
    GESMC_CHECK(false, "ConcurrentEdgeSet overfull — missing rebuild?");
    return false;
}

bool ConcurrentEdgeSet::insert(std::uint64_t key) {
    GESMC_CHECK(key != kEmpty && key < kTomb, "key out of the 56-bit domain");
    auto& s = stripe(key);
    lock_stripe(s);
    const bool inserted = insert_impl(key, 0, nullptr, nullptr);
    unlock_stripe(s);
    return inserted;
}

bool ConcurrentEdgeSet::insert_unique(std::uint64_t key) {
    GESMC_CHECK(key != kEmpty && key < kTomb, "key out of the 56-bit domain");
    return insert_impl(key, 0, nullptr, nullptr);
}

bool ConcurrentEdgeSet::erase(std::uint64_t key) {
    auto& s = stripe(key);
    lock_stripe(s);
    const bool erased = erase_unique(key);
    unlock_stripe(s);
    return erased;
}

bool ConcurrentEdgeSet::erase_unique(std::uint64_t key) {
    std::uint64_t idx = home(key);
    for (std::uint64_t probes = 0; probes <= mask_; ++probes) {
        std::uint64_t bucket = table_[idx].load(std::memory_order_acquire);
        const std::uint64_t k = key_of(bucket);
        if (k == kEmpty) return false;
        if (k == key) {
            if (key == kTomb) return false;
            // Spin out transient locks held by ticket holders (NaiveParES
            // never erases a key another thread still has locked, but the
            // general API tolerates brief lock windows).
            for (;;) {
                // Checked before every CAS: a ticket holder may have erased
                // the key while we spun, and a CAS on the tombstone (or on
                // another key recycling it) would erase it a second time.
                if (key_of(bucket) != key) return false; // vanished concurrently
                if (owner_of(bucket) == 0 &&
                    table_[idx].compare_exchange_weak(bucket, kTomb,
                                                      std::memory_order_acq_rel)) {
                    counts_.add(-1, +1);
                    return true;
                }
                if (obs::metrics_enabled()) edge_set_metrics().cas_retries.add(1);
                std::this_thread::yield();
                bucket = table_[idx].load(std::memory_order_acquire);
            }
        }
        idx = (idx + 1) & mask_;
    }
    return false;
}

std::optional<std::uint64_t> ConcurrentEdgeSet::try_lock(std::uint64_t key,
                                                         unsigned tid) noexcept {
    const std::uint64_t locked = key | (static_cast<std::uint64_t>(tid + 1) << kLockShift);
    std::uint64_t idx = home(key);
    for (std::uint64_t probes = 0; probes <= mask_; ++probes) {
        std::uint64_t bucket = table_[idx].load(std::memory_order_acquire);
        const std::uint64_t k = key_of(bucket);
        if (k == kEmpty) return std::nullopt;
        if (k == key) {
            if (key == kTomb || owner_of(bucket) != 0) return std::nullopt; // or locked
            if (table_[idx].compare_exchange_strong(bucket, locked,
                                                    std::memory_order_acq_rel)) {
                return idx;
            }
            return std::nullopt; // raced: state changed under us
        }
        idx = (idx + 1) & mask_;
    }
    return std::nullopt;
}

ConcurrentEdgeSet::InsertLock ConcurrentEdgeSet::try_insert_and_lock(std::uint64_t key,
                                                                     unsigned tid,
                                                                     std::uint64_t& slot_out) {
    GESMC_CHECK(key != kEmpty && key < kTomb, "key out of the 56-bit domain");
    const std::uint64_t locked_state = static_cast<std::uint64_t>(tid + 1) << kLockShift;
    auto& s = stripe(key);
    lock_stripe(s);
    bool exists_locked = false;
    const bool inserted = insert_impl(key, locked_state, &slot_out, &exists_locked);
    unlock_stripe(s);
    if (inserted) return InsertLock::kInserted;
    return exists_locked ? InsertLock::kExistsLocked : InsertLock::kExists;
}

void ConcurrentEdgeSet::unlock(std::uint64_t slot) noexcept {
    const std::uint64_t bucket = table_[slot].load(std::memory_order_relaxed);
    table_[slot].store(key_of(bucket), std::memory_order_release);
}

void ConcurrentEdgeSet::erase_locked(std::uint64_t slot) noexcept {
    table_[slot].store(kTomb, std::memory_order_release);
    counts_.add(-1, +1);
}

void ConcurrentEdgeSet::rebuild() {
    std::vector<std::uint64_t> live;
    live.reserve(size());
    for_each([&](std::uint64_t key) { live.push_back(key); });
    ThreadPool caller_only(1);
    refill(live, caller_only);
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
