// Tests for the hashing substrate: hash functions, sequential robin-hood
// set, concurrent edge set, dependency table.
#include "hashing/concurrent_edge_set.hpp"
#include "hashing/dependency_table.hpp"
#include "hashing/hash.hpp"
#include "hashing/robin_set.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/bounded.hpp"
#include "rng/mt19937_64.hpp"
#include "util/table_storage.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <set>
#include <thread>
#include <unordered_set>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define GESMC_TEST_HARDWARE_CRC 1
#endif

namespace gesmc {
namespace {

// ------------------------------------------------------------------ hash

#if defined(GESMC_TEST_HARDWARE_CRC)
/// The SSE4.2 instruction, compiled for it whatever the build's flags; call
/// only where the CPU supports it.
__attribute__((target("sse4.2"))) std::uint32_t hardware_crc32c(std::uint32_t crc,
                                                                std::uint64_t data) {
    return static_cast<std::uint32_t>(_mm_crc32_u64(crc, data));
}
#endif

TEST(Hash, HardwareAndSoftwareCrcAgree) {
#if defined(GESMC_TEST_HARDWARE_CRC)
    if (!__builtin_cpu_supports("sse4.2")) GTEST_SKIP() << "this CPU has no SSE4.2";
    Mt19937_64 gen(1);
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t key = gen();
        EXPECT_EQ(hardware_crc32c(0xB2D05E13u, key), detail::crc32c_sw(0xB2D05E13u, key))
            << key;
    }
#else
    GTEST_SKIP() << "the crc32 instruction is x86-64 only";
#endif
}

TEST(Hash, SoftwareCrcMatchesTheInstructionOnPinnedKeys) {
    // Values read from _mm_crc32_u64, so targets without the instruction
    // check the software table too.
    EXPECT_EQ(detail::crc32c_sw(0xB2D05E13u, 1), 0x93236DB7u);
    EXPECT_EQ(detail::crc32c_sw(0, 0x0123456789ABCDEFull), 0xE9986AA9u);
    EXPECT_EQ(detail::crc32c_sw(0xFFFFFFFFu, ~std::uint64_t{0}), 0xB798B438u);
}

TEST(Hash, NoObviousCollisionsOnSequentialKeys) {
    std::set<std::uint64_t> crc, mix;
    for (std::uint64_t i = 1; i <= 50000; ++i) {
        crc.insert(crc_hash(i));
        mix.insert(mix_hash(i));
    }
    EXPECT_EQ(crc.size(), 50000u);
    EXPECT_EQ(mix.size(), 50000u);
}

TEST(Hash, HighBitsAreSpread) {
    // Tables index with the top bits; sequential keys must not cluster.
    constexpr unsigned kBuckets = 64;
    std::vector<int> hist(kBuckets, 0);
    constexpr int n = 64000;
    for (std::uint64_t i = 1; i <= n; ++i) ++hist[edge_hash(i) >> 58];
    const double expect = static_cast<double>(n) / kBuckets;
    for (int c : hist) {
        EXPECT_GT(c, expect * 0.7);
        EXPECT_LT(c, expect * 1.3);
    }
}

// ------------------------------------------------------------- robin set

TEST(RobinSet, BasicInsertContainsErase) {
    RobinSet set;
    EXPECT_EQ(set.size(), 0u);
    EXPECT_FALSE(set.contains(42));
    EXPECT_TRUE(set.insert(42));
    EXPECT_FALSE(set.insert(42));
    EXPECT_TRUE(set.contains(42));
    EXPECT_EQ(set.size(), 1u);
    EXPECT_TRUE(set.erase(42));
    EXPECT_FALSE(set.erase(42));
    EXPECT_FALSE(set.contains(42));
    EXPECT_EQ(set.size(), 0u);
}

TEST(RobinSet, RejectsReservedKey) {
    // Key 0 marks empty buckets: insert rejects it, and lookups report it
    // absent (contains(0) once matched the first empty bucket).
    RobinSet set;
    for (std::uint64_t k = 1; k <= 4; ++k) ASSERT_TRUE(set.insert(k));
    EXPECT_THROW(set.insert(0), Error);
    EXPECT_FALSE(set.contains(0));
    EXPECT_FALSE(set.contains_prepared(set.prepare(0)));
    EXPECT_FALSE(set.erase(0));
    EXPECT_EQ(set.size(), 4u);
}

TEST(RobinSet, GrowsBeyondInitialCapacity) {
    RobinSet set(4);
    for (std::uint64_t i = 1; i <= 10000; ++i) EXPECT_TRUE(set.insert(i));
    EXPECT_EQ(set.size(), 10000u);
    EXPECT_LE(set.load_factor(), 0.5);
    for (std::uint64_t i = 1; i <= 10000; ++i) EXPECT_TRUE(set.contains(i));
    EXPECT_FALSE(set.contains(10001));
}

TEST(RobinSet, FuzzAgainstStdUnorderedSet) {
    // Mixed workload mirroring edge switching: ~equal parts insert, erase,
    // and lookup on a small key universe to force collisions and shifts.
    Mt19937_64 gen(7);
    RobinSet set;
    std::unordered_set<std::uint64_t> ref;
    for (int op = 0; op < 200000; ++op) {
        const std::uint64_t key = 1 + uniform_below(gen, 512);
        switch (uniform_below(gen, 3)) {
        case 0:
            ASSERT_EQ(set.insert(key), ref.insert(key).second) << "op " << op;
            break;
        case 1:
            ASSERT_EQ(set.erase(key), ref.erase(key) > 0) << "op " << op;
            break;
        default:
            ASSERT_EQ(set.contains(key), ref.count(key) > 0) << "op " << op;
        }
        ASSERT_EQ(set.size(), ref.size());
    }
    std::size_t enumerated = 0;
    set.for_each([&](std::uint64_t k) {
        ++enumerated;
        EXPECT_TRUE(ref.count(k));
    });
    EXPECT_EQ(enumerated, ref.size());
}

TEST(RobinSet, PreparedContainsMatchesPlain) {
    Mt19937_64 gen(8);
    RobinSet set(4096);
    set.reserve(4096);
    for (int i = 0; i < 2000; ++i) set.insert(1 + uniform_below(gen, 8192));
    EXPECT_FALSE(set.would_rehash_on_insert());
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t key = 1 + uniform_below(gen, 8192);
        const auto prepared = set.prepare(key);
        EXPECT_EQ(set.contains_prepared(prepared), set.contains(key));
    }
}

TEST(RobinSet, DuplicateInsertNeverRehashes) {
    // Fill the set right up to the growth threshold, then re-insert present
    // keys: the table must not grow (a rehash would invalidate outstanding
    // Prepared prefetch handles even though nothing was added).
    RobinSet set;
    std::uint64_t key = 0;
    while (!set.would_rehash_on_insert()) set.insert(++key);
    const std::uint64_t buckets = set.bucket_count();
    const std::uint64_t size = set.size();
    for (std::uint64_t k = 1; k <= key; ++k) {
        const auto prepared = set.prepare(k);
        EXPECT_FALSE(set.insert(k));
        // The handle prepared before the duplicate insert must stay valid.
        EXPECT_TRUE(set.contains_prepared(prepared));
    }
    EXPECT_EQ(set.bucket_count(), buckets);
    EXPECT_EQ(set.size(), size);
    // The next *novel* insert is what grows the table.
    EXPECT_TRUE(set.insert(key + 1));
    EXPECT_GT(set.bucket_count(), buckets);
}

TEST(RobinSet, ClearEmptiesTheSet) {
    RobinSet set;
    for (std::uint64_t i = 1; i <= 100; ++i) set.insert(i);
    set.clear();
    EXPECT_EQ(set.size(), 0u);
    for (std::uint64_t i = 1; i <= 100; ++i) EXPECT_FALSE(set.contains(i));
}

// --------------------------------------------------- concurrent edge set

/// The set's live keys, sorted.  Callers are quiescent.
std::vector<std::uint64_t> live_keys(const ConcurrentEdgeSet& set) {
    std::vector<std::uint64_t> keys;
    set.for_each([&](std::uint64_t k) { keys.push_back(k); });
    std::sort(keys.begin(), keys.end());
    return keys;
}

TEST(ConcurrentEdgeSet, SequentialSemantics) {
    ConcurrentEdgeSet set(1024);
    EXPECT_TRUE(set.insert_unique(5));
    EXPECT_FALSE(set.insert_unique(5));
    EXPECT_TRUE(set.contains(5));
    EXPECT_FALSE(set.contains(6));
    EXPECT_TRUE(set.erase_unique(5));
    EXPECT_FALSE(set.erase_unique(5));
    EXPECT_EQ(set.size(), 0u);
}

TEST(ConcurrentEdgeSet, RejectsOutOfDomainKeys) {
    // The insert throws on keys outside (0, kTomb).  Lookups and erases
    // report 0 and kTomb absent and leave the table alone: the probe loops
    // once matched key 0 on the first empty bucket, so each erase of 0
    // tombstoned an empty bucket and dropped size().
    ConcurrentEdgeSet set(16);
    ASSERT_EQ(set.bucket_count(), 64u);
    EXPECT_THROW(set.insert_unique(0), Error);
    EXPECT_THROW(set.insert_unique(ConcurrentEdgeSet::kTomb), Error);
    EXPECT_THROW(set.insert_unique(1ULL << 60), Error);

    // Keys 1-4, plus a tombstone on kTomb's probe chain: a key with the
    // same home bucket (the top 6 hash bits of a 64-bucket table),
    // inserted and erased.
    for (std::uint64_t k = 1; k <= 4; ++k) ASSERT_TRUE(set.insert_unique(k));
    std::uint64_t twin = 5;
    while ((edge_hash(twin) >> 58) != (edge_hash(ConcurrentEdgeSet::kTomb) >> 58)) ++twin;
    ASSERT_TRUE(set.insert_unique(twin));
    ASSERT_TRUE(set.erase_unique(twin));

    for (const std::uint64_t bad : {ConcurrentEdgeSet::kEmpty, ConcurrentEdgeSet::kTomb}) {
        ASSERT_FALSE(set.contains(bad)) << bad;
        ASSERT_FALSE(set.erase_unique(bad)) << bad;
        ASSERT_EQ(set.size(), 4u) << bad;
        ASSERT_EQ(live_keys(set).size(), 4u) << bad;
    }
    // The instrumented lookup path agrees.
    obs::set_metrics_enabled(true);
    EXPECT_FALSE(set.contains(ConcurrentEdgeSet::kEmpty));
    EXPECT_FALSE(set.contains(ConcurrentEdgeSet::kTomb));
    EXPECT_TRUE(set.contains(1));
    obs::set_metrics_enabled(false);

    // The table still fills up to its sizing.
    for (std::uint64_t k = 100; k < 112; ++k) ASSERT_TRUE(set.insert_unique(k));
    EXPECT_EQ(set.size(), 16u);
    EXPECT_EQ(live_keys(set).size(), 16u);
}

TEST(ConcurrentEdgeSet, TombstoneChurnKeepsProbesBounded) {
    ConcurrentEdgeSet set(256);
    ThreadPool caller_only(1);
    Mt19937_64 gen(9);
    std::set<std::uint64_t> ref;
    // Long insert/erase churn at constant live size; without tombstone
    // reclamation via refill this would exhaust the table.
    for (int round = 0; round < 30000; ++round) {
        const std::uint64_t key = 1 + uniform_below(gen, 1024);
        if (ref.count(key)) {
            EXPECT_TRUE(set.erase_unique(key));
            ref.erase(key);
        } else if (ref.size() < 256) {
            EXPECT_TRUE(set.insert_unique(key));
            ref.insert(key);
        }
        if (set.needs_rebuild()) {
            const std::vector<std::uint64_t> live(ref.begin(), ref.end());
            set.refill(live, caller_only);
        }
        ASSERT_EQ(set.size(), ref.size());
    }
    for (const auto key : ref) EXPECT_TRUE(set.contains(key));
}

TEST(ConcurrentEdgeSet, ForEachEnumeratesExactlyLiveKeys) {
    ConcurrentEdgeSet set(64);
    std::vector<std::uint64_t> expect;
    for (std::uint64_t k = 10; k < 50; ++k) {
        set.insert_unique(k);
        if (k % 3 == 0) {
            set.erase_unique(k);
        } else {
            expect.push_back(k);
        }
    }
    EXPECT_EQ(live_keys(set), expect);
}

TEST(ConcurrentEdgeSet, ConcurrentDistinctKeyInsertsAllLand) {
    constexpr unsigned p = 4;
    constexpr std::uint64_t per_thread = 20000;
    ConcurrentEdgeSet set(p * per_thread);
    ThreadPool pool(p);
    pool.run([&](unsigned tid) {
        for (std::uint64_t i = 0; i < per_thread; ++i) {
            EXPECT_TRUE(set.insert_unique(1 + tid * per_thread + i));
        }
    });
    EXPECT_EQ(set.size(), p * per_thread);
    for (std::uint64_t k = 1; k <= p * per_thread; ++k) ASSERT_TRUE(set.contains(k));
}

TEST(ConcurrentEdgeSet, ParallelInsertEraseChurnDistinctRanges) {
    // The one writer model under real parallelism: each thread owns a
    // disjoint key range and churns inserts/erases there, so its inserts
    // recycle tombstones other threads' erases left, while every thread
    // also looks up keys that are never written.  Rounds mirror chain
    // supersteps: tombstones are compacted by a refill at the quiescent
    // point between rounds, where the chains compact them; inserts recycle
    // enough tombstones here that the threshold is rarely crossed, so every
    // 8th round refills regardless.
    constexpr unsigned p = 4;
    constexpr std::uint64_t range = 4096;
    constexpr std::uint64_t stable = 2048; // keys 1..stable, never written
    ConcurrentEdgeSet set(p * range + stable);
    for (std::uint64_t k = 1; k <= stable; ++k) ASSERT_TRUE(set.insert_unique(k));
    ThreadPool pool(p);
    std::vector<std::vector<bool>> present(p, std::vector<bool>(range, false));
    std::vector<Mt19937_64> gens;
    for (unsigned tid = 0; tid < p; ++tid) gens.emplace_back(tid);
    for (int round = 0; round < 40; ++round) {
        pool.run([&](unsigned tid) {
            auto& mine = present[tid];
            auto& gen = gens[tid];
            const std::uint64_t base = 1 + stable + tid * range;
            for (int op = 0; op < 2500; ++op) {
                const std::uint64_t off = uniform_below(gen, range);
                if (mine[off]) {
                    ASSERT_TRUE(set.erase_unique(base + off));
                    mine[off] = false;
                } else {
                    ASSERT_TRUE(set.insert_unique(base + off));
                    mine[off] = true;
                }
                ASSERT_EQ(set.contains(base + off), mine[off]);
                ASSERT_TRUE(set.contains(1 + uniform_below(gen, stable)));
            }
        });
        std::uint64_t live = stable;
        for (const auto& mine : present) {
            live += static_cast<std::uint64_t>(std::count(mine.begin(), mine.end(), true));
        }
        ASSERT_EQ(set.size(), live) << "round " << round;
        if (set.needs_rebuild() || round % 8 == 7) set.refill(live_keys(set), pool);
    }
    for (std::uint64_t k = 1; k <= stable; ++k) ASSERT_TRUE(set.contains(k));
    for (unsigned tid = 0; tid < p; ++tid) {
        const std::uint64_t base = 1 + stable + tid * range;
        for (std::uint64_t off = 0; off < range; ++off) {
            ASSERT_EQ(set.contains(base + off), present[tid][off]);
        }
    }
}

TEST(ConcurrentEdgeSet, CountCellsMatchSerialReplay) {
    // Counting hammer: size() and needs_rebuild() sum per-thread count
    // cells.  Each wave starts fresh threads at staggered times (so over
    // the waves the threads' cells wrap around and are shared), which
    // churn disjoint key ranges with the unique API: insert a batch, then,
    // after a barrier, erase all but a few of it.  No insert overlaps an
    // erase, so no tombstone is recycled and both counts are the same on
    // every interleaving: each wave must match a serial replay on a second
    // set.  The erases land just past the rebuild threshold, so a few lost
    // counts flip needs_rebuild().
    constexpr unsigned p = 4;
    constexpr std::uint64_t max_live = 8192; // 32768 buckets: rebuild above 8192 tombstones
    constexpr std::uint64_t base = 4200;     // live throughout; keeps refills from shrinking
    constexpr std::uint64_t batch = 2074;    // inserted per thread and wave
    constexpr std::uint64_t keep = 10;       // survivors per thread and wave
    constexpr int waves = 20;
    static_assert(p * (batch - keep) == max_live + 64);
    ConcurrentEdgeSet set(max_live);
    ConcurrentEdgeSet replay(max_live);
    ThreadPool caller_only(1);
    const auto key_of = [](int wave, unsigned tid, std::uint64_t i) {
        return base + 1 + (static_cast<std::uint64_t>(wave) * p + tid) * batch + i;
    };
    for (std::uint64_t k = 1; k <= base; ++k) {
        ASSERT_TRUE(set.insert_unique(k));
        ASSERT_TRUE(replay.insert_unique(k));
    }
    for (int wave = 0; wave < waves; ++wave) {
        std::barrier between(p);
        std::vector<std::thread> threads;
        for (unsigned tid = 0; tid < p; ++tid) {
            threads.emplace_back([&, tid] {
                std::this_thread::sleep_for(std::chrono::microseconds(300 * tid));
                for (std::uint64_t i = 0; i < batch; ++i) {
                    EXPECT_TRUE(set.insert_unique(key_of(wave, tid, i)));
                }
                between.arrive_and_wait();
                for (std::uint64_t i = keep; i < batch; ++i) {
                    EXPECT_TRUE(set.erase_unique(key_of(wave, tid, i)));
                }
            });
        }
        for (auto& t : threads) t.join();

        for (unsigned tid = 0; tid < p; ++tid) {
            for (std::uint64_t i = 0; i < batch; ++i) replay.insert_unique(key_of(wave, tid, i));
        }
        for (unsigned tid = 0; tid < p; ++tid) {
            for (std::uint64_t i = keep; i < batch; ++i) replay.erase_unique(key_of(wave, tid, i));
        }
        ASSERT_EQ(replay.size(), base + (wave + 1) * p * keep) << "wave " << wave;
        ASSERT_EQ(set.size(), replay.size()) << "wave " << wave;
        ASSERT_TRUE(replay.needs_rebuild()) << "wave " << wave;
        ASSERT_EQ(set.needs_rebuild(), replay.needs_rebuild()) << "wave " << wave;
        const std::vector<std::uint64_t> live = live_keys(set);
        ASSERT_EQ(live, live_keys(replay)) << "wave " << wave;
        set.refill(live, caller_only);
        replay.refill(live, caller_only);
        ASSERT_EQ(set.size(), replay.size()) << "wave " << wave;
        ASSERT_FALSE(set.needs_rebuild()) << "wave " << wave;
    }
}

TEST(ConcurrentEdgeSet, RefillHoldsExactlyTheGivenKeys) {
    for (const unsigned p : {1u, 2u, 4u}) {
        ThreadPool pool(p);
        constexpr std::uint64_t max_live = 4096;
        ConcurrentEdgeSet set(max_live);
        // A tombstone-heavy table, refill deliberately deferred: 4096 keys
        // in, 3500 out.
        for (std::uint64_t k = 1; k <= max_live; ++k) ASSERT_TRUE(set.insert_unique(k));
        for (std::uint64_t k = 1; k <= 3500; ++k) ASSERT_TRUE(set.erase_unique(k));
        ASSERT_EQ(set.size(), max_live - 3500);

        // Half of the refill keys were live, half are new.
        std::vector<std::uint64_t> keys;
        for (std::uint64_t k = 3801; k <= max_live + 2000; ++k) keys.push_back(k);
        set.refill(keys, pool);

        EXPECT_EQ(set.size(), keys.size()) << "p=" << p;
        EXPECT_FALSE(set.needs_rebuild()) << "p=" << p;
        EXPECT_EQ(live_keys(set), keys) << "p=" << p;
        for (const std::uint64_t k : keys) ASSERT_TRUE(set.contains(k)) << "p=" << p;
        for (std::uint64_t k = 3501; k <= 3800; ++k) ASSERT_FALSE(set.contains(k)) << "p=" << p;

        // The refilled set keeps working as a set.
        EXPECT_FALSE(set.insert_unique(keys.front()));
        EXPECT_TRUE(set.erase_unique(keys.front()));
        EXPECT_TRUE(set.insert_unique(1));
        EXPECT_EQ(set.size(), keys.size());
    }
}

TEST(ConcurrentEdgeSet, PoolBuiltFromKeysHoldsExactlyTheKeys) {
    // 100,000 keys size the table at 2^19 buckets (4 MiB): the huge-page
    // path, first touched on 4 threads.
    std::vector<std::uint64_t> keys;
    for (std::uint64_t i = 0; i < 100000; ++i) keys.push_back(1 + 3 * i);
    ThreadPool pool(4);
    ConcurrentEdgeSet built(keys, pool);
    ConcurrentEdgeSet sized(keys.size());
    for (const std::uint64_t k : keys) ASSERT_TRUE(sized.insert_unique(k));
    ASSERT_EQ(built.bucket_count(), sized.bucket_count());
    ASSERT_GE(built.bucket_count() * sizeof(std::uint64_t), detail::kHugePageBytes);

    for (ConcurrentEdgeSet* set : {&built, &sized}) {
        EXPECT_EQ(set->size(), keys.size());
        for (const std::uint64_t k : keys) ASSERT_TRUE(set->contains(k));
        EXPECT_FALSE(set->contains(2));
        EXPECT_FALSE(set->needs_rebuild());
        EXPECT_TRUE(set->erase_unique(keys.front()));
        EXPECT_FALSE(set->contains(keys.front()));
        EXPECT_TRUE(set->insert_unique(2));
        EXPECT_TRUE(set->contains(2));
        EXPECT_EQ(set->size(), keys.size());
    }
    EXPECT_EQ(live_keys(built), live_keys(sized));
}

// ------------------------------------------------------ dependency table

TEST(DependencyTable, EraseRegistrationAndLookup) {
    DependencyTable table(64);
    ThreadPool pool(1);
    table.begin_superstep(64, pool);
    EXPECT_EQ(table.lookup_erase(42), DependencyTable::kNone);
    table.register_erase(42, 7, 0);
    EXPECT_EQ(table.lookup_erase(42), 7u);
    EXPECT_EQ(table.lookup_erase(43), DependencyTable::kNone);
}

TEST(DependencyTable, InsertMinSkipsIllegal) {
    DependencyTable table(64);
    ThreadPool pool(1);
    table.begin_superstep(64, pool);
    std::vector<std::atomic<SwitchStatus>> status(64);
    for (auto& s : status) s.store(SwitchStatus::kUndecided);

    // Status changes take effect at the next round id (cache granularity).
    std::uint32_t round = 1;
    table.register_insert(99, 5, 0, 0);
    table.register_insert(99, 3, 1, 0);
    table.register_insert(99, 9, 0, 0);
    EXPECT_EQ(table.lookup_insert_min(99, status, round), 3u);
    status[3].store(SwitchStatus::kIllegal);
    EXPECT_EQ(table.lookup_insert_min(99, status, ++round), 5u);
    status[5].store(SwitchStatus::kIllegal);
    EXPECT_EQ(table.lookup_insert_min(99, status, ++round), 9u);
    status[9].store(SwitchStatus::kIllegal);
    EXPECT_EQ(table.lookup_insert_min(99, status, ++round), DependencyTable::kNone);
    EXPECT_EQ(table.lookup_insert_min(100, status, round), DependencyTable::kNone);
}

TEST(DependencyTable, InsertMinCachePerRound) {
    DependencyTable table(64);
    ThreadPool pool(1);
    table.begin_superstep(64, pool);
    std::vector<std::atomic<SwitchStatus>> status(64);
    for (auto& s : status) s.store(SwitchStatus::kUndecided);

    table.register_insert(42, 2, 0, 0);
    table.register_insert(42, 7, 0, 0);
    EXPECT_EQ(table.lookup_insert_min(42, status, 1), 2u);
    // Same round: the memoized value is served even after a transition —
    // callers re-read status[q] and treat stale minima as "wait".
    status[2].store(SwitchStatus::kIllegal);
    EXPECT_EQ(table.lookup_insert_min(42, status, 1), 2u);
    // Next round: recomputed.
    EXPECT_EQ(table.lookup_insert_min(42, status, 2), 7u);
}

TEST(DependencyTable, ResetClearsPreviousSuperstep) {
    DependencyTable table(64);
    ThreadPool pool(2);
    std::vector<std::atomic<SwitchStatus>> status(64);
    for (auto& s : status) s.store(SwitchStatus::kUndecided);

    table.begin_superstep(64, pool);
    table.register_erase(10, 1, 0);
    table.register_insert(11, 2, 0, 0);
    table.begin_superstep(64, pool);
    EXPECT_EQ(table.lookup_erase(10), DependencyTable::kNone);
    EXPECT_EQ(table.lookup_insert_min(11, status, 1), DependencyTable::kNone);
}

TEST(DependencyTable, SameKeyBothRoles) {
    // An edge can be erased by one switch and (re)inserted by others.
    DependencyTable table(64);
    ThreadPool pool(1);
    table.begin_superstep(64, pool);
    std::vector<std::atomic<SwitchStatus>> status(64);
    for (auto& s : status) s.store(SwitchStatus::kUndecided);
    table.register_erase(77, 2, 0);
    table.register_insert(77, 4, 1, 0);
    EXPECT_EQ(table.lookup_erase(77), 2u);
    EXPECT_EQ(table.lookup_insert_min(77, status, 1), 4u);
}

TEST(DependencyTable, ConcurrentRegistrationIsComplete) {
    // Many threads register inserts for overlapping keys; every tuple must
    // be reachable through the per-key list.
    constexpr unsigned p = 4;
    constexpr std::uint32_t switches = 20000;
    DependencyTable table(switches);
    ThreadPool pool(p);
    table.begin_superstep(switches, pool);
    std::vector<std::atomic<SwitchStatus>> status(switches);
    for (auto& s : status) s.store(SwitchStatus::kUndecided);

    // Key layout: key = 1 + (k % 97) — about 206 switches share each key.
    pool.for_chunks(0, switches, [&](unsigned tid, std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t k = lo; k < hi; ++k) {
            table.register_insert(1 + (k % 97), static_cast<std::uint32_t>(k), 0, tid);
        }
    });
    // Minimum per key must be the smallest switch index with that residue,
    // i.e. the residue itself.
    for (std::uint64_t key = 1; key <= 97; ++key) {
        EXPECT_EQ(table.lookup_insert_min(key, status, 1), key - 1);
    }
    // Marking the minimum illegal exposes the next one (residue + 97).
    status[13].store(SwitchStatus::kIllegal);
    EXPECT_EQ(table.lookup_insert_min(14, status, 2), 13u + 97u);
}

TEST(DependencyTable, PoolBuiltHugeTableAnswersAsSerialBuilt) {
    // 100,000 switches size the table at 2^20 slots (32 MiB): the huge-page
    // path, first touched on 4 threads.
    constexpr std::uint32_t switches = 100000;
    constexpr std::uint64_t kMaxKey = 3 * std::uint64_t{switches} + 1;
    ThreadPool pool(4);
    DependencyTable pooled(switches, &pool);
    DependencyTable serial(switches);
    ASSERT_EQ(pooled.bucket_count(), serial.bucket_count());
    ASSERT_GE(pooled.bucket_count() * 32, detail::kHugePageBytes);
    std::vector<std::atomic<SwitchStatus>> status(switches);
    for (auto& s : status) s.store(SwitchStatus::kUndecided);

    for (std::uint64_t key = 1; key <= kMaxKey; ++key) {
        ASSERT_EQ(pooled.find_slot(key), DependencyTable::kNoSlot) << key;
    }
    // Switch k erases key 3k+1 and inserts key 1 + (k * 7919) % 50021, so
    // some keys take both roles and most inserted keys have several inserters.
    for (DependencyTable* table : {&pooled, &serial}) {
        table->begin_superstep(switches, pool);
        pool.for_chunks(0, switches, [&](unsigned tid, std::uint64_t lo, std::uint64_t hi) {
            for (std::uint64_t k = lo; k < hi; ++k) {
                const auto idx = static_cast<std::uint32_t>(k);
                table->register_erase(3 * k + 1, idx, tid);
                table->register_insert(1 + (k * 7919) % 50021, idx, 0, tid);
            }
        });
    }
    for (std::uint64_t key = 1; key <= kMaxKey; ++key) {
        ASSERT_EQ(pooled.lookup_erase(key), serial.lookup_erase(key)) << key;
        ASSERT_EQ(pooled.lookup_insert_min(key, status, 1),
                  serial.lookup_insert_min(key, status, 1))
            << key;
    }
    EXPECT_EQ(pooled.lookup_erase(3 * 17 + 1), 17u);
    EXPECT_EQ(pooled.lookup_insert_min(kMaxKey + 1, status, 1), DependencyTable::kNone);
}

TEST(DependencyTable, ConcurrentMixedRolesStress) {
    constexpr unsigned p = 4;
    constexpr std::uint32_t switches = 50000;
    DependencyTable table(switches);
    ThreadPool pool(p);
    table.begin_superstep(switches, pool);

    // Every switch k erases key 2k+1 (unique) and inserts key 1+(k%1009).
    pool.for_chunks(0, switches, [&](unsigned tid, std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t k = lo; k < hi; ++k) {
            table.register_erase(2 * k + 1, static_cast<std::uint32_t>(k), tid);
            table.register_insert(1 + (k % 1009), static_cast<std::uint32_t>(k), 1, tid);
        }
    });
    for (std::uint64_t k = 0; k < switches; k += 997) {
        ASSERT_EQ(table.lookup_erase(2 * k + 1), k);
    }
}

} // namespace
} // namespace gesmc
