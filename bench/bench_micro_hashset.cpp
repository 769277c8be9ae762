/// \file bench_micro_hashset.cpp
/// \brief Ablation bench for the §5.2 data-structure choices: hash
/// functions, robin-hood vs concurrent vs std::unordered_set under a
/// switch-like mixed workload, and the two edge-sampling strategies of
/// §5.3 (auxiliary array vs sampling buckets from the hash set).
///
/// `--bench-json=FILE` additionally writes the gesmc-bench-v1 aggregate
/// the CI regression gate diffs against bench/baselines/BENCH_hashset.json.
#include "bench_util/gbench_json.hpp"
#include "graph/edge.hpp"
#include "hashing/concurrent_edge_set.hpp"
#include "hashing/hash.hpp"
#include "hashing/robin_set.hpp"
#include "rng/bounded.hpp"
#include "rng/mt19937_64.hpp"

#include <benchmark/benchmark.h>

#include <cstdint>
#include <unordered_set>
#include <vector>

namespace {

using namespace gesmc;

std::vector<std::uint64_t> make_keys(std::uint64_t count, std::uint64_t seed) {
    Mt19937_64 gen(seed);
    std::vector<std::uint64_t> keys(count);
    for (auto& k : keys) k = 1 + (gen() & ((1ULL << 55) - 1));
    return keys;
}

void BM_HashCrc(benchmark::State& state) {
    std::uint64_t x = 12345;
    for (auto _ : state) {
        x = crc_hash(x);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_HashCrc);

void BM_HashMix(benchmark::State& state) {
    std::uint64_t x = 12345;
    for (auto _ : state) {
        x = mix_hash(x);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_HashMix);

/// The workload of one accepted edge switch: 2 lookups, 2 erases, 2 inserts.
template <typename Set>
void switch_workload(Set& set, const std::vector<std::uint64_t>& keys, std::uint64_t& cursor) {
    const std::uint64_t a = keys[cursor % keys.size()];
    const std::uint64_t b = keys[(cursor + keys.size() / 2) % keys.size()];
    benchmark::DoNotOptimize(set.contains(a + 1));
    benchmark::DoNotOptimize(set.contains(b + 1));
    set.erase(a);
    set.erase(b);
    set.insert(a);
    set.insert(b);
    ++cursor;
}

void BM_RobinSetSwitchMix(benchmark::State& state) {
    const auto keys = make_keys(1 << 16, 1);
    RobinSet set(keys.size());
    for (const auto k : keys) set.insert(k);
    std::uint64_t cursor = 0;
    for (auto _ : state) switch_workload(set, keys, cursor);
}
BENCHMARK(BM_RobinSetSwitchMix);

void BM_ConcurrentSetSwitchMix(benchmark::State& state) {
    const auto keys = make_keys(1 << 16, 2);
    ConcurrentEdgeSet set(keys.size());
    for (const auto k : keys) set.insert_unique(k);
    std::uint64_t cursor = 0;
    for (auto _ : state) {
        switch_workload(set, keys, cursor);
        if (set.needs_rebuild()) set.rebuild();
    }
}
BENCHMARK(BM_ConcurrentSetSwitchMix);

void BM_StdUnorderedSetSwitchMix(benchmark::State& state) {
    const auto keys = make_keys(1 << 16, 3);
    struct Wrapper { // adapts std::unordered_set to the workload's interface
        std::unordered_set<std::uint64_t> set;
        bool contains(std::uint64_t k) const { return set.count(k) > 0; }
        void erase(std::uint64_t k) { set.erase(k); }
        void insert(std::uint64_t k) { set.insert(k); }
    } set;
    for (const auto k : keys) set.insert(k);
    std::uint64_t cursor = 0;
    for (auto _ : state) switch_workload(set, keys, cursor);
}
BENCHMARK(BM_StdUnorderedSetSwitchMix);

void BM_RobinSetPreparedContains(benchmark::State& state) {
    const auto keys = make_keys(1 << 16, 4);
    RobinSet set(keys.size());
    for (const auto k : keys) set.insert(k);
    std::uint64_t cursor = 0;
    for (auto _ : state) {
        // Prefetch 4 queries ahead, then resolve (the §5.4 pattern).
        RobinSet::Prepared prepared[4];
        for (int b = 0; b < 4; ++b) prepared[b] = set.prepare(keys[(cursor + b) % keys.size()]);
        for (const auto& p : prepared) benchmark::DoNotOptimize(set.contains_prepared(p));
        cursor += 4;
    }
}
BENCHMARK(BM_RobinSetPreparedContains);

/// §5.3 option 1: sample a uniform edge from the auxiliary array.
void BM_SampleEdgeFromArray(benchmark::State& state) {
    const auto keys = make_keys(1 << 16, 5);
    Mt19937_64 gen(6);
    for (auto _ : state) {
        benchmark::DoNotOptimize(keys[uniform_below(gen, keys.size())]);
    }
}
BENCHMARK(BM_SampleEdgeFromArray);

/// §5.3 option 2: sample by probing random hash-set buckets; favors high
/// load factors, conflicting with fast queries — the paper measured the
/// array variant up to 30% faster overall.
void BM_SampleEdgeFromHashSet(benchmark::State& state) {
    const auto keys = make_keys(1 << 16, 7);
    ConcurrentEdgeSet set(keys.size());
    for (const auto k : keys) set.insert_unique(k);
    Mt19937_64 gen(8);
    for (auto _ : state) {
        benchmark::DoNotOptimize(set.sample_uniform(gen));
    }
}
BENCHMARK(BM_SampleEdgeFromHashSet);

/// Worst case for bucket sampling: 7/8 of the keys erased with no rebuild,
/// so random draws mostly hit tombs and the bounded-draw fallback carries
/// part of the load.  Regression bench for the sample_uniform probe cap.
void BM_SampleEdgeTombstoneFlood(benchmark::State& state) {
    const auto keys = make_keys(1 << 16, 9);
    ConcurrentEdgeSet set(keys.size());
    for (const auto k : keys) set.insert_unique(k);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (i % 8 != 0) set.erase(keys[i]);
    }
    Mt19937_64 gen(10);
    for (auto _ : state) {
        benchmark::DoNotOptimize(set.sample_uniform(gen));
    }
}
BENCHMARK(BM_SampleEdgeTombstoneFlood);

} // namespace

int main(int argc, char** argv) {
    return gesmc::run_micro_bench("hashset", argc, argv);
}
