#include "core/seq_es.hpp"

#include "core/sequential_apply.hpp"
#include "util/check.hpp"
#include "util/prefetch.hpp"

namespace gesmc {

SeqES::SeqES(const EdgeList& initial, const ChainConfig& config)
    : SwitchingChain(ChainAlgorithm::kSeqES, initial, config),
      set_(initial.num_edges()),
      stream_(config.seed, initial.num_edges()),
      prefetch_(config.prefetch) {
    set_.reserve(initial.num_edges());
    for (const edge_key_t k : edges_.keys()) set_.insert(k);
    GESMC_CHECK(!set_.would_rehash_on_insert(), "set must be pre-sized (stable prepares)");
}

void SeqES::run_switches(std::uint64_t count) {
    if (!prefetch_) {
        for (std::uint64_t t = 0; t < count; ++t) {
            apply_one(stream_.get(counter_ + t));
        }
    } else {
        std::uint64_t done = 0;
        while (done < count) {
            const auto block = static_cast<unsigned>(std::min<std::uint64_t>(4, count - done));
            run_block_pipelined(counter_ + done, block);
            done += block;
        }
    }
    counter_ += count;
    stats_.attempted += count;
}

void SeqES::apply_one(const Switch& sw) {
    apply_switch_sequential(edges_.keys(), set_, sw, stats_);
}

/// Four switches in flight (paper §5.4): stage 0 samples indices and
/// prefetches the edge-array entries, stage 1 reads the edges and
/// prefetches the four hash buckets each switch will touch, stage 2
/// decides and applies in stream order.  Decisions re-verify the cached
/// edge values: if an earlier switch of the same block rewired one of our
/// source indices (a source dependency within the block), the switch is
/// re-processed unpipelined — rare (O(block^2/m)) and exact.
void SeqES::run_block_pipelined(std::uint64_t first, unsigned block_len) {
    struct InFlight {
        Switch sw;
        edge_key_t k1, k2, k3, k4;
        RobinSet::Prepared p3, p4;
        bool degenerate; // loop or identity: no prepared queries used
    };
    InFlight fl[4];

    auto& keys = edges_.keys();

    // Stage 0: sample and prefetch edge array entries.
    for (unsigned b = 0; b < block_len; ++b) {
        fl[b].sw = stream_.get(first + b);
        prefetch_read(&keys[fl[b].sw.i]);
        prefetch_read(&keys[fl[b].sw.j]);
    }
    // Stage 1: read edges, compute targets, prefetch their buckets.
    for (unsigned b = 0; b < block_len; ++b) {
        auto& f = fl[b];
        f.k1 = keys[f.sw.i];
        f.k2 = keys[f.sw.j];
        const auto [t3, t4] = switch_targets(edge_from_key(f.k1), edge_from_key(f.k2),
                                             f.sw.g != 0);
        f.k3 = edge_key(t3);
        f.k4 = edge_key(t4);
        f.degenerate = t3.is_loop() || t4.is_loop() || f.k3 == f.k1 || f.k3 == f.k2;
        if (!f.degenerate) {
            f.p3 = set_.prepare(f.k3);
            f.p4 = set_.prepare(f.k4);
        }
    }
    // Stage 2: decide and apply in order.
    for (unsigned b = 0; b < block_len; ++b) {
        auto& f = fl[b];
        if (keys[f.sw.i] != f.k1 || keys[f.sw.j] != f.k2) {
            // In-block source dependency: cached state is stale.
            apply_one(f.sw);
            continue;
        }
        if (f.degenerate) {
            apply_one(f.sw); // cheap: no hash queries needed for loops/identity
            continue;
        }
        if (set_.contains_prepared(f.p3) || set_.contains_prepared(f.p4)) {
            ++stats_.rejected_edge;
            continue;
        }
        set_.erase(f.k1);
        set_.erase(f.k2);
        set_.insert(f.k3);
        set_.insert(f.k4);
        keys[f.sw.i] = f.k3;
        keys[f.sw.j] = f.k4;
        ++stats_.accepted;
    }
}

} // namespace gesmc
