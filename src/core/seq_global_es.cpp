#include "core/seq_global_es.hpp"

#include "core/sequential_apply.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/binomial.hpp"
#include "rng/counter_rng.hpp"
#include "rng/shuffle.hpp"
#include "util/check.hpp"

namespace gesmc {

namespace {
constexpr std::uint64_t kPermSalt = 0x7be20d4c91a6f358ULL;
constexpr std::uint64_t kLenSalt = 0x1f84c6b09e3d57a2ULL;
} // namespace

std::uint64_t sample_global_switch(std::vector<Switch>& out,
                                   std::vector<std::uint32_t>& perm_scratch,
                                   std::uint64_t num_edges, std::uint64_t seed,
                                   std::uint64_t gidx, double pl, ThreadPool& pool) {
    GESMC_CHECK(pl > 0.0 && pl < 1.0, "Definition 3 requires 0 < P_L < 1");
    sample_permutation(perm_scratch, num_edges, mix64(seed, kPermSalt, gidx), pool);
    auto len_gen = stream_for(seed, kLenSalt, gidx);
    const std::uint64_t l = sample_binomial(len_gen, num_edges / 2, 1.0 - pl);
    out.resize(l);
    pool.for_chunks(0, l, [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t k = lo; k < hi; ++k) {
            const std::uint32_t a = perm_scratch[2 * k];     // pi(2k-1), 0-based
            const std::uint32_t b = perm_scratch[2 * k + 1]; // pi(2k)
            out[k] = Switch{a, b, static_cast<std::uint8_t>(a < b ? 1 : 0)};
        }
    });
    return l;
}

SeqGlobalES::SeqGlobalES(const EdgeList& initial, const ChainConfig& config)
    : SwitchingChain(ChainAlgorithm::kSeqGlobalES, initial, config),
      set_(initial.num_edges()),
      pool_(make_pool_ref(config.shared_pool, 1)) {
    set_.reserve(initial.num_edges());
    for (const edge_key_t k : edges_.keys()) set_.insert(k);
}

void SeqGlobalES::advance() {
    stats_.attempted += sample_global_switch(switch_scratch_, perm_scratch_,
                                             edges_.num_edges(), seed_, counter_++, pl_, *pool_);
    for (const Switch& sw : switch_scratch_) {
        apply_switch_sequential(edges_.keys(), set_, sw, stats_);
    }
}

} // namespace gesmc
