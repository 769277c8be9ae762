#include "core/par_es.hpp"

#include "util/bits.hpp"
#include "util/check.hpp"

#include <cmath>

namespace gesmc {

MinIndexMap::MinIndexMap(std::uint64_t num_edges, unsigned num_threads)
    : min_(num_edges), touched_(num_threads) {
    for (auto& cell : min_) cell.store(kNone, std::memory_order_relaxed);
}

std::uint32_t MinIndexMap::insert_if_min(std::uint32_t edge_index, std::uint32_t switch_index,
                                         unsigned tid) {
    auto& cell = min_[edge_index];
    std::uint32_t seen = cell.load(std::memory_order_relaxed);
    for (;;) {
        if (seen == kNone) {
            if (cell.compare_exchange_weak(seen, switch_index, std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
                touched_[tid].value.push_back(edge_index);
                return kNone;
            }
            continue; // seen updated; re-evaluate
        }
        if (switch_index >= seen) return seen; // cell already holds a smaller index
        if (cell.compare_exchange_weak(seen, switch_index, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
            return seen;
        }
    }
}

void MinIndexMap::reset(ThreadPool& pool) {
    pool.for_chunks_dynamic(0, touched_.size(), 1,
                            [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
                                for (std::uint64_t t = lo; t < hi; ++t) {
                                    for (const std::uint32_t cell : touched_[t].value) {
                                        min_[cell].store(kNone, std::memory_order_relaxed);
                                    }
                                    touched_[t].value.clear();
                                }
                            });
    std::atomic_thread_fence(std::memory_order_seq_cst);
}

ParES::ParES(const EdgeList& initial, const ChainConfig& config)
    : edges_(initial),
      set_(initial.num_edges()),
      stream_(config.seed, initial.num_edges()),
      pool_(make_pool_ref(config.shared_pool, config.threads)),
      index_map_(initial.num_edges(), pool_->num_threads()),
      runner_(initial.num_edges(), config.prefetch) {
    GESMC_CHECK(initial.num_edges() >= 2, "need at least two edges to switch");
    GESMC_CHECK(initial.is_simple(), "initial graph must be simple");
    set_.refill(edges_.keys(), *pool_);
}

ParES::ParES(const ChainState& state, const ChainConfig& config)
    : ParES(EdgeList::from_keys(state.num_nodes, state.keys),
            config_with_state(config, state)) {
    next_switch_ = state.counter;
    stats_ = state.stats;
    attempted_at_construction_ = state.stats.attempted;
}

ParES::~ParES() = default;

ChainState ParES::snapshot() const {
    ChainState state;
    state.algorithm = ChainAlgorithm::kParES;
    state.seed = stream_.seed();
    state.counter = next_switch_;
    state.num_nodes = edges_.num_nodes();
    state.keys = edges_.keys();
    state.stats = stats_;
    return state;
}

const EdgeList& ParES::graph() const { return edges_; }

double ParES::mean_superstep_length() const {
    if (windows_executed_ == 0) return 0.0;
    // Only the switches attempted by this object: restored stats carry the
    // pre-snapshot attempts, but windows_executed_ starts at the restore.
    return static_cast<double>(stats_.attempted - attempted_at_construction_) /
           static_cast<double>(windows_executed_);
}

void ParES::run_supersteps(std::uint64_t count, RunObserver* observer,
                           std::uint64_t replicate) {
    const std::uint64_t per_superstep = edges_.num_edges() / 2;
    for (std::uint64_t s = 0; s < count; ++s) {
        run_switch_range(next_switch_ + per_superstep);
        ++stats_.supersteps;
        if (observer != nullptr) observer->on_superstep(replicate, *this);
    }
}

std::uint64_t ParES::find_window_end(std::uint64_t s, std::uint64_t cap) {
    index_map_.reset(*pool_);
    std::atomic<std::uint64_t> bound{cap};
    // Expected window length is Theta(sqrt(m)) (paper §3); scan in chunks of
    // that order, doubling, so we rarely overshoot by more than 2x.
    std::uint64_t chunk = std::max<std::uint64_t>(
        256, static_cast<std::uint64_t>(2.0 * std::sqrt(double(stream_.num_edges()))));
    std::uint64_t scanned = s;
    while (scanned < bound.load(std::memory_order_relaxed)) {
        const std::uint64_t begin = scanned;
        const std::uint64_t end = std::min(begin + chunk, cap);
        pool_->for_chunks(begin, end, [&](unsigned tid, std::uint64_t lo, std::uint64_t hi) {
            for (std::uint64_t k = lo; k < hi; ++k) {
                // Skip work beyond the current bound (it will be discarded),
                // but stay conservative: the bound may still shrink.
                if (k >= bound.load(std::memory_order_relaxed)) break;
                const Switch sw = stream_.get(k);
                const auto ki = static_cast<std::uint32_t>(k);
                for (const std::uint32_t edge_idx : {sw.i, sw.j}) {
                    const std::uint32_t prev = index_map_.insert_if_min(edge_idx, ki, tid);
                    if (prev == MinIndexMap::kNone) continue;
                    // Collision: the later of the two indices bounds the
                    // window (paper: t' = max{k, k'}, t = min{t, t'}).
                    const std::uint64_t t = std::max<std::uint64_t>(ki, prev);
                    std::uint64_t cur = bound.load(std::memory_order_relaxed);
                    while (t < cur &&
                           !bound.compare_exchange_weak(cur, t, std::memory_order_acq_rel)) {
                    }
                }
            }
        });
        scanned = end;
        chunk *= 2;
    }
    const std::uint64_t t = bound.load();
    GESMC_CHECK(t > s, "window must contain at least one switch");
    return t;
}

void ParES::run_switch_range(std::uint64_t end) {
    while (next_switch_ < end) {
        const std::uint64_t s = next_switch_;
        // Capping windows at the superstep boundary only shortens them;
        // the executed switch sequence (and thus the graph) is unchanged.
        const std::uint64_t t = find_window_end(s, end);

        window_.resize(t - s);
        pool_->for_chunks(s, t, [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
            for (std::uint64_t k = lo; k < hi; ++k) window_[k - s] = stream_.get(k);
        });

        const SuperstepResult result = runner_.run(*pool_, edges_.keys(), set_, window_);
        stats_.attempted += t - s;
        stats_.accepted += result.accepted;
        stats_.rejected_loop += result.rejected_loop;
        stats_.rejected_edge += result.rejected_edge;
        stats_.rounds_total += result.rounds;
        stats_.rounds_max = std::max<std::uint64_t>(stats_.rounds_max, result.rounds);
        stats_.first_round_seconds += result.first_round_seconds;
        stats_.later_rounds_seconds += result.later_rounds_seconds;
        ++windows_executed_;

        // Between windows the edge list holds exactly the live keys, so the
        // set rebuilds from it on the pool.
        if (set_.needs_rebuild()) set_.refill(edges_.keys(), *pool_);
        next_switch_ = t;
    }
}

} // namespace gesmc
