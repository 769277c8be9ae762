#include "core/naive_par_es.hpp"

#include "util/check.hpp"

#include <thread>

namespace gesmc {

NaiveParES::NaiveParES(const EdgeList& initial, const ChainConfig& config)
    : edges_(initial.num_edges()),
      num_nodes_(initial.num_nodes()),
      set_(initial.num_edges()),
      seed_(config.seed),
      pool_(make_pool_ref(config.shared_pool, config.threads)) {
    GESMC_CHECK(initial.num_edges() >= 2, "need at least two edges to switch");
    GESMC_CHECK(initial.is_simple(), "initial graph must be simple");
    for (std::uint64_t i = 0; i < initial.num_edges(); ++i) {
        edges_[i].store(initial.key(i), std::memory_order_relaxed);
        set_.insert_unique(initial.key(i));
    }
}

NaiveParES::NaiveParES(const ChainState& state, const ChainConfig& config)
    : NaiveParES(EdgeList::from_keys(state.num_nodes, state.keys),
                 config_with_state(config, state)) {
    next_switch_ = state.counter;
    stats_ = state.stats;
}

NaiveParES::~NaiveParES() = default;

ChainState NaiveParES::snapshot() const {
    ChainState state;
    state.algorithm = ChainAlgorithm::kNaiveParES;
    state.seed = seed_;
    state.counter = next_switch_;
    state.num_nodes = num_nodes_;
    state.keys.resize(edges_.size());
    // Only exact at a quiescent point (between run_supersteps calls),
    // like every other accessor of this chain.
    for (std::uint64_t i = 0; i < edges_.size(); ++i) {
        state.keys[i] = edges_[i].load(std::memory_order_relaxed);
    }
    state.stats = stats_;
    return state;
}

const EdgeList& NaiveParES::graph() const {
    if (!snapshot_valid_) {
        std::vector<edge_key_t> keys(edges_.size());
        for (std::uint64_t i = 0; i < edges_.size(); ++i) {
            keys[i] = edges_[i].load(std::memory_order_relaxed);
        }
        snapshot_ = EdgeList::from_keys(num_nodes_, std::move(keys));
        snapshot_valid_ = true;
    }
    return snapshot_;
}

void NaiveParES::run_supersteps(std::uint64_t count, RunObserver* observer,
                                std::uint64_t replicate) {
    const std::uint64_t m = edges_.size();
    const std::uint64_t per_superstep = m / 2;
    for (std::uint64_t step = 0; step < count; ++step) {
        std::atomic<std::uint64_t> accepted{0}, rloop{0}, redge{0};
        const std::uint64_t base = next_switch_;
        // The switch stream is deterministic; its partition onto threads is
        // not part of the chain's definition (the algorithm is inexact
        // anyway), so a static split suffices.
        pool_->for_chunks(base, base + per_superstep,
                         [&](unsigned tid, std::uint64_t lo, std::uint64_t hi) {
                             SwitchStream stream(seed_, m);
                             std::uint64_t acc = 0, rl = 0, re = 0;
                             for (std::uint64_t k = lo; k < hi; ++k) {
                                 perform_switch(tid, stream.get(k), acc, rl, re);
                             }
                             accepted.fetch_add(acc);
                             rloop.fetch_add(rl);
                             redge.fetch_add(re);
                         });
        next_switch_ += per_superstep;
        stats_.attempted += per_superstep;
        stats_.accepted += accepted.load();
        stats_.rejected_loop += rloop.load();
        stats_.rejected_edge += redge.load();
        ++stats_.supersteps;
        set_.maybe_rebuild(); // quiescent point between supersteps
        snapshot_valid_ = false;
        if (observer != nullptr) observer->on_superstep(replicate, *this);
    }
}

void NaiveParES::perform_switch(unsigned tid, const Switch& sw, std::uint64_t& accepted,
                                std::uint64_t& rejected_loop, std::uint64_t& rejected_edge) {
    constexpr int kMaxConflictRetries = 64;
    int conflict_retries = 0;

    for (;;) {
        const edge_key_t k1 = edges_[sw.i].load(std::memory_order_acquire);
        const edge_key_t k2 = edges_[sw.j].load(std::memory_order_acquire);

        // Acquire tickets on both source edges (lock the edge values).
        auto slot1 = set_.try_lock(k1, tid);
        if (!slot1) {
            std::this_thread::yield();
            continue;
        }
        if (edges_[sw.i].load(std::memory_order_acquire) != k1) {
            set_.unlock(*slot1);
            continue; // index i was rewired under us
        }
        auto slot2 = set_.try_lock(k2, tid);
        if (!slot2) {
            set_.unlock(*slot1);
            std::this_thread::yield();
            continue;
        }
        if (edges_[sw.j].load(std::memory_order_acquire) != k2) {
            set_.unlock(*slot2);
            set_.unlock(*slot1);
            continue;
        }

        // Both sources are pinned; evaluate the switch.
        const auto [t3, t4] = switch_targets(edge_from_key(k1), edge_from_key(k2), sw.g != 0);
        if (t3.is_loop() || t4.is_loop()) {
            set_.unlock(*slot2);
            set_.unlock(*slot1);
            ++rejected_loop;
            return;
        }
        const edge_key_t k3 = edge_key(t3);
        const edge_key_t k4 = edge_key(t4);
        if (k3 == k1 || k3 == k2) { // identity no-op (see edge_switch.hpp)
            set_.unlock(*slot2);
            set_.unlock(*slot1);
            ++accepted;
            return;
        }

        // Tickets on the target edges: insert-and-lock.
        std::uint64_t slot3 = 0, slot4 = 0;
        const auto r3 = set_.try_insert_and_lock(k3, tid, slot3);
        if (r3 != ConcurrentEdgeSet::InsertLock::kInserted) {
            set_.unlock(*slot2);
            set_.unlock(*slot1);
            if (r3 == ConcurrentEdgeSet::InsertLock::kExistsLocked &&
                ++conflict_retries < kMaxConflictRetries) {
                std::this_thread::yield();
                continue; // transient: another PU is mid-switch on k3
            }
            ++rejected_edge;
            return;
        }
        const auto r4 = set_.try_insert_and_lock(k4, tid, slot4);
        if (r4 != ConcurrentEdgeSet::InsertLock::kInserted) {
            set_.erase_locked(slot3); // roll back our tentative insert
            set_.unlock(*slot2);
            set_.unlock(*slot1);
            if (r4 == ConcurrentEdgeSet::InsertLock::kExistsLocked &&
                ++conflict_retries < kMaxConflictRetries) {
                std::this_thread::yield();
                continue;
            }
            ++rejected_edge;
            return;
        }

        // Commit: rewire the indices, release the source edges, publish the
        // targets.
        edges_[sw.i].store(k3, std::memory_order_release);
        edges_[sw.j].store(k4, std::memory_order_release);
        set_.erase_locked(*slot1);
        set_.erase_locked(*slot2);
        set_.unlock(slot3);
        set_.unlock(slot4);
        ++accepted;
        return;
    }
}

} // namespace gesmc
