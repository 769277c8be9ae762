#include "core/par_global_es.hpp"

#include "core/seq_global_es.hpp" // sample_global_switch
#include "util/check.hpp"

namespace gesmc {

ParGlobalES::ParGlobalES(const EdgeList& initial, const ChainConfig& config)
    : edges_(initial),
      set_(initial.num_edges()),
      seed_(config.seed),
      pl_(config.pl),
      small_graph_cutoff_(config.small_graph_cutoff),
      pool_(make_pool_ref(config.shared_pool, config.threads)),
      runner_(initial.num_edges() / 2, config.prefetch) {
    GESMC_CHECK(initial.num_edges() >= 2, "need at least two edges to switch");
    GESMC_CHECK(initial.is_simple(), "initial graph must be simple");
    set_.refill(edges_.keys(), *pool_);
}

ParGlobalES::ParGlobalES(const ChainState& state, const ChainConfig& config)
    : ParGlobalES(EdgeList::from_keys(state.num_nodes, state.keys),
                  config_with_state(config, state)) {
    next_global_ = state.counter;
    stats_ = state.stats;
}

ParGlobalES::~ParGlobalES() = default;

ChainState ParGlobalES::snapshot() const {
    ChainState state;
    state.algorithm = ChainAlgorithm::kParGlobalES;
    state.seed = seed_;
    state.counter = next_global_;
    state.pl = pl_;
    state.num_nodes = edges_.num_nodes();
    state.keys = edges_.keys();
    state.stats = stats_;
    return state;
}

void ParGlobalES::run_supersteps(std::uint64_t count, RunObserver* observer,
                                 std::uint64_t replicate) {
    for (std::uint64_t step = 0; step < count; ++step) {
        const std::uint64_t l =
            sample_global_switch(switch_scratch_, perm_scratch_, edges_.num_edges(), seed_,
                                 next_global_++, pl_, *pool_);
        stats_.attempted += l;
        if (edges_.num_edges() < small_graph_cutoff_) {
            // §7 base case: skip the superstep machinery; the outcome is
            // identical (the superstep reproduces sequential execution).
            run_global_switch_sequential();
            last_rounds_ = 0;
        } else {
            const SuperstepResult result =
                runner_.run(*pool_, edges_.keys(), set_, switch_scratch_);
            last_rounds_ = result.rounds;
            stats_.accepted += result.accepted;
            stats_.rejected_loop += result.rejected_loop;
            stats_.rejected_edge += result.rejected_edge;
            stats_.rounds_total += result.rounds;
            stats_.rounds_max = std::max<std::uint64_t>(stats_.rounds_max, result.rounds);
            stats_.first_round_seconds += result.first_round_seconds;
            stats_.later_rounds_seconds += result.later_rounds_seconds;
        }
        ++stats_.supersteps;
        // Between supersteps the edge list holds exactly the live keys, so
        // the set rebuilds from it on the pool.
        if (set_.needs_rebuild()) set_.refill(edges_.keys(), *pool_);
        if (observer != nullptr) observer->on_superstep(replicate, *this);
    }
}

void ParGlobalES::run_global_switch_sequential() {
    auto& keys = edges_.keys();
    for (const Switch& sw : switch_scratch_) {
        const edge_key_t k1 = keys[sw.i];
        const edge_key_t k2 = keys[sw.j];
        const auto [t3, t4] =
            switch_targets(edge_from_key(k1), edge_from_key(k2), sw.g != 0);
        const SwitchOutcome outcome = decide_switch(
            k1, k2, t3, t4, [this](edge_key_t k) { return set_.contains(k); });
        switch (outcome) {
        case SwitchOutcome::kAccepted: {
            const edge_key_t k3 = edge_key(t3);
            const edge_key_t k4 = edge_key(t4);
            if (k3 != k1 && k3 != k2) {
                set_.erase_unique(k1);
                set_.erase_unique(k2);
                set_.insert_unique(k3);
                set_.insert_unique(k4);
            }
            keys[sw.i] = k3;
            keys[sw.j] = k4;
            ++stats_.accepted;
            break;
        }
        case SwitchOutcome::kRejectedLoop:
            ++stats_.rejected_loop;
            break;
        case SwitchOutcome::kRejectedEdge:
            ++stats_.rejected_edge;
            break;
        }
    }
}

} // namespace gesmc
