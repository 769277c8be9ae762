#include "core/par_global_es.hpp"

#include "core/seq_global_es.hpp" // sample_global_switch
#include "core/sequential_apply.hpp"

namespace gesmc {

ParGlobalES::ParGlobalES(const EdgeList& initial, const ChainConfig& config)
    : SwitchingChain(ChainAlgorithm::kParGlobalES, initial, config),
      small_graph_cutoff_(config.small_graph_cutoff),
      pool_(make_pool_ref(config.shared_pool, config.threads)),
      set_(edges_.keys(), *pool_),
      runner_(initial.num_edges() / 2, config.prefetch, &*pool_) {}

void ParGlobalES::advance() {
    stats_.attempted += sample_global_switch(switch_scratch_, perm_scratch_,
                                             edges_.num_edges(), seed_, counter_++, pl_, *pool_);
    if (edges_.num_edges() < small_graph_cutoff_) {
        // §7 base case: skip the superstep machinery; the outcome is
        // identical (the superstep reproduces sequential execution).
        OneWriterSet one_writer{set_};
        for (const Switch& sw : switch_scratch_) {
            apply_switch_sequential(edges_.keys(), one_writer, sw, stats_);
        }
        last_rounds_ = 0;
    } else {
        const SuperstepResult result = runner_.run(*pool_, edges_.keys(), set_, switch_scratch_);
        last_rounds_ = result.rounds;
        add_superstep(stats_, result);
    }
    // Between supersteps the edge list holds exactly the live keys, so the
    // set rebuilds from it on the pool.
    if (set_.needs_rebuild()) set_.refill(edges_.keys(), *pool_);
}

} // namespace gesmc
