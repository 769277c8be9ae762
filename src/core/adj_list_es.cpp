#include "core/adj_list_es.hpp"

#include "core/sequential_apply.hpp"

#include <algorithm>
#include <utility>

namespace gesmc {

AdjListES::NeighborSets::NeighborSets(const EdgeList& g) : nb_(g.num_nodes()) {
    for (const edge_key_t key : g.keys()) {
        const Edge e = edge_from_key(key);
        nb_[e.u].push_back(e.v);
        nb_[e.v].push_back(e.u);
    }
    for (auto& nb : nb_) std::sort(nb.begin(), nb.end());
}

bool AdjListES::NeighborSets::contains(edge_key_t key) const {
    const Edge e = edge_from_key(key);
    const bool u_smaller = nb_[e.u].size() <= nb_[e.v].size();
    const auto& small = u_smaller ? nb_[e.u] : nb_[e.v];
    return std::binary_search(small.begin(), small.end(), u_smaller ? e.v : e.u);
}

void AdjListES::NeighborSets::insert(edge_key_t key) {
    const Edge e = edge_from_key(key);
    for (const auto& [u, v] : {std::pair{e.u, e.v}, std::pair{e.v, e.u}}) {
        nb_[u].insert(std::lower_bound(nb_[u].begin(), nb_[u].end(), v), v);
    }
}

void AdjListES::NeighborSets::erase(edge_key_t key) {
    const Edge e = edge_from_key(key);
    for (const auto& [u, v] : {std::pair{e.u, e.v}, std::pair{e.v, e.u}}) {
        nb_[u].erase(std::lower_bound(nb_[u].begin(), nb_[u].end(), v));
    }
}

AdjListES::AdjListES(const EdgeList& initial, const ChainConfig& config)
    : SwitchingChain(ChainAlgorithm::kAdjListES, initial, config),
      neighbors_(initial),
      stream_(config.seed, initial.num_edges()) {}

void AdjListES::advance() {
    const std::uint64_t switches = edges_.num_edges() / 2;
    for (std::uint64_t t = 0; t < switches; ++t) {
        apply_switch_sequential(edges_.keys(), neighbors_, stream_.get(counter_++), stats_);
    }
    stats_.attempted += switches;
}

} // namespace gesmc
