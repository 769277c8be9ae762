/// \file adj_list_es.hpp
/// \brief AdjListES — adjacency-list ES-MC reference implementation.
///
/// Stands in for the NetworKit / Gengraph comparators of the paper's
/// runtime table (Fig. 4), which are not available offline (DESIGN.md §4).
/// It mirrors the data-structure choices of that implementation class
/// (paper §5.2): the graph lives in per-node sorted adjacency vectors,
/// existence queries binary-search the smaller neighborhood (O(log d)),
/// and updates shift vector elements (O(d)).  An auxiliary edge array
/// provides uniform edge sampling.  The paper's argument is that hash-set
/// representations beat this by an order of magnitude — our Fig. 4 bench
/// reproduces exactly that comparison.
#pragma once

#include "core/chain.hpp"
#include "core/switch_stream.hpp"

#include <vector>

namespace gesmc {

class AdjListES final : public SwitchingChain {
public:
    AdjListES(const EdgeList& initial, const ChainConfig& config);

    [[nodiscard]] bool has_edge(edge_key_t key) const override {
        return neighbors_.contains(key);
    }

private:
    /// Per-node sorted neighbor vectors, addressed by edge key for the
    /// shared sequential switch step.
    class NeighborSets {
    public:
        explicit NeighborSets(const EdgeList& g);
        [[nodiscard]] bool contains(edge_key_t key) const;
        void insert(edge_key_t key);
        void erase(edge_key_t key);

    private:
        std::vector<std::vector<node_t>> nb_;
    };

    void advance() override;

    NeighborSets neighbors_;
    SwitchStream stream_;
};

} // namespace gesmc
