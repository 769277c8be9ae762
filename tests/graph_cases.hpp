// The graph families the property sweeps run every chain over: power-law
// (mild and skewed), sparse and dense G(n,p), a grid, a regular graph, a
// star forest and an erased configuration model.
#pragma once

#include "gen/configuration_model.hpp"
#include "gen/corpus.hpp"
#include "gen/gnp.hpp"
#include "gen/powerlaw.hpp"
#include "graph/degree_sequence.hpp"

#include <vector>

namespace gesmc::test {

struct GraphCase {
    const char* name;
    EdgeList (*make)();
};

inline EdgeList make_powerlaw_small() { return generate_powerlaw_graph(400, 2.1, 11); }
inline EdgeList make_powerlaw_skewed() { return generate_powerlaw_graph(600, 2.01, 12); }
inline EdgeList make_gnp_sparse() {
    return generate_gnp(500, gnp_probability_for_edges(500, 1500), 13);
}
inline EdgeList make_gnp_dense() { return generate_gnp(80, 0.6, 14); }
inline EdgeList make_grid() { return generate_grid(20, 25); }
inline EdgeList make_regular() { return generate_regular(300, 6); }
inline EdgeList make_star_forest() {
    // Extreme disassortative case: stars force loop rejections.
    std::vector<Edge> pairs;
    for (node_t s = 0; s < 5; ++s) {
        for (node_t leaf = 0; leaf < 30; ++leaf) {
            pairs.push_back(Edge{s, static_cast<node_t>(5 + s * 30 + leaf)});
        }
    }
    return EdgeList::from_pairs(5 + 150, pairs);
}
inline EdgeList make_config_model() {
    const DegreeSequence seq = sample_powerlaw_degrees(300, 2.4, 15);
    return configuration_model_erased(seq, 16);
}

inline const GraphCase kGraphCases[] = {
    {"powerlaw", make_powerlaw_small},   {"powerlaw-skewed", make_powerlaw_skewed},
    {"gnp-sparse", make_gnp_sparse},     {"gnp-dense", make_gnp_dense},
    {"grid", make_grid},                 {"regular", make_regular},
    {"star-forest", make_star_forest},   {"config-model", make_config_model},
};

} // namespace gesmc::test
