/// \file sequential_apply.hpp
/// \brief The one sequential switch step.
///
/// SeqES, SeqGlobalES, ParGlobalES's §7 base case, AdjListES and the test
/// reference executor all decide and apply one switch against an edge
/// array plus an edge set with identical semantics (see edge_switch.hpp
/// for the identity-case convention).
#pragma once

#include "core/chain.hpp"
#include "core/edge_switch.hpp"

#include <vector>

namespace gesmc {

/// Decides sw against the current state and applies it if legal.
/// `EdgeSet` answers contains(key) and applies erase(key) / insert(key):
/// a RobinSet, a OneWriterSet over a ConcurrentEdgeSet or AdjListES's
/// neighbor vectors.  Returns the outcome; updates accepted/rejected
/// counters in `stats`.
template <typename EdgeSet>
SwitchOutcome apply_switch_sequential(std::vector<edge_key_t>& keys, EdgeSet& set,
                                      const Switch& sw, ChainStats& stats) {
    const edge_key_t k1 = keys[sw.i];
    const edge_key_t k2 = keys[sw.j];
    const auto [t3, t4] = switch_targets(edge_from_key(k1), edge_from_key(k2), sw.g != 0);
    const SwitchOutcome outcome =
        decide_switch(k1, k2, t3, t4, [&set](edge_key_t k) { return set.contains(k); });
    switch (outcome) {
    case SwitchOutcome::kAccepted: {
        const edge_key_t k3 = edge_key(t3);
        const edge_key_t k4 = edge_key(t4);
        if (k3 != k1 && k3 != k2) { // identity no-op needs no set updates
            set.erase(k1);
            set.erase(k2);
            set.insert(k3);
            set.insert(k4);
        }
        keys[sw.i] = k3;
        keys[sw.j] = k4;
        ++stats.accepted;
        break;
    }
    case SwitchOutcome::kRejectedLoop:
        ++stats.rejected_loop;
        break;
    case SwitchOutcome::kRejectedEdge:
        ++stats.rejected_edge;
        break;
    }
    return outcome;
}

} // namespace gesmc
