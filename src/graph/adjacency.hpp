/// \file adjacency.hpp
/// \brief Immutable CSR adjacency built from an edge list.
///
/// The switching chains never use adjacency (the paper argues hash sets are
/// the right representation, §5.2) — CSR serves the *finish* of a replicate:
/// the verify decision, the GESB output (graph/io) and the structural
/// metrics (graph/metrics) all read one CSR.
#pragma once

#include "graph/edge_list.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace gesmc {

class ThreadPool;

class Adjacency {
public:
    /// Builds CSR with sorted neighborhoods straight from the edge keys: a
    /// counting scatter, then one sort per node.  Runs on `pool` (null: a
    /// width-1 pool, i.e. the caller alone); the result does not depend on
    /// the pool's width.  Accepts any keys within the node range: loops and
    /// duplicate edges land in the neighborhoods, where is_simple() sees them.
    explicit Adjacency(const EdgeList& graph, ThreadPool* pool = nullptr);

    [[nodiscard]] node_t num_nodes() const noexcept {
        return static_cast<node_t>(offsets_.size() - 1);
    }
    [[nodiscard]] std::uint64_t num_edges() const noexcept { return neighbors_.size() / 2; }

    [[nodiscard]] std::span<const node_t> neighbors(node_t u) const noexcept {
        return {neighbors_.data() + offsets_[u], neighbors_.data() + offsets_[u + 1]};
    }

    [[nodiscard]] std::uint32_t degree(node_t u) const noexcept {
        return static_cast<std::uint32_t>(offsets_[u + 1] - offsets_[u]);
    }

    /// False iff some neighborhood holds its own node (a loop) or one node
    /// twice (a duplicate edge).
    [[nodiscard]] bool is_simple() const noexcept { return simple_; }

    /// Binary search in the sorted neighborhood of the lower-degree endpoint.
    [[nodiscard]] bool has_edge(node_t u, node_t v) const noexcept;

private:
    std::vector<std::uint64_t> offsets_;
    std::vector<node_t> neighbors_;
    bool simple_ = true;
};

} // namespace gesmc
