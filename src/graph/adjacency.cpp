#include "graph/adjacency.hpp"

#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>

namespace gesmc {

namespace {

/// Nodes per dynamically scheduled chunk of the per-node sorts.
constexpr std::uint64_t kSortGrain = 1024;

/// Calls visit(u, v) and visit(v, u) for every key {u, v}, restricted to the
/// endpoints in [lo, hi).
template <typename Visit>
void scan_endpoints(const std::vector<edge_key_t>& keys, node_t lo, node_t hi, Visit&& visit) {
    const node_t width = hi - lo;
    for (const edge_key_t key : keys) {
        const Edge e = edge_from_key(key);
        if (e.u - lo < width) visit(e.u, e.v);
        if (e.v - lo < width) visit(e.v, e.u);
    }
}

} // namespace

Adjacency::Adjacency(const EdgeList& graph, ThreadPool* pool) {
    ThreadPool serial(1);
    ThreadPool& p = pool != nullptr ? *pool : serial;
    const unsigned width = p.num_threads();
    const node_t n = graph.num_nodes();
    const std::vector<edge_key_t>& keys = graph.keys();

    // Counting scatter without atomics: each thread owns a node range and
    // scans every key, writing only the endpoints it owns, so a
    // neighborhood is filled in key order at any width.  Rereading the keys
    // per thread is sequential; the writes it spreads are random.
    offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
    p.run([&](unsigned tid) {
        const auto lo = static_cast<node_t>(std::uint64_t{n} * tid / width);
        const auto hi = static_cast<node_t>(std::uint64_t{n} * (tid + 1) / width);
        scan_endpoints(keys, lo, hi, [&](node_t u, node_t) { ++offsets_[u + 1]; });
    });
    for (std::size_t u = 0; u < n; ++u) offsets_[u + 1] += offsets_[u];

    // Scatter over node ranges of equal endpoint count, so hubs do not pile
    // onto one thread.
    neighbors_.resize(offsets_[n]);
    std::vector<node_t> bounds(width + 1, n);
    for (unsigned t = 0; t < width; ++t) {
        const std::uint64_t target = offsets_[n] * t / width;
        bounds[t] = static_cast<node_t>(
            std::lower_bound(offsets_.begin(), offsets_.end() - 1, target) - offsets_.begin());
    }
    std::vector<std::uint64_t> fill(offsets_.begin(), offsets_.end() - 1);
    p.run([&](unsigned tid) {
        scan_endpoints(keys, bounds[tid], bounds[tid + 1],
                       [&](node_t u, node_t v) { neighbors_[fill[u]++] = v; });
    });

    // Sorted, a loop {u, u} shows as u twice in u's neighborhood and a
    // duplicate edge as its far endpoint twice: adjacent equal entries.
    std::atomic<bool> simple{true};
    p.for_chunks_dynamic(0, n, kSortGrain, [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t u = lo; u < hi; ++u) {
            const auto first = neighbors_.begin() + static_cast<std::ptrdiff_t>(offsets_[u]);
            const auto last = neighbors_.begin() + static_cast<std::ptrdiff_t>(offsets_[u + 1]);
            std::sort(first, last);
            if (std::adjacent_find(first, last) != last) {
                simple.store(false, std::memory_order_relaxed);
            }
        }
    });
    simple_ = simple.load(std::memory_order_relaxed);
}

bool Adjacency::has_edge(node_t u, node_t v) const noexcept {
    if (degree(u) > degree(v)) std::swap(u, v);
    const auto nb = neighbors(u);
    return std::binary_search(nb.begin(), nb.end(), v);
}

} // namespace gesmc
