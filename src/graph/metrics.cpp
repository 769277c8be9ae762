#include "graph/metrics.hpp"

#include "parallel/thread_pool.hpp"
#include "util/cache_padded.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace gesmc {

namespace {

/// Nodes per dynamically scheduled chunk: hubs make per-node work uneven.
constexpr std::uint64_t kNodeGrain = 64;

std::uint64_t wedge_count(const Adjacency& adj) {
    std::uint64_t wedges = 0;
    for (node_t u = 0; u < adj.num_nodes(); ++u) {
        const std::uint64_t d = adj.degree(u);
        wedges += d * (d - 1) / 2;
    }
    return wedges;
}

} // namespace

std::uint64_t triangle_count(const Adjacency& adj, ThreadPool* pool) {
    ThreadPool serial(1);
    ThreadPool& p = pool != nullptr ? *pool : serial;
    const node_t n = adj.num_nodes();
    // Orient every edge toward the endpoint with the larger (degree, id).
    // A triangle then has one source u and is found once, as the one
    // common out-neighbor of u and its other corner v; hubs keep short
    // out-lists.
    const auto points_up = [&adj](node_t u, node_t v) {
        const std::uint32_t du = adj.degree(u);
        const std::uint32_t dv = adj.degree(v);
        return du < dv || (du == dv && u < v);
    };
    std::vector<std::uint64_t> out_offsets(static_cast<std::size_t>(n) + 1, 0);
    p.for_chunks_dynamic(0, n, kNodeGrain, [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t u = lo; u < hi; ++u) {
            const auto nu = adj.neighbors(static_cast<node_t>(u));
            out_offsets[u + 1] = static_cast<std::uint64_t>(std::count_if(
                nu.begin(), nu.end(),
                [&](node_t v) { return points_up(static_cast<node_t>(u), v); }));
        }
    });
    for (std::size_t u = 0; u < n; ++u) out_offsets[u + 1] += out_offsets[u];
    std::vector<node_t> out(out_offsets[n]);
    p.for_chunks_dynamic(0, n, kNodeGrain, [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t u = lo; u < hi; ++u) {
            const auto nu = adj.neighbors(static_cast<node_t>(u));
            std::copy_if(nu.begin(), nu.end(),
                         out.begin() + static_cast<std::ptrdiff_t>(out_offsets[u]),
                         [&](node_t v) { return points_up(static_cast<node_t>(u), v); });
        }
    });

    // Per thread, a bitmap over the nodes marks out(u) while u's
    // out-neighbors' out-lists are probed against it.  Rows are whole
    // cache lines apart.
    const std::size_t words = (static_cast<std::size_t>(n) + 511) / 512 * 8;
    std::vector<std::uint64_t> marks(words * p.num_threads(), 0);
    std::vector<CachePadded<std::uint64_t>> sums(p.num_threads());
    p.for_chunks_dynamic(0, n, kNodeGrain, [&](unsigned tid, std::uint64_t lo, std::uint64_t hi) {
        std::uint64_t* mark = marks.data() + words * tid;
        std::uint64_t triangles = 0;
        for (std::uint64_t u = lo; u < hi; ++u) {
            const node_t* first = out.data() + out_offsets[u];
            const node_t* last = out.data() + out_offsets[u + 1];
            for (const node_t* v = first; v != last; ++v) mark[*v >> 6] |= 1ULL << (*v & 63);
            for (const node_t* v = first; v != last; ++v) {
                const node_t* w_last = out.data() + out_offsets[*v + 1];
                for (const node_t* w = out.data() + out_offsets[*v]; w != w_last; ++w) {
                    triangles += (mark[*w >> 6] >> (*w & 63)) & 1;
                }
            }
            for (const node_t* v = first; v != last; ++v) mark[*v >> 6] = 0;
        }
        sums[tid].value += triangles;
    });
    std::uint64_t triangles = 0;
    for (const auto& s : sums) triangles += s.value;
    return triangles;
}

double global_clustering(const Adjacency& adj) {
    return global_clustering(adj, triangle_count(adj));
}

double global_clustering(const Adjacency& adj, std::uint64_t triangles) {
    const std::uint64_t wedges = wedge_count(adj);
    if (wedges == 0) return 0.0;
    return 3.0 * static_cast<double>(triangles) / static_cast<double>(wedges);
}

double mean_local_clustering(const Adjacency& adj) {
    const node_t n = adj.num_nodes();
    if (n == 0) return 0.0;
    double sum = 0;
    for (node_t u = 0; u < n; ++u) {
        const auto nu = adj.neighbors(u);
        const std::uint64_t d = nu.size();
        if (d < 2) continue;
        std::uint64_t closed = 0;
        for (std::size_t a = 0; a < nu.size(); ++a) {
            for (std::size_t b = a + 1; b < nu.size(); ++b) {
                if (adj.has_edge(nu[a], nu[b])) ++closed;
            }
        }
        sum += static_cast<double>(closed) / (static_cast<double>(d) * (d - 1) / 2.0);
    }
    return sum / static_cast<double>(n);
}

double degree_assortativity(const EdgeList& graph) {
    const auto deg = graph.degrees();
    const std::uint64_t m = graph.num_edges();
    if (m == 0) return 0.0;
    // Newman's r: Pearson correlation over the 2m ordered endpoint pairs.
    double sxy = 0, sx = 0, sxx = 0;
    for (std::uint64_t i = 0; i < m; ++i) {
        const Edge e = graph.edge(i);
        const double du = deg[e.u];
        const double dv = deg[e.v];
        sxy += 2 * du * dv;
        sx += du + dv;
        sxx += du * du + dv * dv;
    }
    const double inv = 1.0 / (2.0 * static_cast<double>(m));
    const double mean = sx * inv;
    const double var = sxx * inv - mean * mean;
    if (var <= 1e-12) return 0.0;
    const double cov = sxy * inv - mean * mean;
    return cov / var;
}

namespace {

std::vector<std::uint64_t> component_sizes(const Adjacency& adj) {
    const node_t n = adj.num_nodes();
    std::vector<bool> visited(n, false);
    std::vector<node_t> stack;
    std::vector<std::uint64_t> sizes;
    for (node_t s = 0; s < n; ++s) {
        if (visited[s]) continue;
        std::uint64_t size = 0;
        stack.push_back(s);
        visited[s] = true;
        while (!stack.empty()) {
            const node_t u = stack.back();
            stack.pop_back();
            ++size;
            for (const node_t v : adj.neighbors(u)) {
                if (!visited[v]) {
                    visited[v] = true;
                    stack.push_back(v);
                }
            }
        }
        sizes.push_back(size);
    }
    return sizes;
}

} // namespace

std::uint64_t connected_components(const Adjacency& adj) {
    return component_sizes(adj).size();
}

std::uint64_t largest_component(const Adjacency& adj) {
    const auto sizes = component_sizes(adj);
    return sizes.empty() ? 0 : *std::max_element(sizes.begin(), sizes.end());
}

} // namespace gesmc
