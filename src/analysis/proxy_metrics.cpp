#include "analysis/proxy_metrics.hpp"

#include "graph/adjacency.hpp"
#include "graph/metrics.hpp"

namespace gesmc {

ProxySample measure_proxies(const Chain& chain, std::uint64_t superstep) {
    const EdgeList& g = chain.graph();
    const Adjacency adj(g);
    ProxySample s;
    s.superstep = superstep;
    s.triangles = triangle_count(adj);
    s.global_clustering = global_clustering(adj, s.triangles);
    s.assortativity = degree_assortativity(g);
    return s;
}

std::vector<ProxySample> proxy_series(Chain& chain, std::uint64_t supersteps,
                                      std::uint64_t stride) {
    std::vector<ProxySample> out;
    out.push_back(measure_proxies(chain, 0));
    for (std::uint64_t step = 1; step <= supersteps; ++step) {
        chain.run_supersteps(1);
        if (step % stride == 0 || step == supersteps) {
            out.push_back(measure_proxies(chain, step));
        }
    }
    return out;
}

} // namespace gesmc
