/// \file metrics.hpp
/// \brief Structural graph metrics used as randomization proxies (§6.1).
///
/// The paper notes that aggregate measures (assortativity, clustering,
/// triangle count, ...) are *less sensitive* proxies for mixing than the
/// autocorrelation method — we implement them both as analysis tools and to
/// demonstrate exactly that in the examples.
#pragma once

#include "graph/adjacency.hpp"
#include "graph/edge_list.hpp"

#include <cstdint>

namespace gesmc {

class ThreadPool;

/// Number of triangles (each counted once).  Degree-ordered: every edge
/// points to the endpoint with the larger (degree, id), and each node's
/// out-list is intersected with its out-neighbors' out-lists, in parallel
/// over nodes on `pool` (null: a width-1 pool).  The count does not depend
/// on the pool's width.
std::uint64_t triangle_count(const Adjacency& adj, ThreadPool* pool = nullptr);

/// Global clustering coefficient: 3 * triangles / wedges; 0 if no wedges.
/// Counts the triangles itself; pass a count already made to the overload
/// below instead of counting twice.
double global_clustering(const Adjacency& adj);
double global_clustering(const Adjacency& adj, std::uint64_t triangles);

/// Mean local clustering coefficient (nodes of degree < 2 contribute 0).
double mean_local_clustering(const Adjacency& adj);

/// Pearson correlation of endpoint degrees over edges (degree
/// assortativity, Newman 2002). Returns 0 for degenerate variance.
double degree_assortativity(const EdgeList& graph);

/// Number of connected components (isolated nodes count).
std::uint64_t connected_components(const Adjacency& adj);

/// Size of the largest connected component.
std::uint64_t largest_component(const Adjacency& adj);

} // namespace gesmc
