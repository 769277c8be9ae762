/// \file cache_padded.hpp
/// \brief A value that owns its cache line.
///
/// Per-thread slots of a shared array (scratch lists, counters) are written
/// on every operation; packed next to each other they false-share one line
/// between all writers.  Wrapping each slot in CachePadded gives it a line
/// of its own.
#pragma once

#include "util/prefetch.hpp"

namespace gesmc {

template <typename T>
struct alignas(kCacheLineSize) CachePadded {
    T value{};
};

} // namespace gesmc
