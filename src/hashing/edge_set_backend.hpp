/// \file edge_set_backend.hpp
/// \brief One-value stub of the removed edge-set backend knob.
///
/// ConcurrentEdgeSet is the only edge table.  This enum, the
/// `edge_set_backend` fields of PipelineConfig and ChainConfig (which no
/// chain reads) and the unnamed ConcurrentEdgeSet constructor parameter are
/// kept only because the end-to-end benchmark's sources
/// (e2ebench/src/replay.cpp) still name them.
#pragma once

namespace gesmc {

enum class EdgeSetBackend { kLocked };

} // namespace gesmc
