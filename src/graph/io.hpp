/// \file io.hpp
/// \brief Graph and degree-sequence IO: text edge lists, a compact binary
/// edge-list format, and degree-sequence files.
///
/// Text format: optional '%'/'#' comment lines, then one "u v" pair per line
/// (0-based node ids). Loops and duplicate edges are rejected on read, and
/// directed duplicates collapse to one undirected edge — the same cleaning
/// the paper applies to the NetRep graphs (§6).
///
/// Binary format ("GESB", version 1): a canonical, compact encoding for
/// large corpora. Layout:
///   bytes 0..3   magic "GESB"
///   byte  4      format version (1)
///   varint       num_nodes
///   varint       num_edges
///   varint * m   delta-encoded sorted edge keys (first key absolute, then
///                key[i] - key[i-1]; strictly positive for simple graphs)
/// Varints are LEB128 (7 data bits per byte, high bit = continuation).
/// Sorting makes the encoding canonical — two equal graphs always produce
/// identical bytes — and keeps deltas small: real corpora compress to a few
/// bytes per edge instead of the text format's ~2 decimal ids + separators.
///
/// Chain-state section ("GESB" + tag 'S', version 1): a resumable chain
/// snapshot (core/chain.hpp ChainState).  Shares the GESB magic so one
/// sniffing rule covers the whole binary family; the fifth byte
/// distinguishes sections (graph sections put their format version there,
/// chain-state sections the tag 'S' followed by their own version byte).
/// This is the one place graph/ includes a core/ header — deliberate: the
/// GESB container (magic, varints, sniffing) has a single home, and the
/// include is acyclic (core/chain.hpp pulls only graph/edge_list.hpp).
/// Layout after the 6-byte preamble, all integers LEB128 varints:
///   varint       algorithm name length, then that many name bytes
///                (CLI names, e.g. "par-global-es" — stable across enum
///                reorderings)
///   varint       seed
///   varint       counter (stream position; see ChainState)
///   8 bytes      pl (IEEE-754 bit pattern, little-endian; G-ES trajectory
///                parameter — ES chains ignore it)
///   varint       num_nodes
///   varint       num_edges
///   varint * 7   stats: supersteps, attempted, accepted, rejected_loop,
///                rejected_edge, rounds_total, rounds_max
///   8 bytes * 2  stats: first_round_seconds, later_rounds_seconds
///                (IEEE-754 bit patterns, little-endian)
///   varint * m   edge keys in slot order (raw, NOT delta-coded: the order
///                is the chain's sampling array, not sorted)
///
/// Degree-sequence files: whitespace-separated non-negative integers with
/// the same '%'/'#' comment rules, in node-id order.
///
/// Errors: a file that cannot be opened or written, a malformed line and a
/// malformed section throw Error whose what() is the message alone (e.g.
/// "cannot open for reading: <path>"), which the tools print as is.
#pragma once

#include "core/chain.hpp"
#include "graph/adjacency.hpp"
#include "graph/degree_sequence.hpp"
#include "graph/edge_list.hpp"

#include <functional>
#include <iosfwd>
#include <string>

namespace gesmc {

/// Writes "u v" lines preceded by a "# nodes <n> edges <m>" header.
void write_edge_list(std::ostream& os, const EdgeList& graph);
void write_edge_list_file(const std::string& path, const EdgeList& graph);

/// Reads an edge list; node count is 1 + max id unless the header names it.
/// Self-loops are dropped and duplicate (multi-)edges collapsed, mirroring
/// the paper's NetRep preprocessing.
EdgeList read_edge_list(std::istream& is);
EdgeList read_edge_list_file(const std::string& path);

/// Writes the compact binary format (canonical: edges sorted by key).
void write_edge_list_binary(std::ostream& os, const EdgeList& graph);
void write_edge_list_binary_file(const std::string& path, const EdgeList& graph);

/// The same bytes from a CSR: walking each u and its neighbors v > u yields
/// the sorted keys without a sort.  Throws Error if `adj` is not simple.
void write_edge_list_binary(std::ostream& os, const Adjacency& adj);
void write_edge_list_binary_file(const std::string& path, const Adjacency& adj);

/// Reads the binary format (the rest of `is`, decoded from one buffer);
/// throws Error on bad magic/version/payload.
EdgeList read_edge_list_binary(std::istream& is);
EdgeList read_edge_list_binary_file(const std::string& path);

/// True iff the stream/file starts with the binary magic (peeks, does not
/// consume).
bool is_binary_edge_list(std::istream& is);

/// Reads either format, sniffing the magic bytes.
EdgeList read_any_edge_list_file(const std::string& path);

/// Writes the GESB chain-state section (see the header comment).
void write_chain_state(std::ostream& os, const ChainState& state);
void write_chain_state_file(const std::string& path, const ChainState& state);

/// Crash-safe file write: `write` fills a sibling temp file, which is
/// flushed, checked and then renamed into place, so a kill mid-write can
/// neither leave a truncated file nor destroy the previous good one.  Every
/// checkpoint file (.gesc and the adaptive .gesa sidecar) goes through it.
void write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& write);
void write_chain_state_file_atomic(const std::string& path, const ChainState& state);

/// Reads a chain-state section; throws Error on bad magic/tag/version,
/// unknown algorithm name, or a truncated/overflowing payload.
ChainState read_chain_state(std::istream& is);
ChainState read_chain_state_file(const std::string& path);

/// True iff the stream/file starts with the chain-state preamble (peeks,
/// does not consume) — the sniffing twin of is_binary_edge_list.
bool is_chain_state(std::istream& is);
bool is_chain_state_file(const std::string& path);

/// Writes one degree per line with a "# nodes <n>" header.
void write_degree_sequence(std::ostream& os, const DegreeSequence& seq);
void write_degree_sequence_file(const std::string& path, const DegreeSequence& seq);

/// Reads whitespace-separated degrees ('%'/'#' comment lines allowed),
/// parsing the rest of `is` from one buffer with the rules of
/// `std::istream >> std::uint64_t` applied line by line.
DegreeSequence read_degree_sequence(std::istream& is);
DegreeSequence read_degree_sequence_file(const std::string& path);

} // namespace gesmc
