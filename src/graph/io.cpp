#include "graph/io.hpp"

#include "util/binio.hpp"
#include "util/check.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace gesmc {

namespace {

constexpr char kBinaryMagic[4] = {'G', 'E', 'S', 'B'};
constexpr std::uint8_t kBinaryVersion = 1;

// Chain-state sections share the magic; byte 4 carries this tag instead of
// a graph format version ('S' = 0x53, far from any plausible version
// number), byte 5 the section's own version.
constexpr char kChainStateTag = 'S';
constexpr std::uint8_t kChainStateVersion = 1;

/// isspace in the "C" locale: ' ', '\t', '\n', '\v', '\f', '\r'.
bool is_c_space(char c) noexcept { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Reads the number at line[i..] as `std::istringstream >> std::uint64_t`
/// reads it in the "C" locale: blanks, an optional sign ('-' wraps, as in
/// strtoull), decimal digits; the next number may follow without a blank.
/// Returns nullopt when the read fails only by reaching the end of the line
/// (nothing left but blanks, a bare sign, a number beyond 64 bits), and
/// throws "malformed <kind> line" when it fails before the end.
std::optional<std::uint64_t> next_number(std::string_view line, std::size_t& i,
                                         const char* kind) {
    while (i < line.size() && is_c_space(line[i])) ++i;
    if (i == line.size()) return std::nullopt;
    const bool negative = line[i] == '-';
    if (negative || line[i] == '+') ++i;
    if (i == line.size()) return std::nullopt;
    const std::size_t digits = i;
    std::uint64_t d = 0;
    bool overflow = false;
    for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) {
        const auto digit = static_cast<std::uint64_t>(line[i] - '0');
        if (d > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
            overflow = true;
        } else {
            d = 10 * d + digit;
        }
    }
    if (i == digits || (overflow && i != line.size())) {
        throw Error(std::string("malformed ") + kind + " line: " + std::string(line));
    }
    if (overflow) return std::nullopt;
    return negative ? 0 - d : d;
}

/// Calls fn(line) for every line of `text`, without the '\n'.
template <typename Fn>
void for_each_line(std::string_view text, Fn&& fn) {
    for (std::size_t begin = 0; begin < text.size();) {
        const std::size_t newline = std::min(text.find('\n', begin), text.size());
        fn(text.substr(begin, newline - begin));
        begin = newline + 1;
    }
}

} // namespace

void write_edge_list(std::ostream& os, const EdgeList& graph) {
    os << "# nodes " << graph.num_nodes() << " edges " << graph.num_edges() << '\n';
    for (std::uint64_t i = 0; i < graph.num_edges(); ++i) {
        const Edge e = graph.edge(i);
        os << e.u << ' ' << e.v << '\n';
    }
    if (!os.good()) throw Error("edge list write failed");
}

void write_edge_list_file(const std::string& path, const EdgeList& graph) {
    std::ofstream os(path);
    if (!os.good()) throw Error("cannot open for writing: " + path);
    write_edge_list(os, graph);
}

EdgeList read_edge_list(std::istream& is) {
    std::vector<edge_key_t> keys;
    node_t declared_nodes = 0;
    node_t max_node = 0;
    for_each_line(binio::read_rest(is), [&](std::string_view line) {
        if (line.empty()) return;
        if (line[0] == '%' || line[0] == '#') {
            std::istringstream header(std::string(line.substr(1)));
            std::string word;
            while (header >> word) {
                if (word == "nodes") header >> declared_nodes;
            }
            return;
        }
        // Two numbers, as `istringstream >> u >> v` reads them; the rest of
        // the line is ignored.
        std::size_t i = 0;
        const std::optional<std::uint64_t> u = next_number(line, i, "edge");
        const std::optional<std::uint64_t> v = u ? next_number(line, i, "edge") : std::nullopt;
        if (!u || !v) throw Error("malformed edge line: " + std::string(line));
        if (*u > kMaxNode || *v > kMaxNode) throw Error("node id exceeds 2^28-1");
        if (*u == *v) return; // drop self-loops (paper's NetRep cleaning)
        keys.push_back(edge_key(static_cast<node_t>(*u), static_cast<node_t>(*v)));
        max_node = std::max({max_node, static_cast<node_t>(*u), static_cast<node_t>(*v)});
    });
    // Collapse multi-edges.
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    const node_t n = std::max<node_t>(declared_nodes, keys.empty() ? 0 : max_node + 1);
    return EdgeList::from_keys(n, std::move(keys));
}

EdgeList read_edge_list_file(const std::string& path) {
    std::ifstream is(path);
    if (!is.good()) throw Error("cannot open for reading: " + path);
    return read_edge_list(is);
}

// ------------------------------------------------------------------ binary

namespace {

/// A graph section over the ascending keys that `for_each_key(emit)` emits:
/// the first key absolute, then the deltas.  One buffer, written once.
template <typename ForEachKey>
std::string encode_edge_list_binary(node_t n, std::uint64_t m, ForEachKey&& for_each_key) {
    std::string out(kBinaryMagic, sizeof(kBinaryMagic));
    out.push_back(static_cast<char>(kBinaryVersion));
    binio::append_varint(out, n);
    binio::append_varint(out, m);
    out.reserve(out.size() + 4 * m); // a few bytes per delta; grows if not
    edge_key_t prev = 0;
    for_each_key([&](edge_key_t key) {
        binio::append_varint(out, key - prev);
        prev = key;
    });
    return out;
}

void write_bytes(std::ostream& os, const std::string& bytes) {
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!os.good()) throw Error("binary edge list write failed");
}

} // namespace

void write_edge_list_binary(std::ostream& os, const EdgeList& graph) {
    const std::vector<edge_key_t> sorted = graph.sorted_keys();
    write_bytes(os, encode_edge_list_binary(graph.num_nodes(), sorted.size(), [&](auto&& emit) {
        for (const edge_key_t key : sorted) emit(key);
    }));
}

void write_edge_list_binary_file(const std::string& path, const EdgeList& graph) {
    std::ofstream os(path, std::ios::binary);
    if (!os.good()) throw Error("cannot open for writing: " + path);
    write_edge_list_binary(os, graph);
}

void write_edge_list_binary(std::ostream& os, const Adjacency& adj) {
    // A loop or a duplicate would break the header's edge count and the
    // strictly increasing keys.
    GESMC_CHECK(adj.is_simple(), "binary edge list: the graph is not simple");
    const node_t n = adj.num_nodes();
    write_bytes(os, encode_edge_list_binary(n, adj.num_edges(), [&](auto&& emit) {
        for (node_t u = 0; u < n; ++u) {
            const auto nu = adj.neighbors(u);
            for (auto it = std::upper_bound(nu.begin(), nu.end(), u); it != nu.end(); ++it) {
                emit(edge_key(u, *it));
            }
        }
    }));
}

void write_edge_list_binary_file(const std::string& path, const Adjacency& adj) {
    std::ofstream os(path, std::ios::binary);
    if (!os.good()) throw Error("cannot open for writing: " + path);
    write_edge_list_binary(os, adj);
}

EdgeList read_edge_list_binary(std::istream& is) {
    const std::string bytes = binio::read_rest(is);
    if (bytes.size() < sizeof(kBinaryMagic) ||
        std::memcmp(bytes.data(), kBinaryMagic, sizeof(kBinaryMagic)) != 0) {
        throw Error("not a GESB binary edge list");
    }
    binio::Decoder in(std::string_view(bytes).substr(sizeof(kBinaryMagic)),
                      "binary edge list");
    const int version = in.get();
    if (version == kChainStateTag) {
        throw Error("this GESB file is a chain-state section, not a graph "
                    "(read it with read_chain_state)");
    }
    if (version != kBinaryVersion) {
        throw Error("unsupported GESB version: " + std::to_string(version));
    }
    const std::uint64_t n = in.varint();
    if (n > static_cast<std::uint64_t>(kMaxNode) + 1) throw Error("node count exceeds 2^28");
    const std::uint64_t m = in.varint();
    std::vector<edge_key_t> keys;
    // Don't trust the header's edge count for the allocation: a corrupt m
    // must fail as "truncated" below, not as a multi-exabyte reserve here.
    // Every delta takes at least one byte.
    keys.reserve(std::min<std::uint64_t>(m, in.remaining()));
    edge_key_t prev = 0;
    for (std::uint64_t i = 0; i < m; ++i) {
        const std::uint64_t delta = in.varint();
        // Deltas of the sorted key sequence are strictly positive (key 0 is
        // the loop {0,0}, never a simple edge; a zero delta later would be a
        // duplicate).  Guard the sum against wrap-around too: wrapped keys
        // would break the strictly-increasing order that from_keys's
        // per-key validation cannot check.
        if (delta == 0) throw Error("binary edge list: duplicate or zero key");
        if (delta > ~prev) throw Error("binary edge list: key overflows 64 bits");
        prev += delta;
        keys.push_back(prev);
    }
    // from_keys validates canonical form and node range.
    return EdgeList::from_keys(static_cast<node_t>(n), std::move(keys));
}

EdgeList read_edge_list_binary_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    if (!is.good()) throw Error("cannot open for reading: " + path);
    return read_edge_list_binary(is);
}

bool is_binary_edge_list(std::istream& is) {
    char magic[4] = {};
    const std::streampos pos = is.tellg();
    is.read(magic, sizeof(magic));
    const bool matched = is.gcount() == static_cast<std::streamsize>(sizeof(magic)) &&
                         std::memcmp(magic, kBinaryMagic, sizeof(magic)) == 0;
    is.clear();
    is.seekg(pos);
    return matched;
}

EdgeList read_any_edge_list_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    if (!is.good()) throw Error("cannot open for reading: " + path);
    if (is_binary_edge_list(is)) return read_edge_list_binary(is);
    return read_edge_list(is);
}

// ------------------------------------------------------------- chain state

void write_chain_state(std::ostream& os, const ChainState& state) {
    os.write(kBinaryMagic, sizeof(kBinaryMagic));
    os.put(kChainStateTag);
    os.put(static_cast<char>(kChainStateVersion));
    const std::string name = chain_algorithm_name(state.algorithm);
    binio::write_varint(os, name.size());
    os.write(name.data(), static_cast<std::streamsize>(name.size()));
    binio::write_varint(os, state.seed);
    binio::write_varint(os, state.counter);
    binio::write_double_le(os, state.pl);
    binio::write_varint(os, state.num_nodes);
    binio::write_varint(os, state.keys.size());
    binio::write_varint(os, state.stats.supersteps);
    binio::write_varint(os, state.stats.attempted);
    binio::write_varint(os, state.stats.accepted);
    binio::write_varint(os, state.stats.rejected_loop);
    binio::write_varint(os, state.stats.rejected_edge);
    binio::write_varint(os, state.stats.rounds_total);
    binio::write_varint(os, state.stats.rounds_max);
    binio::write_double_le(os, state.stats.first_round_seconds);
    binio::write_double_le(os, state.stats.later_rounds_seconds);
    for (const edge_key_t key : state.keys) binio::write_varint(os, key);
    if (!os.good()) throw Error("chain state write failed");
}

void write_chain_state_file(const std::string& path, const ChainState& state) {
    std::ofstream os(path, std::ios::binary);
    if (!os.good()) throw Error("cannot open for writing: " + path);
    write_chain_state(os, state);
}

void write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& write) {
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary);
        if (!os.good()) throw Error("cannot open for writing: " + tmp);
        write(os);
        // Flush before the rename: a full disk must fail here, not
        // silently install a truncated file over the last good one.
        os.close();
        if (!os.good()) throw Error("flush failed: " + tmp);
    }
    std::filesystem::rename(tmp, path);
}

void write_chain_state_file_atomic(const std::string& path, const ChainState& state) {
    write_file_atomic(path, [&](std::ostream& os) { write_chain_state(os, state); });
}

ChainState read_chain_state(std::istream& is) {
    char preamble[6] = {};
    is.read(preamble, sizeof(preamble));
    if (is.gcount() != sizeof(preamble) ||
        std::memcmp(preamble, kBinaryMagic, sizeof(kBinaryMagic)) != 0 ||
        preamble[4] != kChainStateTag) {
        throw Error("not a GESB chain-state section");
    }
    const int version = static_cast<unsigned char>(preamble[5]);
    if (version != kChainStateVersion) {
        throw Error("unsupported chain-state version: " + std::to_string(version));
    }

    ChainState state;
    const std::uint64_t name_len = binio::read_varint(is, "chain state");
    if (name_len > 64) throw Error("chain state: implausible algorithm name length");
    std::string name(name_len, '\0');
    is.read(name.data(), static_cast<std::streamsize>(name_len));
    if (is.gcount() != static_cast<std::streamsize>(name_len)) throw Error("chain state truncated");
    state.algorithm = chain_algorithm_from_string(name);

    state.seed = binio::read_varint(is, "chain state");
    state.counter = binio::read_varint(is, "chain state");
    state.pl = binio::read_double_le(is, "chain state");
    const std::uint64_t n = binio::read_varint(is, "chain state");
    if (n > static_cast<std::uint64_t>(kMaxNode) + 1) {
        throw Error("chain state: node count exceeds 2^28");
    }
    state.num_nodes = static_cast<node_t>(n);
    const std::uint64_t m = binio::read_varint(is, "chain state");
    state.stats.supersteps = binio::read_varint(is, "chain state");
    state.stats.attempted = binio::read_varint(is, "chain state");
    state.stats.accepted = binio::read_varint(is, "chain state");
    state.stats.rejected_loop = binio::read_varint(is, "chain state");
    state.stats.rejected_edge = binio::read_varint(is, "chain state");
    state.stats.rounds_total = binio::read_varint(is, "chain state");
    state.stats.rounds_max = binio::read_varint(is, "chain state");
    state.stats.first_round_seconds = binio::read_double_le(is, "chain state");
    state.stats.later_rounds_seconds = binio::read_double_le(is, "chain state");
    // As for graphs: never trust the header's count for the allocation.
    state.keys.reserve(std::min<std::uint64_t>(m, 1u << 20));
    for (std::uint64_t i = 0; i < m; ++i) {
        state.keys.push_back(binio::read_varint(is, "chain state"));
    }
    // Slot order carries no sortedness to exploit (unlike the graph
    // section's strictly-increasing deltas), so duplicates need an explicit
    // check — a corrupt snapshot must fail here with the right message, not
    // as a downstream "non-simple graph" pointing at the chain.
    std::vector<edge_key_t> sorted = state.keys;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
        throw Error("chain state: duplicate edge key");
    }
    return state;
}

ChainState read_chain_state_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    if (!is.good()) throw Error("cannot open for reading: " + path);
    return read_chain_state(is);
}

bool is_chain_state(std::istream& is) {
    char preamble[5] = {};
    const std::streampos pos = is.tellg();
    is.read(preamble, sizeof(preamble));
    const bool matched =
        is.gcount() == static_cast<std::streamsize>(sizeof(preamble)) &&
        std::memcmp(preamble, kBinaryMagic, sizeof(kBinaryMagic)) == 0 &&
        preamble[4] == kChainStateTag;
    is.clear();
    is.seekg(pos);
    return matched;
}

bool is_chain_state_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    if (!is.good()) throw Error("cannot open for reading: " + path);
    return is_chain_state(is);
}

// --------------------------------------------------------- degree sequence

void write_degree_sequence(std::ostream& os, const DegreeSequence& seq) {
    os << "# nodes " << seq.num_nodes() << '\n';
    for (const std::uint32_t d : seq.degrees()) os << d << '\n';
    if (!os.good()) throw Error("degree sequence write failed");
}

void write_degree_sequence_file(const std::string& path, const DegreeSequence& seq) {
    std::ofstream os(path);
    if (!os.good()) throw Error("cannot open for writing: " + path);
    write_degree_sequence(os, seq);
}

DegreeSequence read_degree_sequence(std::istream& is) {
    std::vector<std::uint32_t> degrees;
    for_each_line(binio::read_rest(is), [&](std::string_view line) {
        if (line.empty() || line[0] == '%' || line[0] == '#') return;
        // Every number on the line, as `istringstream >> std::uint64_t`
        // reads them until the line ends.
        std::size_t i = 0;
        while (const std::optional<std::uint64_t> d = next_number(line, i, "degree")) {
            if (*d > kMaxNode) throw Error("degree exceeds max node count");
            degrees.push_back(static_cast<std::uint32_t>(*d));
        }
    });
    return DegreeSequence(std::move(degrees));
}

DegreeSequence read_degree_sequence_file(const std::string& path) {
    std::ifstream is(path);
    if (!is.good()) throw Error("cannot open for reading: " + path);
    return read_degree_sequence(is);
}

} // namespace gesmc
