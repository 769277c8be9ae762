/// \file seq_es.hpp
/// \brief SeqES — the fast sequential ES-MC implementation (paper §5).
///
/// Graph state: an indexed edge list (uniform edge sampling from an
/// auxiliary array, §5.3) plus a robin-hood hash set with load factor <= 1/2
/// for existence queries (§5.2).  With prefetching enabled, switches are
/// processed in blocks of four whose hash-set queries are issued in stages
/// so that bucket cache lines are in flight while the previous switch is
/// decided (§5.4).  The pipelined path re-verifies its cached edge reads at
/// decision time, so its results are bit-identical to the plain path — a
/// property the tests assert.
#pragma once

#include "core/chain.hpp"
#include "core/switch_stream.hpp"
#include "hashing/robin_set.hpp"

namespace gesmc {

class SeqES final : public SwitchingChain {
public:
    SeqES(const EdgeList& initial, const ChainConfig& config);

    [[nodiscard]] bool has_edge(edge_key_t key) const override { return set_.contains(key); }

    /// Runs `count` individual switches (a superstep is m/2 of these).
    void run_switches(std::uint64_t count);

private:
    void advance() override { run_switches(edges_.num_edges() / 2); }
    void apply_one(const Switch& sw);
    void run_block_pipelined(std::uint64_t first, unsigned block_len);

    RobinSet set_;
    SwitchStream stream_;
    bool prefetch_;
};

} // namespace gesmc
