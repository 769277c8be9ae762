/// \file switch_stream.hpp
/// \brief Deterministic stream of uniform random edge switches.
///
/// The k-th switch of a run is a pure function of (seed, k): indices i != j
/// uniform over [m]^2 and an unbiased direction bit, drawn from a
/// counter-based SplitMix64 stream with Lemire rejection.  SeqES, ParES and
/// the benches' NaiveParES all consume this same stream, which makes
/// ParES(seed) == SeqES(seed) testable as graph equality (the exactness
/// property of Algorithm 2) independent of the thread count.
#pragma once

#include "core/edge_switch.hpp"
#include "rng/bounded.hpp"
#include "rng/counter_rng.hpp"

#include <cstdint>

namespace gesmc {

class SwitchStream {
public:
    SwitchStream(std::uint64_t seed, std::uint64_t num_edges) noexcept
        : seed_(seed), m_(num_edges) {}

    /// The k-th switch of the stream.
    [[nodiscard]] Switch get(std::uint64_t k) const {
        auto gen = stream_for(seed_, kSalt, k);
        std::uint64_t i = 0, j = 0;
        uniform_distinct_pair(gen, m_, i, j);
        const auto g = static_cast<std::uint8_t>(gen() >> 63);
        return Switch{static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j), g};
    }

    [[nodiscard]] std::uint64_t num_edges() const noexcept { return m_; }

private:
    static constexpr std::uint64_t kSalt = 0x51a9e4d20cb37f68ULL;
    std::uint64_t seed_;
    std::uint64_t m_;
};

} // namespace gesmc
