#include "bench_util/naive_par_es.hpp"

#include "core/switch_stream.hpp"
#include "hashing/hash.hpp"

#include <array>
#include <thread>

namespace gesmc {

namespace {

/// During a superstep, threads read and rewire edge-list slots concurrently.
std::atomic_ref<edge_key_t> slot(std::vector<edge_key_t>& keys, std::uint32_t index) {
    static_assert(std::atomic_ref<edge_key_t>::required_alignment == alignof(edge_key_t));
    return std::atomic_ref<edge_key_t>(keys[index]);
}

/// The tickets one switch attempt holds: at most four distinct stripes.
class Tickets {
public:
    explicit Tickets(std::vector<std::atomic<std::uint8_t>>& stripes) noexcept
        : stripes_(stripes) {}
    Tickets(const Tickets&) = delete;
    Tickets& operator=(const Tickets&) = delete;
    ~Tickets() { release(); }

    /// Takes the ticket of `key`'s stripe, or finds it already held by this
    /// attempt; false when another thread holds it.
    bool take(edge_key_t key) noexcept {
        const auto stripe =
            static_cast<std::uint32_t>((edge_hash(key) >> 8) & (stripes_.size() - 1));
        for (unsigned h = 0; h < count_; ++h) {
            if (held_[h] == stripe) return true;
        }
        std::uint8_t expected = 0;
        if (!stripes_[stripe].compare_exchange_strong(expected, 1,
                                                      std::memory_order_acquire,
                                                      std::memory_order_relaxed)) {
            return false;
        }
        held_[count_++] = stripe;
        return true;
    }

    void release() noexcept {
        for (unsigned h = 0; h < count_; ++h) {
            stripes_[held_[h]].store(0, std::memory_order_release);
        }
        count_ = 0;
    }

private:
    std::vector<std::atomic<std::uint8_t>>& stripes_;
    std::array<std::uint32_t, 4> held_{};
    unsigned count_ = 0;
};

/// `initial`, after the config and graph checks every chain makes.
const EdgeList& checked(const EdgeList& initial, const ChainConfig& config) {
    validate(config);
    return checked_initial_graph(initial);
}

} // namespace

NaiveParES::NaiveParES(const EdgeList& initial, const ChainConfig& config)
    : edges_(checked(initial, config)),
      seed_(config.seed),
      pool_(make_pool_ref(config.shared_pool, config.threads)),
      set_(edges_.keys(), *pool_),
      tickets_(kStripes) {}

void NaiveParES::run_supersteps(std::uint64_t count) {
    const std::uint64_t m = edges_.num_edges();
    const std::uint64_t per_superstep = m / 2;
    for (std::uint64_t step = 0; step < count; ++step) {
        std::array<std::atomic<std::uint64_t>, 3> outcomes{}; // by SwitchOutcome
        // The switch stream is deterministic; its static split onto
        // threads is part of this (inexact) process.
        pool_->for_chunks(counter_, counter_ + per_superstep,
                          [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
                              const SwitchStream stream(seed_, m);
                              std::array<std::uint64_t, 3> mine{};
                              for (std::uint64_t k = lo; k < hi; ++k) {
                                  ++mine[static_cast<unsigned>(perform_switch(stream.get(k)))];
                              }
                              for (unsigned o = 0; o < 3; ++o) outcomes[o].fetch_add(mine[o]);
                          });
        counter_ += per_superstep;
        stats_.attempted += per_superstep;
        stats_.accepted += outcomes[0].load();
        stats_.rejected_loop += outcomes[1].load();
        stats_.rejected_edge += outcomes[2].load();
        ++stats_.supersteps;
        // Between supersteps the edge list holds exactly the live keys.
        if (set_.needs_rebuild()) set_.refill(edges_.keys(), *pool_);
    }
}

SwitchOutcome NaiveParES::perform_switch(const Switch& sw) {
    auto& keys = edges_.keys();
    Tickets tickets(tickets_);
    int conflicts = 0;
    // Every retry (`continue`) releases the attempt's tickets and yields.
    for (;; tickets.release(), std::this_thread::yield()) {
        // A source ticket pins its slot: a slot changes only under the
        // tickets of its old and new key, so a value re-read under the
        // ticket stays put until the ticket is released.
        const edge_key_t k1 = slot(keys, sw.i).load(std::memory_order_acquire);
        if (!tickets.take(k1) || slot(keys, sw.i).load(std::memory_order_acquire) != k1) {
            continue;
        }
        const edge_key_t k2 = slot(keys, sw.j).load(std::memory_order_acquire);
        if (!tickets.take(k2) || slot(keys, sw.j).load(std::memory_order_acquire) != k2) {
            continue;
        }

        const auto [t3, t4] = switch_targets(edge_from_key(k1), edge_from_key(k2), sw.g != 0);
        // A loop proposal needs no target tickets.
        if (t3.is_loop() || t4.is_loop()) return SwitchOutcome::kRejectedLoop;
        const edge_key_t k3 = edge_key(t3);
        const edge_key_t k4 = edge_key(t4);
        // In the identity case the targets are the sources, already held.
        if (!tickets.take(k3) || !tickets.take(k4)) {
            if (++conflicts < kMaxConflictRetries) continue;
            return SwitchOutcome::kRejectedEdge;
        }
        const SwitchOutcome outcome =
            decide_switch(k1, k2, t3, t4, [this](edge_key_t k) { return set_.contains(k); });
        if (outcome != SwitchOutcome::kAccepted) return outcome;
        if (k3 != k1 && k3 != k2) { // identity no-op needs no set updates
            set_.erase_unique(k1);
            set_.erase_unique(k2);
            set_.insert_unique(k3);
            set_.insert_unique(k4);
        }
        // The identity case may swap the two slots, as the sequential step does.
        slot(keys, sw.i).store(k3, std::memory_order_release);
        slot(keys, sw.j).store(k4, std::memory_order_release);
        return SwitchOutcome::kAccepted;
    }
}

} // namespace gesmc
