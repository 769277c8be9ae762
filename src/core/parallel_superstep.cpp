#include "core/parallel_superstep.hpp"

#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/prefetch.hpp"
#include "util/timer.hpp"

#include <numeric>

namespace gesmc {

SuperstepRunner::SuperstepRunner(std::uint64_t max_switches, bool prefetch)
    : table_(max_switches),
      status_(max_switches),
      src_(2 * max_switches),
      tgt_(2 * max_switches),
      prefetch_(prefetch) {
    undecided_.reserve(max_switches);
    next_undecided_.reserve(max_switches);
}

SuperstepResult SuperstepRunner::run(ThreadPool& pool, std::vector<edge_key_t>& edges,
                                     ConcurrentEdgeSet& set,
                                     std::span<const Switch> switches) {
    const std::uint64_t l = switches.size();
    GESMC_CHECK(l <= status_.size(), "batch exceeds the runner's sizing");
    SuperstepResult result;
    if (l == 0) return result;

    // ---- Phase A: read sources, compute targets, register dependencies.
    {
        const obs::TraceSpan span("superstep.register", "core");
        table_.begin_superstep(l, pool);
        if (delayed_.size() != pool.num_threads()) delayed_.resize(pool.num_threads());
        pool.for_chunks(0, l, [&](unsigned tid, std::uint64_t lo, std::uint64_t hi) {
            // Target pass.
            for (std::uint64_t k = lo; k < hi; ++k) {
                if (prefetch_ && k + kRegisterAhead < hi) {
                    // The edge-array reads are random (§5.4).
                    prefetch_read(&edges[switches[k + kRegisterAhead].i]);
                    prefetch_read(&edges[switches[k + kRegisterAhead].j]);
                }
                const Switch sw = switches[k];
                const edge_key_t k1 = edges[sw.i];
                const edge_key_t k2 = edges[sw.j];
                const auto [t3, t4] =
                    switch_targets(edge_from_key(k1), edge_from_key(k2), sw.g != 0);
                src_[2 * k] = k1;
                src_[2 * k + 1] = k2;
                tgt_[2 * k] = edge_key(t3);
                tgt_[2 * k + 1] = edge_key(t4);
                status_[k].store(SwitchStatus::kUndecided, std::memory_order_relaxed);
            }
            // Registration pass.
            for (std::uint64_t k = lo; k < hi; ++k) {
                if (prefetch_ && k + kRegisterAhead < hi) {
                    const std::uint64_t ahead = 2 * (k + kRegisterAhead);
                    table_.prefetch(src_[ahead]);
                    table_.prefetch(src_[ahead + 1]);
                    table_.prefetch(tgt_[ahead]);
                    table_.prefetch(tgt_[ahead + 1]);
                }
                const auto idx = static_cast<std::uint32_t>(k);
                table_.register_erase(src_[2 * k], idx, tid);
                table_.register_erase(src_[2 * k + 1], idx, tid);
                // Loop targets are never registered: no switch can legally
                // insert a loop, and the loop check below decides such
                // switches in their first round regardless of dependencies.
                if (!key_is_loop(tgt_[2 * k])) table_.register_insert(tgt_[2 * k], idx, 0, tid);
                if (!key_is_loop(tgt_[2 * k + 1])) {
                    table_.register_insert(tgt_[2 * k + 1], idx, 1, tid);
                }
            }
        });
    }

    // ---- Decision rounds.
    undecided_.resize(l);
    std::iota(undecided_.begin(), undecided_.end(), 0u);
    std::atomic<std::uint64_t> accepted{0}, rejected_loop{0}, rejected_edge{0};

    {
        const obs::TraceSpan span("superstep.rounds", "core");
        while (!undecided_.empty()) {
            ++result.rounds;
            ++global_round_; // tags the per-edge insert-min caches of this round
            const std::uint32_t round_id = global_round_;
            Timer round_timer;
            pool.for_chunks_dynamic(
                0, undecided_.size(), 256, [&](unsigned tid, std::uint64_t lo, std::uint64_t hi) {
                    std::uint64_t acc = 0, rloop = 0, redge = 0;
                    for (std::uint64_t u = lo; u < hi; ++u) {
                        if (prefetch_ && u + kDecideAhead < hi) {
                            // Both probes of both targets (§5.4).
                            const std::uint32_t nk = undecided_[u + kDecideAhead];
                            table_.prefetch(tgt_[2 * nk]);
                            table_.prefetch(tgt_[2 * nk + 1]);
                            set.prefetch(tgt_[2 * nk]);
                            set.prefetch(tgt_[2 * nk + 1]);
                        }
                        const std::uint32_t k = undecided_[u];
                        // Loop targets dominate (same precedence as the
                        // sequential decide_switch, so the reject counters of
                        // parallel and sequential runs are comparable).
                        const bool loop =
                            key_is_loop(tgt_[2 * k]) || key_is_loop(tgt_[2 * k + 1]);
                        bool illegal = loop;
                        bool wait = false;
                        for (unsigned which = 0; which < 2 && !illegal; ++which) {
                            const edge_key_t target = tgt_[2 * k + which];
                            // One probe resolves both dependency roles.
                            const std::uint64_t slot = table_.find_slot(target);
                            // Erase rule. p == kNone means no switch erases the
                            // target; it is then illegal iff already in the graph
                            // (the implicit (e, infinity, erase, illegal) tuple).
                            const std::uint32_t p = slot == DependencyTable::kNoSlot
                                                        ? DependencyTable::kNone
                                                        : table_.erase_idx_at(slot);
                            if (p == DependencyTable::kNone) {
                                if (set.contains(target)) illegal = true;
                            } else if (k < p) {
                                illegal = true; // erased only by a later switch
                            } else if (k > p) {
                                const SwitchStatus sp =
                                    status_[p].load(std::memory_order_acquire);
                                if (sp == SwitchStatus::kIllegal) {
                                    illegal = true; // the eraser failed; edge stays
                                } else if (sp == SwitchStatus::kUndecided) {
                                    wait = true;
                                }
                            } // k == p: our own source edge (identity case) — fine.

                            // Insert rule: only the smallest non-illegal inserter
                            // may proceed; it is our own tuple iff q == k.
                            const std::uint32_t q =
                                slot == DependencyTable::kNoSlot
                                    ? DependencyTable::kNone
                                    : table_.insert_min_at(slot, status_, round_id);
                            if (q < k) {
                                const SwitchStatus sq =
                                    status_[q].load(std::memory_order_acquire);
                                if (sq == SwitchStatus::kLegal) {
                                    illegal = true;
                                } else if (sq == SwitchStatus::kUndecided) {
                                    wait = true;
                                }
                                // sq may read as kIllegal if it changed after the
                                // lookup; re-examining next round is safe.
                                if (sq == SwitchStatus::kIllegal) wait = true;
                            }
                        }

                        if (illegal) {
                            status_[k].store(SwitchStatus::kIllegal, std::memory_order_release);
                            if (loop) {
                                ++rloop;
                            } else {
                                ++redge;
                            }
                        } else if (wait) {
                            delayed_[tid].value.push_back(k);
                        } else {
                            // Legal: rewire the edge list *before* publishing the
                            // verdict (nobody else reads these indices — no
                            // source dependencies — but the final graph must be
                            // complete when dependents observe kLegal).
                            const Switch sw = switches[k];
                            edges[sw.i] = tgt_[2 * k];
                            edges[sw.j] = tgt_[2 * k + 1];
                            status_[k].store(SwitchStatus::kLegal, std::memory_order_release);
                            ++acc;
                        }
                    }
                    accepted.fetch_add(acc, std::memory_order_relaxed);
                    rejected_loop.fetch_add(rloop, std::memory_order_relaxed);
                    rejected_edge.fetch_add(redge, std::memory_order_relaxed);
                });

            // Collect delayed switches for the next round.
            next_undecided_.clear();
            for (auto& local : delayed_) {
                next_undecided_.insert(next_undecided_.end(), local.value.begin(),
                                       local.value.end());
                local.value.clear();
            }
            GESMC_CHECK(next_undecided_.size() < undecided_.size(),
                        "no progress in a superstep round (dependency cycle?)");
            undecided_.swap(next_undecided_);

            const double secs = round_timer.elapsed_s();
            if (result.rounds == 1) {
                result.first_round_seconds += secs;
            } else {
                result.later_rounds_seconds += secs;
            }
        }
    }

    result.accepted = accepted.load();
    result.rejected_loop = rejected_loop.load();
    result.rejected_edge = rejected_edge.load();

    // ---- Apply the edge-set delta: removals first, then insertions (an
    // edge erased by one legal switch may be re-inserted by a later one).
    // Identity switches (targets == sources) leave the set unchanged.
    {
        const obs::TraceSpan span("superstep.apply", "core");
        const auto changes_set = [&](std::uint64_t k) {
            return status_[k].load(std::memory_order_relaxed) == SwitchStatus::kLegal &&
                   tgt_[2 * k] != src_[2 * k] && tgt_[2 * k] != src_[2 * k + 1];
        };
        pool.for_chunks(0, l, [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
            for (std::uint64_t k = lo; k < hi; ++k) {
                if (prefetch_ && k + kDecideAhead < hi && changes_set(k + kDecideAhead)) {
                    set.prefetch(src_[2 * (k + kDecideAhead)]);
                    set.prefetch(src_[2 * (k + kDecideAhead) + 1]);
                }
                if (!changes_set(k)) continue;
                const bool e1 = set.erase_unique(src_[2 * k]);
                const bool e2 = set.erase_unique(src_[2 * k + 1]);
                GESMC_CHECK(e1 && e2, "legal switch erased a missing edge");
            }
        });
        pool.for_chunks(0, l, [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
            for (std::uint64_t k = lo; k < hi; ++k) {
                if (prefetch_ && k + kDecideAhead < hi && changes_set(k + kDecideAhead)) {
                    set.prefetch(tgt_[2 * (k + kDecideAhead)]);
                    set.prefetch(tgt_[2 * (k + kDecideAhead) + 1]);
                }
                if (!changes_set(k)) continue;
                const bool i1 = set.insert_unique(tgt_[2 * k]);
                const bool i2 = set.insert_unique(tgt_[2 * k + 1]);
                GESMC_CHECK(i1 && i2, "legal switch inserted an existing edge");
            }
        });
    }

    return result;
}

} // namespace gesmc
