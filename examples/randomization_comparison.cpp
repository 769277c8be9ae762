/// \file randomization_comparison.cpp
/// \brief Side-by-side comparison of every chain in the library on one
/// graph: proxy-metric decay per superstep plus the stricter
/// autocorrelation verdict, illustrating §6.1's point that aggregate
/// proxies converge (apparently) faster than the per-edge BIC criterion.
///
///   ./examples/randomization_comparison [n]
#include "analysis/autocorrelation.hpp"
#include "analysis/proxy_metrics.hpp"
#include "core/chain.hpp"
#include "gen/corpus.hpp"
#include "util/format.hpp"

#include <cstdlib>
#include <iostream>

using namespace gesmc;

int main(int argc, char** argv) {
    const node_t n = argc > 1 ? static_cast<node_t>(std::atoi(argv[1])) : 2000;
    const EdgeList initial = generate_powerlaw_graph(n, 2.2, 3);
    std::cout << "Initial graph: n = " << initial.num_nodes() << ", m = "
              << initial.num_edges() << " (Havel-Hakimi power-law, highly structured)\n\n";

    constexpr std::uint64_t kSupersteps = 64;

    TextTable proxies({"chain", "superstep", "triangles", "clustering", "assortativity"});
    TextTable verdicts({"chain", "non-indep @k=1", "non-indep @k=2", "non-indep @k=8"});

    for (const auto algo : {ChainAlgorithm::kSeqES, ChainAlgorithm::kSeqGlobalES,
                            ChainAlgorithm::kParGlobalES}) {
        ChainConfig config;
        config.seed = 17;
        config.threads = hardware_threads();
        auto chain = make_chain(algo, initial, config);

        ThinningAutocorrelation tracker(*chain, {1, 2, 8},
                                        ThinningAutocorrelation::Track::kInitialEdges);
        for (std::uint64_t step = 1; step <= kSupersteps; ++step) {
            chain->run_supersteps(1);
            tracker.observe(*chain);
            if (step == 1 || step == 4 || step == kSupersteps) {
                const ProxySample s = measure_proxies(*chain, step);
                proxies.add_row({chain->name(), std::to_string(step),
                                 std::to_string(s.triangles),
                                 fmt_double(s.global_clustering, 4),
                                 fmt_double(s.assortativity, 4)});
            }
        }
        verdicts.add_row({chain->name(), fmt_double(tracker.non_independent_fraction(0), 3),
                          fmt_double(tracker.non_independent_fraction(1), 3),
                          fmt_double(tracker.non_independent_fraction(2), 3)});
    }

    const ProxySample before = measure_proxies(
        *make_chain(ChainAlgorithm::kSeqES, initial, ChainConfig{}), 0);
    std::cout << "Superstep 0 (initial): triangles = " << before.triangles
              << ", clustering = " << fmt_double(before.global_clustering, 4)
              << ", assortativity = " << fmt_double(before.assortativity, 4) << "\n\n";

    std::cout << "Aggregate proxies along the run (converge within a few supersteps):\n";
    proxies.print(std::cout);

    std::cout << "\nPer-edge autocorrelation verdict after " << kSupersteps
              << " supersteps (stricter; needs thinning >> 1 to look independent):\n";
    verdicts.print(std::cout);

    std::cout << "\nNote how all chains drive the proxies to the same plateau, while\n"
                 "the BIC criterion still flags dependence at small thinning — the\n"
                 "reason the paper uses autocorrelation analysis for Fig. 2/3.\n";
    return 0;
}
