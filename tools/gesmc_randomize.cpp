/// \file gesmc_randomize.cpp
/// \brief Command-line graph randomizer: the library's end-user entry point.
///
/// Reads an edge list (or generates a synthetic graph), runs the selected
/// edge-switching Markov chain for a number of supersteps, writes the
/// randomized graph, and prints run statistics.
///
///   gesmc_randomize --input graph.txt --output random.txt
///   gesmc_randomize --gen powerlaw --n 100000 --gamma 2.2 --supersteps 30
///   gesmc_randomize --input g.txt --algo seq-es --seed 7 --threads 4
///   gesmc_randomize --input g.txt --checkpoint run.gesc --checkpoint-every 5
///   gesmc_randomize --resume run.gesc --supersteps 40   # continue to 40 total
#include "core/chain.hpp"
#include "graph/io.hpp"
#include "pipeline/pipeline.hpp"
#include "util/format.hpp"
#include "util/signal_interrupt.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

using namespace gesmc;

namespace {

constexpr const char* kUsage = R"(gesmc_randomize — uniform sampling of simple graphs with prescribed degrees

Input (one of):
  --input FILE        read edge list ("u v" per line, '#'/'%' comments)
  --gen KIND          generate: powerlaw (needs --n, --gamma), gnp (--n, --m),
                      grid (--rows, --cols), regular (--n, --degree)

Options:
  --algo NAME         seq-es | seq-global-es | par-es | par-global-es |
                      adj-list-es                       [par-global-es]
  --supersteps K      supersteps to run (1 superstep ~ m/2 switches)  [20]
  --seed S            random seed                                     [1]
  --threads P         worker threads, 0 = hardware concurrency        [0]
  --pl X              G-ES-MC rejection probability P_L               [1e-3]
  --small-cutoff M    sequential base case below M edges (0 = off)    [0]
  --no-prefetch       disable the prefetching pipelines
  --output FILE       write the randomized edge list
  --checkpoint FILE   write a resumable chain-state snapshot (.gesc) to
                      FILE at completion (and periodically, see below)
  --checkpoint-every N  also snapshot every N supersteps (needs --checkpoint)
  --resume FILE       continue a chain from a snapshot instead of --input /
                      --gen; --supersteps is the *total* target, so a chain
                      resumed at superstep 20 with --supersteps 40 runs 20
                      more — byte-identical to one uninterrupted 40-step run
  --progress          print a line after every superstep
  --help              this text
)";

/// --progress: a RunObserver streaming per-superstep state to stderr.
class SuperstepPrinter final : public RunObserver {
public:
    explicit SuperstepPrinter(std::uint64_t target) : target_(target) {}

    void on_superstep(std::uint64_t, const Chain& chain) override {
        const ChainStats& st = chain.stats();
        std::cerr << "superstep " << st.supersteps << "/" << target_ << ": "
                  << st.attempted << " attempted, " << st.accepted << " accepted\n";
    }

private:
    std::uint64_t target_;
};

struct Options {
    std::string input;
    /// --gen KIND as `generator`, and its --n/--m/--gamma/--rows/--cols/
    /// --degree parameters as the matching gen-* fields.
    PipelineConfig gen;
    std::string output;
    std::string checkpoint;
    std::uint64_t checkpoint_every = 0;
    std::string resume;
    bool progress = false;
    ChainAlgorithm algo = ChainAlgorithm::kParGlobalES;
    bool algo_set = false; ///< --algo given explicitly (resume conflict check)
    bool seed_set = false; ///< --seed given explicitly
    bool pl_set = false;   ///< --pl given explicitly
    std::uint64_t supersteps = 20;
    ChainConfig chain;
};

std::optional<Options> parse(int argc, char** argv) {
    Options opt;
    opt.chain.threads = 0;
    auto need_value = [&](int& i) -> const char* {
        if (i + 1 >= argc) {
            std::cerr << "missing value for " << argv[i] << "\n";
            return nullptr;
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char* v = nullptr;
        if (arg == "--help") {
            std::cout << kUsage;
            std::exit(0);
        } else if (arg == "--no-prefetch") {
            opt.chain.prefetch = false;
        } else if (arg == "--input") {
            if (!(v = need_value(i))) return std::nullopt;
            opt.input = v;
        } else if (arg == "--gen") {
            if (!(v = need_value(i))) return std::nullopt;
            opt.gen.generator = v;
        } else if (arg == "--output") {
            if (!(v = need_value(i))) return std::nullopt;
            opt.output = v;
        } else if (arg == "--checkpoint") {
            if (!(v = need_value(i))) return std::nullopt;
            opt.checkpoint = v;
        } else if (arg == "--checkpoint-every") {
            if (!(v = need_value(i))) return std::nullopt;
            opt.checkpoint_every = parse_u64(arg, v);
        } else if (arg == "--resume") {
            if (!(v = need_value(i))) return std::nullopt;
            opt.resume = v;
        } else if (arg == "--progress") {
            opt.progress = true;
        } else if (arg == "--algo") {
            if (!(v = need_value(i))) return std::nullopt;
            opt.algo = chain_algorithm_from_string(v);
            opt.algo_set = true;
        } else if (arg == "--supersteps") {
            if (!(v = need_value(i))) return std::nullopt;
            opt.supersteps = parse_u64(arg, v);
        } else if (arg == "--seed") {
            if (!(v = need_value(i))) return std::nullopt;
            opt.chain.seed = parse_u64(arg, v);
            opt.seed_set = true;
        } else if (arg == "--threads") {
            if (!(v = need_value(i))) return std::nullopt;
            opt.chain.threads = parse_unsigned(arg, v);
        } else if (arg == "--pl") {
            if (!(v = need_value(i))) return std::nullopt;
            opt.chain.pl = parse_double(arg, v);
            opt.pl_set = true;
        } else if (arg == "--small-cutoff") {
            if (!(v = need_value(i))) return std::nullopt;
            opt.chain.small_graph_cutoff = parse_u64(arg, v);
        } else if (arg == "--n") {
            if (!(v = need_value(i))) return std::nullopt;
            opt.gen.gen_n = parse_u64(arg, v);
        } else if (arg == "--m") {
            if (!(v = need_value(i))) return std::nullopt;
            opt.gen.gen_m = parse_u64(arg, v);
        } else if (arg == "--gamma") {
            if (!(v = need_value(i))) return std::nullopt;
            opt.gen.gen_gamma = parse_double(arg, v);
        } else if (arg == "--rows") {
            if (!(v = need_value(i))) return std::nullopt;
            opt.gen.gen_rows = parse_u64(arg, v);
        } else if (arg == "--cols") {
            if (!(v = need_value(i))) return std::nullopt;
            opt.gen.gen_cols = parse_u64(arg, v);
        } else if (arg == "--degree") {
            if (!(v = need_value(i))) return std::nullopt;
            opt.gen.gen_degree = parse_unsigned(arg, v);
        } else {
            std::cerr << "unknown option: " << arg << "\n" << kUsage;
            return std::nullopt;
        }
    }
    if (opt.resume.empty()) {
        if (opt.input.empty() == opt.gen.generator.empty()) {
            std::cerr << "exactly one of --input / --gen is required\n" << kUsage;
            return std::nullopt;
        }
    } else if (!opt.input.empty() || !opt.gen.generator.empty()) {
        std::cerr << "--resume replaces --input / --gen (the snapshot holds the graph)\n";
        return std::nullopt;
    }
    if (opt.checkpoint_every > 0 && opt.checkpoint.empty()) {
        std::cerr << "--checkpoint-every requires --checkpoint FILE\n";
        return std::nullopt;
    }
    return opt;
}

/// Thrown from the checkpoint boundary when SIGINT/SIGTERM arrived: the
/// snapshot just written is the resume point, so the run stops cleanly
/// instead of dying mid-write.
struct Interrupted {
    std::uint64_t superstep;
};

EdgeList build_graph(const Options& opt) {
    if (!opt.input.empty()) return read_any_edge_list_file(opt.input);
    PipelineConfig gen = opt.gen;
    gen.seed = opt.chain.seed;
    return generate_input(gen);
}

} // namespace

int main(int argc, char** argv) {
    std::optional<Options> opt;
    try {
        opt = parse(argc, argv);
    } catch (const Error& e) { // a malformed flag value, named in the message
        std::cerr << e.what() << "\n";
        return 2;
    }
    if (!opt) return 2;
    try {
        // make_chain validates threads >= 1; 0 means "use the hardware".
        if (opt->chain.threads == 0) opt->chain.threads = hardware_threads();

        std::unique_ptr<Chain> chain;
        if (!opt->resume.empty()) {
            const ChainState state = read_chain_state_file(opt->resume);
            // The snapshot decides the algorithm and seed; explicit flags
            // that disagree are a config error, not something to silently
            // override.
            if (opt->algo_set && opt->algo != state.algorithm) {
                throw Error("--algo " + chain_algorithm_name(opt->algo) +
                            " conflicts with the snapshot's " +
                            chain_algorithm_name(state.algorithm) + " (drop --algo to resume)");
            }
            if (opt->seed_set && opt->chain.seed != state.seed) {
                throw Error("--seed conflicts with the snapshot's seed (drop --seed "
                            "to resume)");
            }
            // pl only shapes the G-ES trajectory; ES snapshots leave the
            // placeholder default, which must not trip the conflict check.
            const bool pl_matters = state.algorithm == ChainAlgorithm::kSeqGlobalES ||
                                    state.algorithm == ChainAlgorithm::kParGlobalES;
            if (opt->pl_set && pl_matters && opt->chain.pl != state.pl) {
                throw Error("--pl conflicts with the snapshot's P_L (drop --pl to "
                            "resume)");
            }
            chain = make_chain(state, opt->chain);
            std::cerr << "resumed " << chain->name() << " at superstep "
                      << chain->stats().supersteps << " from " << opt->resume << "\n";
        } else {
            const EdgeList initial = build_graph(*opt);
            chain = make_chain(opt->algo, initial, opt->chain);
        }
        // Degree baseline for the final invariant check (keys stay with the
        // chain — no graph copy, snapshots can be 10^9 edges).
        const std::vector<std::uint32_t> initial_degrees = chain->graph().degrees();
        const std::uint32_t max_degree =
            initial_degrees.empty()
                ? 0
                : *std::max_element(initial_degrees.begin(), initial_degrees.end());
        std::cerr << "graph: n = " << chain->graph().num_nodes()
                  << ", m = " << chain->graph().num_edges()
                  << ", max degree = " << max_degree << "\n";

        const std::uint64_t already = chain->stats().supersteps;
        // A snapshot past the target would make the output a *more*
        // randomized graph silently mislabeled as the requested run.
        if (already > opt->supersteps) {
            throw Error("snapshot is at superstep " + std::to_string(already) +
                        ", ahead of --supersteps " + std::to_string(opt->supersteps) +
                        " (--supersteps is the total target)");
        }
        const std::uint64_t remaining = opt->supersteps - already;
        std::cerr << "running " << chain->name() << " for " << remaining
                  << " supersteps...\n";

        SuperstepPrinter printer(opt->supersteps);
        RunObserver* observer = opt->progress ? &printer : nullptr;
        if (!opt->checkpoint.empty() && opt->checkpoint_every > 0) {
            install_interrupt_handlers();
        }
        Timer timer;
        try {
            run_checkpointed(*chain, opt->supersteps, opt->checkpoint_every, observer, 0,
                             [&] {
                if (opt->checkpoint.empty()) return;
                write_chain_state_file_atomic(opt->checkpoint, chain->snapshot());
                std::cerr << "checkpoint: superstep " << chain->stats().supersteps
                          << " -> " << opt->checkpoint << "\n";
                // SIGINT/SIGTERM: the snapshot just written is the resume
                // point — stop here instead of dying mid-run (the
                // completion boundary finishes the run instead).
                if (interrupt_flag().load(std::memory_order_relaxed) &&
                    chain->stats().supersteps < opt->supersteps) {
                    throw Interrupted{chain->stats().supersteps};
                }
            });
        } catch (const Interrupted& stop) {
            std::cerr << "interrupted at superstep " << stop.superstep
                      << ": state saved to " << opt->checkpoint
                      << "; continue with --resume " << opt->checkpoint
                      << " --supersteps " << opt->supersteps << "\n";
            return 130;
        }
        const double secs = timer.elapsed_s();

        const auto& st = chain->stats();
        std::cerr << "done in " << fmt_seconds(secs) << ": " << st.attempted
                  << " switches attempted, " << st.accepted << " accepted ("
                  << fmt_si(double(st.attempted) / secs) << " switches/s)\n";

        GESMC_CHECK(chain->graph().is_simple(), "internal error: non-simple result");
        GESMC_CHECK(chain->graph().degrees() == initial_degrees,
                    "internal error: degree sequence changed");

        if (!opt->output.empty()) {
            write_edge_list_file(opt->output, chain->graph());
            std::cerr << "wrote " << opt->output << "\n";
        } else {
            write_edge_list(std::cout, chain->graph());
        }
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
