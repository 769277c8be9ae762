/// \file config.hpp
/// \brief Declarative configuration for the batch sampling pipeline.
///
/// A pipeline run is described by a flat "key = value" config file ('#'/'%'
/// comments, blank lines ignored).  The same key/value vocabulary is reused
/// by the gesmc_sample CLI for overrides, so a run is always expressible as
/// a single reproducible artifact:
///
///     # null-model batch: 64 randomized replicates of a protein network
///     input        = graphs/ppi.txt
///     algorithm    = par-global-es
///     supersteps   = 30
///     replicates   = 64
///     seed         = 42
///     threads      = 8
///     policy       = auto
///     output-dir   = out/ppi
///     output-format= binary
///     report       = out/ppi/report.json
///
/// Every key has a sane default; see the struct fields below.
#pragma once

#include "hashing/edge_set_backend.hpp"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace gesmc {

/// What the `input` path (or generator) provides.
enum class InputKind {
    kEdgeList,        ///< text or GESB binary edge list (sniffed)
    kDegreeSequence,  ///< degree file; realized via `init`
    kGenerator,       ///< built-in synthetic generator (`generator` key)
};

/// How an initial simple graph is materialized from a degree sequence.
enum class InitMethod {
    kHavelHakimi,         ///< deterministic realization (paper §6, SynPld)
    kConfigurationModel,  ///< random stub pairing + degree-preserving repair
};

/// How replicates share the machine (the pipeline's parallelism knob).
/// The run's `threads` value is a machine-level *budget* of P threads;
/// replicates lease sub-pools of width T out of it, so K = ⌊P/T⌋ chains
/// compute at once (docs/scheduling.md).
enum class SchedulePolicy {
    kAuto,        ///< derive (K, T) from R, P and a pinned chain-threads
    kReplicates,  ///< T = 1: replicates run concurrently, chains single-threaded
    kIntraChain,  ///< K = 1: replicates run one at a time on the whole budget
    kHybrid,      ///< K×T: concurrent replicates with intra-chain parallelism
};

/// Format of the per-replicate output graphs.
enum class OutputFormat {
    kText,    ///< "u v" lines (io.hpp text format)
    kBinary,  ///< compact GESB binary format
};

struct PipelineConfig {
    // ------------------------------------------------------------- input
    /// One input path — or, for a corpus run, a whitespace-separated list
    /// of paths.  A path containing spaces must be double-quoted
    /// (`input = "my graph.txt"`) so it stays a single entry; see
    /// split_input_list.                                       key: input
    std::string input_path;
    InputKind input_kind = InputKind::kEdgeList; ///< key: input-kind
                                                 ///<   (edges|degrees|generator)
    InitMethod init = InitMethod::kHavelHakimi;  ///< key: init
                                                 ///<   (havel-hakimi|configuration-model)
    std::string generator;                       ///< key: generator
                                                 ///<   (powerlaw|gnp|grid|regular)
    std::uint64_t gen_n = 10000;                 ///< key: gen-n
    std::uint64_t gen_m = 50000;                 ///< key: gen-m (gnp)
    double gen_gamma = 2.2;                      ///< key: gen-gamma (powerlaw)
    std::uint64_t gen_rows = 100;                ///< key: gen-rows (grid)
    std::uint64_t gen_cols = 100;                ///< key: gen-cols (grid)
    std::uint32_t gen_degree = 8;                ///< key: gen-degree (regular)

    // ------------------------------------------------------------- corpus
    // A config names *one* input source.  Beyond the single-graph `input`,
    // three corpus sources turn the run into a sharded corpus run — one
    // (namespaced) single-graph run per input graph, scheduled jointly over
    // the thread budget and merged into one corpus summary
    // (pipeline/corpus.hpp, docs/corpus.md).  Naming more than one source
    // is rejected at validation.

    /// Shell-style pattern (`*`/`?` in the filename component) matched
    /// against a directory of edge-list files; matches are taken in sorted
    /// order.                                       key: input-glob
    std::string input_glob;

    /// Manifest file: one input per line (`path [:: name]`, '#'/'%'
    /// comments at line start or after whitespace), relative paths
    /// resolving against the manifest's directory.
    ///                                              key: corpus-manifest
    std::string corpus_manifest;

    /// Synthetic corpus spec backed by src/gen/corpus — `test`, `bench`, or
    /// `powerlaw n=<N> gamma=<G> count=<C>` / `gnp n=<N> m=<M> count=<C>`
    /// (members are materialized under <output-dir>/corpus-inputs/).
    ///                                              key: corpus
    std::string corpus_spec;

    // ------------------------------------------------------------- chain
    std::string algorithm = "par-global-es"; ///< key: algorithm (chain name)

    /// Superstep budget per replicate.  `supersteps = adaptive` switches to
    /// the convergence-aware mode below instead of a fixed count (the
    /// numeric value is then unused; max-supersteps is the budget).
    ///                                              key: supersteps
    std::uint64_t supersteps = 20;

    // ----------------------------------------------------------- adaptive
    // Convergence-aware stopping (docs/adaptive.md): each replicate runs
    // until a streaming ESS / G2-BIC mixing test says it is mixed — or
    // until max-supersteps.  Verdicts are deterministic functions of the
    // superstep stream, so adaptive runs stay byte-reproducible and
    // resume-safe.

    bool adaptive = false;          ///< key: supersteps = adaptive
    double ess_target = 32.0;       ///< key: ess-target
    double mixing_tau = 0.2;        ///< key: mixing-tau
    std::uint64_t min_supersteps = 8;   ///< key: min-supersteps
    std::uint64_t max_supersteps = 200; ///< key: max-supersteps
    std::uint64_t check_every = 2;      ///< key: check-every

    double pl = 1e-3;                        ///< key: pl
    bool prefetch = true;                    ///< key: prefetch (true|false)
    std::uint64_t small_graph_cutoff = 0;    ///< key: small-cutoff

    /// Unread stub (hashing/edge_set_backend.hpp); no config key sets it.
    EdgeSetBackend edge_set_backend = EdgeSetBackend::kLocked;

    // ------------------------------------------------------------- batch
    std::uint64_t replicates = 8;                       ///< key: replicates
    std::uint64_t seed = 1;                             ///< key: seed
    unsigned threads = 0;                               ///< key: threads (0 = hw)
                                                        ///<   — the thread *budget* P
    SchedulePolicy policy = SchedulePolicy::kAuto;      ///< key: policy
                                                        ///<   (auto|replicates|intra-chain|hybrid)

    /// Threads leased to each replicate's chain (T).  0 derives T from the
    /// policy: 1 under replicates, the whole budget under intra-chain, and
    /// ⌊P / min(R, P)⌋ under hybrid.  A pinned value makes `auto` resolve
    /// budget-aware: K = ⌊P/T⌋ replicates run concurrently.
    ///                                                 key: chain-threads
    unsigned chain_threads = 0;

    /// Cap on replicates computing at once (K).  0 = as many as the budget
    /// admits (⌊P/T⌋).  The budget is never oversubscribed either way.
    ///                                                 key: max-concurrent
    unsigned max_concurrent = 0;

    // ------------------------------------------------- checkpoint / resume
    /// Persist each replicate's ChainState to
    /// <output-dir>/checkpoints/<prefix>_<index>.gesc every this many
    /// supersteps (and once more when the replicate finishes).  0 = off.
    /// Requires output-dir.                           key: checkpoint-every
    std::uint64_t checkpoint_every = 0;

    /// Directory of a previous (interrupted) run whose checkpoints/ should
    /// seed this one: finished replicates are skipped (their outputs are
    /// re-emitted from the final checkpoint), in-flight ones resume from
    /// their (seed, counter) pair, missing ones start from scratch.  The
    /// rest of the config must match the interrupted run for the outputs
    /// to be byte-identical.  "" = fresh run.              key: resume-from
    std::string resume_from;

    /// Retain <output-dir>/checkpoints/ after a fully successful run.  By
    /// default the run deletes its own .gesc files once every replicate
    /// finished without error (they only exist to survive interruption, and
    /// stale ones accumulate); an interrupted or failed run always keeps
    /// them so resume-from works.               key: keep-checkpoints
    bool keep_checkpoints = false;

    // ------------------------------------------------------------ output
    std::string output_dir;                        ///< key: output-dir ("" = none)
    std::string output_prefix = "replicate";       ///< key: output-prefix
    OutputFormat output_format = OutputFormat::kText; ///< key: output-format
                                                      ///<   (text|binary)
    std::string report_path;                       ///< key: report ("" = stdout only)
    bool metrics = true;                           ///< key: metrics (true|false)
    bool verify = true;                            ///< key: verify (true|false)

    bool operator==(const PipelineConfig&) const = default;
};

[[nodiscard]] std::string to_string(InputKind kind);
[[nodiscard]] std::string to_string(InitMethod method);
[[nodiscard]] std::string to_string(SchedulePolicy policy);
[[nodiscard]] std::string to_string(OutputFormat format);

/// Strict number parsing for config values and the tools' numeric flags:
/// all of `value` must be one number in range.  Empty input, trailing
/// characters, a sign on an unsigned value and overflow throw Error naming
/// `what` (`config key "seed"`, `--seed`).
[[nodiscard]] std::uint64_t parse_u64(const std::string& what, const std::string& value);
[[nodiscard]] unsigned parse_unsigned(const std::string& what, const std::string& value);
[[nodiscard]] double parse_double(const std::string& what, const std::string& value);

/// Applies one "key = value" entry; throws Error on unknown key/bad value.
void apply_config_entry(PipelineConfig& config, const std::string& key,
                        const std::string& value);

/// Parses a config stream/file on top of the defaults.  Errors from
/// malformed lines or bad entries carry the offending line number (and the
/// key, via apply_config_entry's messages).
PipelineConfig read_pipeline_config(std::istream& is);
PipelineConfig read_pipeline_config_file(const std::string& path);

/// Parses a config document held in memory — the service path: submitted
/// jobs carry their config text verbatim inside a control frame, never as a
/// file on the daemon's disk.
PipelineConfig read_pipeline_config_string(const std::string& text);

/// Splits an `input` value into its path entries: whitespace-separated
/// tokens, where a double-quoted token may contain spaces (the quotes are
/// stripped).  Throws on an unterminated quote.
[[nodiscard]] std::vector<std::string> split_input_list(const std::string& value);

/// The single path of a one-graph config's `input` (quotes stripped);
/// empty for an empty input.  Throws if `input` in fact lists several
/// paths — callers reach here only after validate().
[[nodiscard]] std::string single_input_path(const PipelineConfig& config);

/// True iff the config names a corpus of inputs rather than a single graph:
/// any of input-glob / corpus-manifest / corpus is set, or `input` lists
/// more than one entry (see split_input_list).  Corpus configs are expanded
/// by plan_corpus and run by run_corpus (pipeline/corpus.hpp);
/// run_pipeline rejects them.
[[nodiscard]] bool is_corpus_config(const PipelineConfig& config);

/// Throws unless at most one input source is named: contradictory
/// combinations (e.g. `input` together with `corpus-manifest`) are config
/// errors regardless of how the config will be run.
void validate_input_sources(const PipelineConfig& config);

/// Validates the algorithm name and the cross-field constraints (input
/// present, counts positive, ...) for a *single-graph* run.  Throws Error
/// with an actionable message alone; corpus configs are rejected here
/// (expand them with plan_corpus).
void validate(const PipelineConfig& config);

} // namespace gesmc
