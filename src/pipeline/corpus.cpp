#include "pipeline/corpus.hpp"

#include "analysis/gauges.hpp"
#include "check/checked_mutex.hpp"
#include "gen/corpus.hpp"
#include "gen/gnp.hpp"
#include "graph/io.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "pipeline/seeds.hpp"
#include "pipeline/shared_executor.hpp"
#include "util/check.hpp"
#include "util/format.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

namespace gesmc {

namespace {

namespace fs = std::filesystem;

std::string trim(const std::string& s) {
    const auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
    auto begin = s.begin();
    while (begin != s.end() && is_space(*begin)) ++begin;
    auto end = s.end();
    while (end != begin && is_space(*(end - 1))) --end;
    return std::string(begin, end);
}

std::vector<std::string> split_tokens(const std::string& text) {
    std::istringstream is(text);
    std::vector<std::string> tokens;
    std::string token;
    while (is >> token) tokens.push_back(std::move(token));
    return tokens;
}

/// Shell-style match with `*` (any run) and `?` (any one char); iterative
/// two-pointer with star backtracking — no pathological recursion.
bool glob_match(const std::string& pattern, const std::string& text) {
    std::size_t p = 0, t = 0;
    std::size_t star = std::string::npos, star_t = 0;
    while (t < text.size()) {
        if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == text[t])) {
            ++p;
            ++t;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            star_t = t;
        } else if (star != std::string::npos) {
            p = star + 1;
            t = ++star_t;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*') ++p;
    return p == pattern.size();
}

/// The graph's default name: the input's filename without its extension —
/// what the shard output directory is called.
std::string stem_name(const std::string& path) {
    return fs::path(path).stem().string();
}

void check_graph_name(const std::string& name, const std::string& origin) {
    if (name.empty() || name == "." || name == "..") {
        throw Error("corpus graph from " + origin + " has an unusable name \"" + name +
                    "\" (names become output subdirectories)");
    }
    if (name.find('/') != std::string::npos || name.find('\\') != std::string::npos) {
        throw Error("corpus graph name \"" + name + "\" (from " + origin +
                    ") must not contain path separators");
    }
}

/// A path as it appears in an `input` list entry: double-quoted when it
/// contains whitespace, so it round-trips through split_input_list as one
/// entry (the spelling shards use on the wire).
std::string quoted_input_entry(const std::string& path) {
    const bool spaced = std::any_of(path.begin(), path.end(), [](unsigned char c) {
        return std::isspace(c) != 0;
    });
    if (!spaced) return path;
    if (path.find('"') != std::string::npos) {
        throw Error("input path contains both spaces and a double quote: " + path);
    }
    return '"' + path + '"';
}

std::vector<CorpusInput> expand_list(const std::string& input) {
    const std::vector<std::string> paths = split_input_list(input);
    // `input = my graph.txt` — one spaced path, not two files — is a
    // classic slip; catch it with a hint instead of two open failures.
    if (paths.size() > 1 && fs::exists(input)) {
        throw Error("input \"" + input +
                    "\" is one existing path containing spaces; double-quote it "
                    "(input = \"" + input + "\") to run it as a single graph");
    }
    std::vector<CorpusInput> graphs;
    for (const std::string& path : paths) {
        graphs.push_back(CorpusInput{stem_name(path), path});
    }
    return graphs;
}

std::vector<CorpusInput> expand_glob(const std::string& pattern) {
    const fs::path as_path(pattern);
    const fs::path dir = as_path.parent_path().empty() ? fs::path(".")
                                                       : as_path.parent_path();
    const std::string file_pattern = as_path.filename().string();
    if (dir.string().find_first_of("*?") != std::string::npos) {
        throw Error("input-glob \"" + pattern +
                    "\": wildcards are supported in the filename component only");
    }
    if (!fs::is_directory(dir)) {
        throw Error("input-glob \"" + pattern + "\": directory " + dir.string() +
                    " does not exist");
    }
    std::vector<std::string> matches;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
        if (!entry.is_regular_file()) continue;
        const std::string name = entry.path().filename().string();
        if (glob_match(file_pattern, name)) matches.push_back(entry.path().string());
    }
    if (matches.empty()) throw Error("input-glob \"" + pattern + "\" matched no files");
    // Sorted expansion: directory iteration order is filesystem-dependent,
    // and the match order decides the per-graph seed indices.
    std::sort(matches.begin(), matches.end());
    std::vector<CorpusInput> graphs;
    graphs.reserve(matches.size());
    for (const std::string& path : matches) {
        graphs.push_back(CorpusInput{stem_name(path), path});
    }
    return graphs;
}

std::vector<CorpusInput> expand_manifest(const std::string& manifest_path) {
    std::ifstream is(manifest_path);
    if (!is.good()) throw Error("cannot open corpus-manifest: " + manifest_path);
    return parse_corpus_manifest(is, manifest_path,
                                 fs::path(manifest_path).parent_path().string());
}

} // namespace

std::vector<CorpusInput> parse_corpus_manifest(std::istream& is,
                                               const std::string& manifest_path,
                                               const std::string& base_dir) {
    std::vector<CorpusInput> graphs;
    std::string line;
    int line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        // Inline comments: '#'/'%' at line start or after whitespace opens
        // a comment (a '#' embedded in a path stays part of it).
        for (std::size_t i = 0; i < line.size(); ++i) {
            if ((line[i] == '#' || line[i] == '%') &&
                (i == 0 || std::isspace(static_cast<unsigned char>(line[i - 1])) != 0)) {
                line.resize(i);
                break;
            }
        }
        const std::string stripped = trim(line);
        if (stripped.empty()) continue;
        // "path" or "path :: name" — the explicit separator keeps paths
        // with spaces unambiguous (the one input spelling that allows them).
        std::string path = stripped;
        std::string name;
        const std::size_t sep = stripped.find("::");
        if (sep != std::string::npos) {
            path = trim(stripped.substr(0, sep));
            name = trim(stripped.substr(sep + 2));
            if (name.empty()) {
                throw Error("corpus-manifest " + manifest_path + " line " +
                            std::to_string(line_no) + ": empty name after \"::\"");
            }
        }
        if (path.empty()) {
            throw Error("corpus-manifest " + manifest_path + " line " +
                        std::to_string(line_no) + ": empty path");
        }
        // Relative entries resolve against the manifest's own directory, so
        // a manifest travels with its data set.
        if (fs::path(path).is_relative() && !base_dir.empty()) {
            path = (fs::path(base_dir) / path).string();
        }
        if (name.empty()) name = stem_name(path);
        graphs.push_back(CorpusInput{std::move(name), std::move(path)});
    }
    if (graphs.empty()) throw Error("corpus-manifest " + manifest_path + " lists no inputs");
    return graphs;
}

namespace {

std::uint64_t spec_u64(const std::string& spec, const std::string& key,
                       const std::string& value) {
    std::istringstream is(value);
    std::uint64_t v = 0;
    if (value.find('-') != std::string::npos || !(is >> v) || !is.eof()) {
        throw Error("corpus spec \"" + spec + "\": " + key +
                    " expects a non-negative integer, got \"" + value + "\"");
    }
    return v;
}

double spec_double(const std::string& spec, const std::string& key,
                   const std::string& value) {
    std::istringstream is(value);
    double v = 0;
    if (!(is >> v) || !is.eof()) {
        throw Error("corpus spec \"" + spec + "\": " + key + " expects a number, got \"" +
                    value + "\"");
    }
    return v;
}

/// "07" — zero-padded to the count's digit width.
std::string padded(std::uint64_t index, std::uint64_t count) {
    std::string digits = std::to_string(index);
    const std::string width = std::to_string(count > 0 ? count - 1 : 0);
    while (digits.size() < width.size()) digits.insert(digits.begin(), '0');
    return digits;
}

/// Materializes `corpus = <spec>` members as canonical GESB files under
/// <output-dir>/corpus-inputs/ so every shard is a plain file-input run (a
/// corpus submitted to the service travels as per-graph file configs).
/// Deterministic: the same (spec, seed) always writes the same bytes, so
/// re-planning on resume is safe.
std::vector<CorpusInput> expand_synthetic(const PipelineConfig& config) {
    const std::string& spec = config.corpus_spec;
    if (config.output_dir.empty()) {
        throw Error("corpus = \"" + spec +
                    "\" requires an output-dir to hold the materialized member "
                    "graphs (corpus-inputs/)");
    }
    const std::vector<std::string> tokens = split_tokens(spec);
    if (tokens.empty()) throw Error("empty corpus spec");
    const std::string& kind = tokens[0];

    std::vector<std::pair<std::string, EdgeList>> members;
    if (kind == "test" || kind == "bench") {
        if (tokens.size() != 1) {
            throw Error("corpus spec \"" + spec + "\": " + kind + " takes no parameters");
        }
        // The fixed seeded corpora from src/gen/corpus — the in-repo
        // stand-in for the paper's NetRep sample.  Their generation seeds
        // are fixed (identical across runs and master seeds); only the
        // switching randomness derives from this run's seed.
        for (CorpusEntry& entry : kind == "test" ? corpus_test() : corpus_bench()) {
            members.emplace_back(std::move(entry.name), std::move(entry.graph));
        }
    } else if (kind == "powerlaw" || kind == "gnp") {
        std::uint64_t n = 1000, m = 5000, count = 4;
        double gamma = 2.2;
        for (std::size_t i = 1; i < tokens.size(); ++i) {
            const std::size_t eq = tokens[i].find('=');
            if (eq == std::string::npos) {
                throw Error("corpus spec \"" + spec + "\": expected key=value, got \"" +
                            tokens[i] + "\"");
            }
            const std::string key = tokens[i].substr(0, eq);
            const std::string value = tokens[i].substr(eq + 1);
            if (key == "n") n = spec_u64(spec, key, value);
            else if (key == "count") count = spec_u64(spec, key, value);
            else if (key == "gamma" && kind == "powerlaw")
                gamma = spec_double(spec, key, value);
            else if (key == "m" && kind == "gnp") m = spec_u64(spec, key, value);
            else
                throw Error("corpus spec \"" + spec + "\": unknown parameter \"" + key +
                            "\" for " + kind);
        }
        if (count == 0) throw Error("corpus spec \"" + spec + "\": count must be >= 1");
        for (std::uint64_t g = 0; g < count; ++g) {
            const std::uint64_t gen_seed = corpus_gen_seed(config.seed, g);
            EdgeList graph =
                kind == "powerlaw"
                    ? generate_powerlaw_graph(static_cast<node_t>(n), gamma, gen_seed)
                    : generate_gnp(static_cast<node_t>(n),
                                   gnp_probability_for_edges(static_cast<node_t>(n), m),
                                   gen_seed);
            members.emplace_back(kind + "-" + padded(g, count), std::move(graph));
        }
    } else {
        throw Error("corpus spec \"" + spec +
                    "\": expected test | bench | powerlaw ... | gnp ..., got \"" + kind +
                    "\"");
    }

    const fs::path dir = fs::path(config.output_dir) / "corpus-inputs";
    fs::create_directories(dir);
    std::vector<CorpusInput> graphs;
    graphs.reserve(members.size());
    for (const auto& [name, graph] : members) {
        const std::string path = (dir / (name + ".gesb")).string();
        write_edge_list_binary_file(path, graph);
        graphs.push_back(CorpusInput{name, path});
    }
    return graphs;
}

} // namespace

CorpusPlan plan_corpus(const PipelineConfig& config) {
    validate_input_sources(config);
    if (!is_corpus_config(config)) {
        throw Error("config does not name a corpus: give several inputs, an "
                    "input-glob, a corpus-manifest, or a corpus spec");
    }
    CorpusPlan plan;
    plan.base = config;
    if (!config.corpus_spec.empty()) {
        plan.graphs = expand_synthetic(config);
    } else if (!config.corpus_manifest.empty()) {
        plan.graphs = expand_manifest(config.corpus_manifest);
    } else if (!config.input_glob.empty()) {
        plan.graphs = expand_glob(config.input_glob);
    } else {
        plan.graphs = expand_list(config.input_path);
    }

    // Names become output subdirectories: two inputs that would share one
    // (g.gesb in two different directories) must fail loudly here, not
    // silently overwrite each other's replicates at run time.
    std::map<std::string, std::string> seen; // name -> first path
    for (const CorpusInput& graph : plan.graphs) {
        check_graph_name(graph.name, graph.path);
        const auto [it, inserted] = seen.emplace(graph.name, graph.path);
        if (!inserted) {
            throw Error("duplicate corpus graph name \"" + graph.name + "\": both " +
                        it->second + " and " + graph.path +
                        " would write into the same per-graph output directory; "
                        "rename an input or give explicit names in a "
                        "corpus-manifest (\"path :: name\")");
        }
    }

    // Field-level validation through the shards themselves — each shard is
    // an ordinary single-graph config, so bad corpus-level fields (zero
    // replicates, checkpoint-every without output-dir, policy
    // contradictions, ...) surface with the standard messages at plan time.
    for (std::size_t i = 0; i < plan.graphs.size(); ++i) {
        validate(corpus_shard(plan, i));
    }
    return plan;
}

PipelineConfig corpus_shard(const CorpusPlan& plan, std::size_t index) {
    GESMC_CHECK(index < plan.graphs.size(), "corpus shard index out of range");
    const CorpusInput& graph = plan.graphs[index];
    PipelineConfig shard = plan.base;
    shard.input_path = quoted_input_entry(graph.path);
    shard.input_glob.clear();
    shard.corpus_manifest.clear();
    shard.corpus_spec.clear();
    shard.generator.clear();
    if (!plan.base.corpus_spec.empty()) shard.input_kind = InputKind::kEdgeList;
    shard.seed = corpus_graph_seed(plan.base.seed, index);
    if (!plan.base.output_dir.empty()) {
        shard.output_dir = (fs::path(plan.base.output_dir) / graph.name).string();
        shard.report_path = (fs::path(shard.output_dir) / "report.json").string();
    } else {
        shard.report_path.clear();
    }
    if (!plan.base.resume_from.empty()) {
        // Resume composes per graph: point the shard at its previous
        // directory only when that directory holds resumable state —
        // checkpoints, or (for a shard that completed and cleaned its
        // checkpoints) its outputs.  A member the interrupted run never
        // started begins fresh instead of tripping run_pipeline's
        // missing-state check.
        const fs::path prev = fs::path(plan.base.resume_from) / graph.name;
        bool resumable = false;
        std::error_code ec;
        const fs::path checkpoints = prev / "checkpoints";
        if (fs::exists(checkpoints, ec) && !fs::is_empty(checkpoints, ec)) {
            resumable = true;
        } else if (fs::is_directory(prev, ec)) {
            const std::string prefix = plan.base.output_prefix + "_";
            for (const fs::directory_entry& entry : fs::directory_iterator(prev, ec)) {
                if (entry.is_regular_file() &&
                    entry.path().filename().string().rfind(prefix, 0) == 0) {
                    resumable = true;
                    break;
                }
            }
        }
        shard.resume_from = resumable ? prev.string() : "";
    }
    return shard;
}

CorpusGraphRow corpus_row_from_report(const CorpusInput& input,
                                      const RunReport& report) {
    CorpusGraphRow row;
    row.name = input.name;
    row.input_path = input.path;
    row.seed = report.config.seed;
    row.input_nodes = report.input_nodes;
    row.input_edges = report.input_edges;
    row.replicates = report.replicates.size();
    row.seconds = report.total_seconds;
    row.switches_per_second = report.switches_per_second();

    std::uint64_t attempted = 0, accepted = 0, with_metrics = 0, with_adaptive = 0;
    double triangles = 0, clustering = 0, assortativity = 0, components = 0;
    double realized = 0;
    for (const ReplicateReport& r : report.replicates) {
        attempted += r.stats.attempted;
        accepted += r.stats.accepted;
        if (r.has_adaptive) {
            ++with_adaptive;
            realized += static_cast<double>(r.realized_supersteps);
        }
        if (!r.error.empty()) {
            if (is_interrupt_error(r.error)) {
                ++row.interrupted;
            } else {
                ++row.failed;
                if (row.error.empty()) row.error = r.error;
            }
        }
        if (r.has_metrics) {
            ++with_metrics;
            triangles += static_cast<double>(r.triangles);
            clustering += r.global_clustering;
            assortativity += r.assortativity;
            components += static_cast<double>(r.components);
        }
    }
    row.acceptance_rate =
        attempted > 0 ? static_cast<double>(accepted) / static_cast<double>(attempted)
                      : 0;
    if (with_metrics > 0) {
        row.has_metrics = true;
        const double n = static_cast<double>(with_metrics);
        row.mean_triangles = triangles / n;
        row.mean_clustering = clustering / n;
        row.mean_assortativity = assortativity / n;
        row.mean_components = components / n;
    }
    if (with_adaptive > 0) {
        row.has_adaptive = true;
        row.configured_supersteps = report.config.max_supersteps;
        row.mean_realized_supersteps = realized / static_cast<double>(with_adaptive);
    }
    return row;
}

bool all_succeeded(const CorpusReport& report) {
    for (const CorpusGraphRow& row : report.rows) {
        if (row.failed > 0 || row.interrupted > 0 || !row.error.empty()) return false;
    }
    return !report.rows.empty();
}

bool was_interrupted(const CorpusReport& report) {
    for (const CorpusGraphRow& row : report.rows) {
        if (row.interrupted > 0) return true;
    }
    return false;
}

namespace {

/// Size of the first replicate wave of the two-phase early-stop, or 0 when
/// the shard runs single-phase.  Two-phase needs adaptive mode (the feature
/// it exists to amortize), per-replicate metrics (the stability signal) and
/// enough replicates that skipping the second wave actually saves work.
std::uint64_t two_phase_window(const PipelineConfig& shard) {
    if (!shard.adaptive || !shard.metrics || shard.replicates < 4) return 0;
    const std::uint64_t window =
        std::max<std::uint64_t>(3, (shard.replicates + 1) / 2);
    return window < shard.replicates ? window : 0;
}

/// Deterministic stability verdict over the first wave: every replicate
/// succeeded with metrics, and the triangle counts agree — coefficient of
/// variation <= 0.2 and every z-score within 3 sigma.  A constant series is
/// stable (sd == 0 is the strongest possible agreement).
bool phase1_stable(const RunReport& run, std::uint64_t window) {
    std::vector<double> xs;
    xs.reserve(window);
    double sum = 0, sumsq = 0;
    for (std::uint64_t i = 0; i < window; ++i) {
        const ReplicateReport& r = run.replicates[i];
        if (!r.error.empty() || !r.has_metrics) return false;
        const double x = static_cast<double>(r.triangles);
        xs.push_back(x);
        sum += x;
        sumsq += x * x;
    }
    const double n = static_cast<double>(window);
    const double mean = sum / n;
    const double var = std::max(0.0, sumsq / n - mean * mean);
    const double sd = std::sqrt(var);
    if (sd == 0.0) return true;
    if (std::abs(mean) < 1e-12) return false;
    if (sd / std::abs(mean) > 0.2) return false;
    for (const double x : xs) {
        if (std::abs((x - mean) / sd) > 3.0) return false;
    }
    return true;
}

/// Forwards one shard's replicate completions to the corpus hooks with the
/// member's plan index attached.
class HookObserver final : public RunObserver {
public:
    HookObserver(const CorpusHooks& hooks, std::size_t graph)
        : hooks_(&hooks), graph_(graph) {}

    void on_replicate_done(const ReplicateReport& report) override {
        if (hooks_->on_replicate_done != nullptr) {
            hooks_->on_replicate_done(graph_, report);
        }
    }

private:
    const CorpusHooks* hooks_;
    std::size_t graph_;
};

} // namespace

CorpusReport run_corpus(const CorpusPlan& plan, std::ostream* log,
                        const std::atomic<bool>* interrupt, const CorpusHooks& hooks) {
    GESMC_CHECK(!plan.graphs.empty(), "empty corpus plan");
    CorpusReport report;
    report.config = plan.base;
    report.rows.resize(plan.graphs.size());

    Timer total_timer;
    // One budget for the whole corpus: every shard's (graph x replicate)
    // cells are tasks of this executor, popped round-robin across graphs —
    // replicates of different graphs interleave instead of graphs running
    // serially, and the summed leased width never exceeds the budget.
    SharedExecutor executor(plan.base.threads);

    if (log != nullptr) {
        const ResolvedSchedule schedule = resolve_schedule(
            ScheduleRequest{plan.base.policy, plan.base.chain_threads,
                            plan.base.max_concurrent},
            plan.base.replicates, executor.threads());
        *log << "corpus: " << plan.graphs.size() << " graphs x "
             << plan.base.replicates << " replicates of " << plan.base.algorithm
             << ", budget = " << executor.threads() << " threads, per-graph schedule = "
             << to_string(schedule.policy) << " (" << schedule.max_concurrent << " x "
             << schedule.chain_threads << ")\n";
    }

    CheckedMutex log_mutex{LockRank::kCorpusLog, "corpus.log"};
    std::size_t finished = 0;

    // Streamed rows: one compact JSON line per graph, appended the moment
    // the graph settles — a 10k-graph overnight run is monitorable (tail -f)
    // long before the merged summary exists.
    std::ofstream rows_stream;
    CheckedMutex rows_mutex{LockRank::kCorpusRowStream, "corpus.rows"};
    if (!plan.base.output_dir.empty()) {
        fs::create_directories(plan.base.output_dir);
        const std::string rows_path =
            (fs::path(plan.base.output_dir) / "corpus_rows.ndjson").string();
        rows_stream.open(rows_path, std::ios::trunc);
        if (!rows_stream.good()) {
            throw Error("cannot open corpus row stream for writing: " + rows_path);
        }
    }

    // Bounded coordinator pool: a coordinator only materializes its graph's
    // input and parks in SharedExecutor::run while the shared worker team
    // computes, but parked threads still cost stacks — a 10k-graph corpus
    // must not spawn 10k of them.  The cap keeps every budget thread
    // feedable (and stays above the handful of graphs the interleaving
    // tests run concurrently); graphs beyond it run in waves as
    // coordinators free up.
    const std::size_t coordinator_cap = std::min<std::size_t>(
        plan.graphs.size(), std::max<std::size_t>(executor.threads(), 8));
    struct CorpusGauges {
        obs::Gauge& cap =
            obs::MetricsRegistry::instance().gauge("corpus.coordinator_cap");
        obs::Gauge& active =
            obs::MetricsRegistry::instance().gauge("corpus.coordinators_active");
        obs::Counter& graphs_done =
            obs::MetricsRegistry::instance().counter("corpus.graphs.done");
        obs::Counter& stopped_early =
            obs::MetricsRegistry::instance().counter("corpus.graphs.stopped_early");
    };
    static CorpusGauges& gauges = *new CorpusGauges();
    gauges.cap.set(static_cast<std::int64_t>(coordinator_cap));

    std::atomic<std::size_t> next_graph{0};
    std::vector<std::thread> runners;
    runners.reserve(coordinator_cap);
    for (std::size_t c = 0; c < coordinator_cap; ++c) {
        runners.emplace_back([&] {
            for (;;) {
                const std::size_t i = next_graph.fetch_add(1, std::memory_order_relaxed);
                if (i >= plan.graphs.size()) return;
                gauges.active.add(1);
                const CorpusInput& input = plan.graphs[i];
                const PipelineConfig shard = corpus_shard(plan, i);
                CorpusGraphRow& row = report.rows[i];
                HookObserver observer(hooks, i);
                try {
                    PipelineExec exec;
                    exec.executor = &executor;
                    exec.interrupt = interrupt;
                    RunReport run;
                    bool stopped_early = false;
                    const std::uint64_t window = two_phase_window(shard);
                    if (window > 0) {
                        // Two-phase early-stop (adaptive runs only): run the
                        // first wave of replicates, and skip the rest when
                        // their z-scores already agree — the per-graph
                        // analogue of the per-chain adaptive stop.  Both
                        // phases are partial-range runs, so the coordinator
                        // owns the shard's finalization (report.json,
                        // checkpoint cleanup) after assembling the report.
                        PipelineExec phase1 = exec;
                        phase1.replicate_end = window;
                        run = run_pipeline(shard, nullptr, &observer, phase1);
                        if (phase1_stable(run, window) && !was_interrupted(run)) {
                            stopped_early = true;
                            run.replicates.resize(window);
                        } else {
                            // Not stable (or draining): the second wave runs
                            // — or, under an interrupt, records its
                            // replicates as interrupted without running, the
                            // same outcome a single-phase run produces.
                            PipelineExec phase2 = exec;
                            phase2.replicate_begin = window;
                            RunReport rest =
                                run_pipeline(shard, nullptr, &observer, phase2);
                            for (std::uint64_t r = window; r < shard.replicates; ++r) {
                                run.replicates[r] = std::move(rest.replicates[r]);
                            }
                            run.total_seconds += rest.total_seconds;
                        }
                        if (shard.checkpoint_every > 0 && !shard.keep_checkpoints &&
                            all_succeeded(run)) {
                            remove_run_checkpoints(shard);
                        }
                        if (!shard.report_path.empty()) {
                            write_json_report_file(shard.report_path, run);
                        }
                    } else {
                        run = run_pipeline(shard, nullptr, &observer, exec);
                    }
                    row = corpus_row_from_report(input, run);
                    row.stopped_early = stopped_early;
                    if (stopped_early) gauges.stopped_early.add(1);
                    // Replicate z-scores of the finished shard as live
                    // gauges (analysis/gauges.hpp): how far the shard's
                    // most extreme replicate sits from its siblings.
                    publish_corpus_z_gauges(run);
                    if (hooks.on_graph_done != nullptr) hooks.on_graph_done(i, run);
                } catch (const std::exception& e) {
                    // A shard-level failure (unreadable input, bad resume
                    // state) fails its row; the other graphs keep running.
                    row.name = input.name;
                    row.input_path = input.path;
                    row.seed = shard.seed;
                    row.replicates = shard.replicates;
                    row.failed = shard.replicates;
                    row.error = e.what();
                }
                if (!row.error.empty()) {
                    GESMC_LOG_EVENT(Error, "corpus", "graph_failed")
                        .str("graph", input.name)
                        .num("failed", row.failed)
                        .str("error", row.error);
                } else if (row.interrupted > 0) {
                    GESMC_LOG_EVENT(Warn, "corpus", "graph_interrupted")
                        .str("graph", input.name)
                        .num("interrupted", row.interrupted);
                } else {
                    GESMC_LOG_EVENT(Info, "corpus", "graph_done")
                        .str("graph", input.name)
                        .num("replicates", row.replicates)
                        .real("seconds", row.seconds);
                }
                gauges.graphs_done.add(1);
                gauges.active.add(-1);
                if (rows_stream.is_open()) {
                    const CheckedLockGuard lock(rows_mutex);
                    rows_stream << corpus_row_ndjson(row) << '\n';
                    rows_stream.flush();
                }
                if (log != nullptr) {
                    const CheckedLockGuard lock(log_mutex);
                    ++finished;
                    *log << "corpus: graph " << input.name << " "
                         << (row.error.empty() && row.interrupted == 0
                                 ? "done"
                                 : row.interrupted > 0 ? "interrupted" : "FAILED")
                         << " in " << fmt_seconds(row.seconds) << " ("
                         << fmt_si(row.switches_per_second) << " switches/s) ["
                         << finished << "/" << plan.graphs.size() << "]\n";
                }
            }
        });
    }
    for (std::thread& runner : runners) runner.join();
    report.total_seconds = total_timer.elapsed_s();

    if (!plan.base.report_path.empty()) {
        const fs::path parent = fs::path(plan.base.report_path).parent_path();
        if (!parent.empty()) fs::create_directories(parent);
        write_corpus_json_file(plan.base.report_path, report);
    }
    std::uint64_t total_failed = 0;
    for (const CorpusGraphRow& row : report.rows) total_failed += row.failed;
    if (log != nullptr) {
        *log << "corpus: done in " << fmt_seconds(report.total_seconds) << " ("
             << report.rows.size() << " graphs";
        if (total_failed > 0) *log << ", " << total_failed << " replicate(s) FAILED";
        *log << ")\n";
    }
    GESMC_LOG_EVENT(Info, "corpus", "run_done")
        .num("graphs", static_cast<std::uint64_t>(report.rows.size()))
        .num("failed", total_failed)
        .real("seconds", report.total_seconds);
    return report;
}

namespace {

/// One per-graph row: an element of the summary's `graphs` array and one
/// line of corpus_rows.ndjson.
void write_corpus_row(JsonWriter& w, const CorpusGraphRow& row) {
    w.begin_object();
    w.kv("name", row.name);
    w.kv("input", row.input_path);
    w.kv("seed", row.seed);
    w.kv("nodes", row.input_nodes);
    w.kv("edges", row.input_edges);
    w.kv("replicates", row.replicates);
    w.kv("failed", row.failed);
    w.kv("interrupted", row.interrupted);
    w.kv("seconds", row.seconds);
    w.kv("switches_per_second", row.switches_per_second);
    w.kv("acceptance_rate", row.acceptance_rate);
    if (row.has_adaptive) {
        w.kv("stopped_early", row.stopped_early);
        w.kv("configured_supersteps", row.configured_supersteps);
        w.kv("mean_realized_supersteps", row.mean_realized_supersteps);
    }
    if (!row.error.empty()) w.kv("error", row.error);
    if (row.has_metrics) {
        w.key("metrics");
        w.begin_object();
        w.kv("mean_triangles", row.mean_triangles);
        w.kv("mean_global_clustering", row.mean_clustering);
        w.kv("mean_assortativity", row.mean_assortativity);
        w.kv("mean_components", row.mean_components);
        w.end_object();
    }
    w.end_object();
}

/// min / median / max over the rows of one column.
void write_aggregate(JsonWriter& w, const std::string& key, std::vector<double> values) {
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    const double median = n % 2 == 1
                              ? values[n / 2]
                              : (values[n / 2 - 1] + values[n / 2]) / 2.0;
    w.key(key);
    w.begin_object();
    w.kv("min", values.front());
    w.kv("median", median);
    w.kv("max", values.back());
    w.end_object();
}

} // namespace

void write_corpus_json(std::ostream& os, const CorpusReport& report) {
    JsonWriter w(os);
    w.begin_object();

    w.key("corpus");
    w.begin_object();
    w.kv("graphs", static_cast<std::uint64_t>(report.rows.size()));
    w.kv("seed", report.config.seed);
    w.kv("algorithm", report.config.algorithm);
    if (report.config.adaptive) {
        w.kv("supersteps", "adaptive");
        w.kv("max_supersteps", report.config.max_supersteps);
    } else {
        w.kv("supersteps", report.config.supersteps);
    }
    w.kv("replicates_per_graph", report.config.replicates);
    w.kv("policy", to_string(report.config.policy));
    w.kv("requested_threads", report.config.threads);
    // Echo the one input source so the summary re-derives its expansion.
    if (!report.config.input_path.empty()) w.kv("input", report.config.input_path);
    if (!report.config.input_glob.empty()) w.kv("input_glob", report.config.input_glob);
    if (!report.config.corpus_manifest.empty()) {
        w.kv("corpus_manifest", report.config.corpus_manifest);
    }
    if (!report.config.corpus_spec.empty()) w.kv("corpus", report.config.corpus_spec);
    w.kv("output_dir", report.config.output_dir);
    w.kv("checkpoint_every", report.config.checkpoint_every);
    if (!report.config.resume_from.empty()) {
        w.kv("resume_from", report.config.resume_from);
    }
    w.end_object();

    w.kv("total_seconds", report.total_seconds);

    w.key("graphs");
    w.begin_array();
    bool all_metrics = !report.rows.empty();
    for (const CorpusGraphRow& row : report.rows) {
        all_metrics = all_metrics && row.has_metrics;
        write_corpus_row(w, row);
    }
    w.end_array();

    // Corpus-level spread: min / median / max across the per-graph rows of
    // timings, switch acceptance, and (when every row has them) the proxy
    // metrics — the aggregate view Milo-style corpus studies read first.
    if (!report.rows.empty()) {
        std::vector<double> seconds, sps, acceptance;
        std::vector<double> triangles, clustering, assortativity, components;
        for (const CorpusGraphRow& row : report.rows) {
            seconds.push_back(row.seconds);
            sps.push_back(row.switches_per_second);
            acceptance.push_back(row.acceptance_rate);
            if (row.has_metrics) {
                triangles.push_back(row.mean_triangles);
                clustering.push_back(row.mean_clustering);
                assortativity.push_back(row.mean_assortativity);
                components.push_back(row.mean_components);
            }
        }
        w.key("aggregates");
        w.begin_object();
        write_aggregate(w, "seconds", std::move(seconds));
        write_aggregate(w, "switches_per_second", std::move(sps));
        write_aggregate(w, "acceptance_rate", std::move(acceptance));
        if (all_metrics) {
            write_aggregate(w, "mean_triangles", std::move(triangles));
            write_aggregate(w, "mean_global_clustering", std::move(clustering));
            write_aggregate(w, "mean_assortativity", std::move(assortativity));
            write_aggregate(w, "mean_components", std::move(components));
        }
        w.end_object();
    }

    w.end_object();
    os << '\n';
}

void write_corpus_json_file(const std::string& path, const CorpusReport& report) {
    std::ofstream os(path);
    if (!os.good()) throw Error("cannot open corpus report for writing: " + path);
    write_corpus_json(os, report);
}

std::string corpus_row_ndjson(const CorpusGraphRow& row) {
    std::ostringstream os;
    JsonWriter w(os, JsonLayout::kLine);
    write_corpus_row(w, row);
    return os.str();
}

} // namespace gesmc
