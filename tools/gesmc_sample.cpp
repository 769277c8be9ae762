/// \file gesmc_sample.cpp
/// \brief Batch sampler CLI: config-driven multi-replicate orchestration.
///
/// Runs R independent replicates of an edge-switching Markov chain on one
/// input graph — or on a whole *corpus* of input graphs — scheduled over a
/// shared thread budget, and writes one output graph per replicate plus a
/// machine-readable JSON report.  This is the null-model workhorse:
/// motif/significance analyses need hundreds of randomized replicates per
/// input, and this tool produces them in one reproducible invocation.
///
///   gesmc_sample --config run.cfg
///   gesmc_sample --input g.txt --replicates 64 --output-dir out --report out/run.json
///   gesmc_sample --config run.cfg --set threads=16 --set policy=replicates
///   gesmc_sample --config run.cfg --output-dir out --checkpoint-every 10
///   gesmc_sample --config run.cfg --resume out        # after an interruption
///   gesmc_sample --glob 'data/*.gesb' --replicates 16 --output-dir out/corpus
///
/// A config naming several inputs (input list, --glob/--manifest/--corpus)
/// runs as a corpus: per-graph shards with derived seeds under one thread
/// budget, merged into a corpus summary (docs/corpus.md).  Every option is
/// a config key (see src/pipeline/config.hpp); CLI flags override file
/// entries in command-line order.
#include "check/checked_mutex.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "pipeline/config.hpp"
#include "pipeline/corpus.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/report.hpp"
#include "util/check.hpp"
#include "util/format.hpp"
#include "util/signal_interrupt.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

using namespace gesmc;

namespace {

constexpr const char* kUsage = R"(gesmc_sample — batch sampling of simple graphs with prescribed degrees

Config:
  --config FILE       read "key = value" pipeline config (see examples/)
  --set KEY=VALUE     override any config key (repeatable)

Shortcuts (equivalent to --set):
  --input FILE        edge list (text or GESB binary); several paths make
                      the run a corpus (one shard per graph, derived seeds)
  --degrees FILE      degree-sequence input (realized via init method)
  --gen KIND          generator input: powerlaw | gnp | grid | regular
  --glob PATTERN      corpus input: every file matching PATTERN (sorted;
                      quote it so the shell does not expand)
  --manifest FILE     corpus input: manifest of paths ("path [:: name]")
  --corpus SPEC       synthetic corpus: test | bench |
                      "powerlaw n=.. gamma=.. count=.." | "gnp n=.. m=.. count=.."
  --algo NAME         seq-es | seq-global-es | par-es | par-global-es |
                      adj-list-es
  --replicates R      independent replicates to sample
  --supersteps K      supersteps per replicate, or "adaptive" to stop each
                      replicate once its mixing estimate clears the target
                      (docs/adaptive.md; tune with the five flags below)
  --ess-target E      adaptive: effective sample size to reach        [32]
  --mixing-tau F      adaptive: max non-independent edge fraction     [0.2]
  --min-supersteps N  adaptive: never stop before N supersteps        [8]
  --max-supersteps N  adaptive: hard budget cap                       [200]
  --check-every N     adaptive: verdict cadence in supersteps         [2]
  --seed S            master seed (replicate seeds are derived)
  --threads P         machine-level thread budget, 0 = hardware concurrency
  --policy NAME       auto | replicates | intra-chain | hybrid
  --chain-threads T   threads leased per chain (hybrid K x T; 0 = derive)
  --max-concurrent K  cap on replicates computing at once (0 = budget/T)
  --output-dir DIR    write one graph per replicate into DIR
  --output-format F   text | binary
  --report FILE       write the JSON run report to FILE (corpus runs: the
                      merged corpus summary; per-graph reports land in each
                      graph's output subdirectory)
  --checkpoint-every N  persist per-replicate chain state (.gesc) every N
                      supersteps under <output-dir>/checkpoints
  --resume DIR        resume an interrupted run from DIR's checkpoints:
                      finished replicates are skipped, in-flight ones
                      continue from their (seed, counter) pair; outputs go
                      back into DIR unless --output-dir says otherwise
                      (pass the same config as the interrupted run)
  --progress          print a live line as each replicate finishes
  --quiet             suppress progress output

Observability (docs/observability.md):
  --metrics           collect runtime counters (switch outcomes, lease waits,
                      probe lengths); embedded as "obs_metrics" in the report
  --metrics-out FILE  write the metrics snapshot to FILE (implies --metrics)
  --metrics-prom FILE write the final metrics snapshot as a Prometheus text
                      exposition (v0.0.4) to FILE (implies --metrics) — for
                      node_exporter's textfile collector
  --telemetry-out FILE
                      run a background telemetry sampler during the run and
                      append one NDJSON time-series row per second to FILE
                      (implies --metrics; tail -f-able; schema in
                      docs/observability.md)
  --trace FILE        record a Chrome trace_event timeline (supersteps,
                      lease waits, checkpoints) to FILE — load it in
                      chrome://tracing or Perfetto
  --help              this text
)";

/// --progress: stream replicate completions as they happen (RunObserver)
/// instead of waiting for the final report.  Callbacks may fire from pool
/// threads concurrently -> one mutex around the shared line.
class ProgressPrinter final : public RunObserver {
public:
    explicit ProgressPrinter(std::uint64_t replicates) : replicates_(replicates) {}

    void on_replicate_done(const ReplicateReport& r) override {
        const CheckedLockGuard lock(mutex_);
        ++finished_;
        std::cerr << "pipeline: replicate " << r.index << " "
                  << (r.error.empty() ? "done" : "FAILED") << " in "
                  << fmt_seconds(r.seconds);
        if (r.resumed_supersteps > 0) {
            std::cerr << " (resumed at superstep " << r.resumed_supersteps << ")";
        }
        std::cerr << " [" << finished_ << "/" << replicates_ << "]\n";
    }

private:
    CheckedMutex mutex_{LockRank::kToolProgress, "gesmc_sample.observer"};
    std::uint64_t replicates_;
    std::uint64_t finished_ = 0;
};

struct CliEntry {
    std::string key;
    std::string value;
};

/// Corpus mode: expand the config into per-graph shards, run every
/// (graph x replicate) cell over one thread budget, emit the merged corpus
/// summary.  Exit codes mirror the single-graph path (0 ok, 1 failures,
/// 130 interrupted with a resume hint).
int run_corpus_cli(const PipelineConfig& config, bool quiet, bool progress) {
    const CorpusPlan plan = plan_corpus(config);
    CheckedMutex progress_mutex{LockRank::kToolProgress, "gesmc_sample.progress"};
    std::uint64_t cells_done = 0;
    const std::uint64_t total_cells = plan.graphs.size() * config.replicates;
    CorpusHooks hooks;
    if (progress) {
        hooks.on_replicate_done = [&](std::size_t graph, const ReplicateReport& r) {
            const CheckedLockGuard lock(progress_mutex);
            ++cells_done;
            std::cerr << "corpus: " << plan.graphs[graph].name << " replicate "
                      << r.index << (r.error.empty() ? " done" : " FAILED") << " in "
                      << fmt_seconds(r.seconds) << " [" << cells_done << "/"
                      << total_cells << "]\n";
        };
    }
    const std::atomic<bool>* interrupt = nullptr;
    if (config.checkpoint_every > 0) {
        install_interrupt_handlers();
        interrupt = &interrupt_flag();
    }
    const CorpusReport report =
        run_corpus(plan, quiet ? nullptr : &std::cerr, interrupt, hooks);
    // The merged summary must reach the caller even on partial failure or
    // interruption — completed rows carry real results.
    if (config.report_path.empty()) write_corpus_json(std::cout, report);
    if (was_interrupted(report)) {
        std::cerr << "interrupted: per-graph state checkpointed under "
                  << config.output_dir
                  << "/<graph>/checkpoints; continue with --resume "
                  << config.output_dir << "\n";
        return 130;
    }
    if (!all_succeeded(report)) {
        for (const CorpusGraphRow& row : report.rows) {
            if (!row.error.empty()) {
                std::cerr << "graph " << row.name << " failed: " << row.error << "\n";
            }
        }
        return 1;
    }
    return 0;
}

/// Single-graph mode, factored out so main can finalize the observability
/// outputs (trace file, metrics snapshot) on every exit path uniformly.
int run_single_cli(const PipelineConfig& config, bool quiet, bool progress) {
    std::optional<ProgressPrinter> printer;
    if (progress) printer.emplace(config.replicates);
    PipelineExec exec;
    if (config.checkpoint_every > 0) {
        install_interrupt_handlers();
        exec.interrupt = &interrupt_flag();
    }
    const RunReport report = run_pipeline(config, quiet ? nullptr : &std::cerr,
                                          progress ? &*printer : nullptr, exec);
    // was_interrupted, not the raw flag: a signal landing after the
    // final checkpoint check leaves a fully successful run (whose
    // checkpoints were just cleaned up) — that run must exit 0, not
    // point a resume hint at deleted files.
    if (was_interrupted(report)) {
        std::cerr << "interrupted: per-replicate state checkpointed under "
                  << config.output_dir << "/checkpoints; continue with --resume "
                  << config.output_dir << "\n";
        if (config.report_path.empty()) write_json_report(std::cout, report);
        return 130;
    }
    if (config.report_path.empty()) {
        // No report file requested: put the JSON on stdout so the run is
        // still machine-consumable (--quiet only silences progress).
        // Emitted also on partial failure — the completed replicates'
        // stats and output paths must not be lost with them.
        write_json_report(std::cout, report);
    }
    if (!all_succeeded(report)) {
        for (const ReplicateReport& r : report.replicates) {
            if (!r.error.empty()) {
                std::cerr << "replicate " << r.index << " failed: " << r.error << "\n";
            }
        }
        return 1;
    }
    return 0;
}

void write_metrics_snapshot_file(const std::string& path) {
    std::ofstream os(path);
    if (!os.good()) throw Error("cannot open metrics output for writing: " + path);
    JsonWriter w(os);
    obs::write_metrics_json(w, obs::MetricsRegistry::instance().snapshot());
    os << '\n';
    if (!os.good()) throw Error("writing metrics output failed: " + path);
}

void write_metrics_prometheus_file(const std::string& path) {
    std::ofstream os(path);
    if (!os.good()) throw Error("cannot open Prometheus output for writing: " + path);
    obs::write_metrics_prometheus(os, obs::MetricsRegistry::instance().snapshot());
    if (!os.good()) throw Error("writing Prometheus output failed: " + path);
}

} // namespace

int main(int argc, char** argv) {
    std::string config_path;
    std::vector<CliEntry> overrides;
    std::string resume_dir;
    std::string trace_path;
    std::string metrics_out;
    std::string metrics_prom;
    std::string telemetry_out;
    bool metrics = false;
    bool quiet = false;
    bool progress = false;

    auto need_value = [&](int& i) -> const char* {
        if (i + 1 >= argc) {
            std::cerr << "missing value for " << argv[i] << "\n";
            return nullptr;
        }
        return argv[++i];
    };
    // Flags that expand to a plain config entry.
    const std::vector<std::pair<std::string, std::string>> shortcuts = {
        {"--input", "input"},         {"--gen", "generator"},
        {"--glob", "input-glob"},     {"--manifest", "corpus-manifest"},
        {"--corpus", "corpus"},
        {"--algo", "algorithm"},      {"--replicates", "replicates"},
        {"--supersteps", "supersteps"}, {"--seed", "seed"},
        {"--ess-target", "ess-target"}, {"--mixing-tau", "mixing-tau"},
        {"--min-supersteps", "min-supersteps"},
        {"--max-supersteps", "max-supersteps"}, {"--check-every", "check-every"},
        {"--threads", "threads"},     {"--policy", "policy"},
        {"--chain-threads", "chain-threads"}, {"--max-concurrent", "max-concurrent"},
        {"--output-dir", "output-dir"}, {"--output-format", "output-format"},
        {"--report", "report"},         {"--checkpoint-every", "checkpoint-every"},
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char* v = nullptr;
        if (arg == "--help") {
            std::cout << kUsage;
            return 0;
        }
        if (arg == "--quiet") {
            quiet = true;
            continue;
        }
        if (arg == "--progress") {
            progress = true;
            continue;
        }
        if (arg == "--metrics") {
            metrics = true;
            continue;
        }
        if (arg == "--metrics-out") {
            if (!(v = need_value(i))) return 2;
            metrics_out = v;
            metrics = true;
            continue;
        }
        if (arg == "--metrics-prom") {
            if (!(v = need_value(i))) return 2;
            metrics_prom = v;
            metrics = true;
            continue;
        }
        if (arg == "--telemetry-out") {
            if (!(v = need_value(i))) return 2;
            telemetry_out = v;
            metrics = true;
            continue;
        }
        if (arg == "--trace") {
            if (!(v = need_value(i))) return 2;
            trace_path = v;
            continue;
        }
        if (arg == "--resume") {
            if (!(v = need_value(i))) return 2;
            overrides.push_back({"resume-from", v});
            resume_dir = v;
            continue;
        }
        if (arg == "--config") {
            if (!(v = need_value(i))) return 2;
            config_path = v;
            continue;
        }
        if (arg == "--set") {
            if (!(v = need_value(i))) return 2;
            const std::string entry = v;
            const std::size_t eq = entry.find('=');
            if (eq == std::string::npos) {
                std::cerr << "--set expects KEY=VALUE, got: " << entry << "\n";
                return 2;
            }
            overrides.push_back({entry.substr(0, eq), entry.substr(eq + 1)});
            continue;
        }
        if (arg == "--degrees") {
            if (!(v = need_value(i))) return 2;
            overrides.push_back({"input", v});
            overrides.push_back({"input-kind", "degrees"});
            continue;
        }
        bool matched = false;
        for (const auto& [flag, key] : shortcuts) {
            if (arg == flag) {
                if (!(v = need_value(i))) return 2;
                overrides.push_back({key, v});
                if (flag == "--gen") overrides.push_back({"input-kind", "generator"});
                // --input must also reset the kind: a stale input-kind from a
                // config file or an earlier --degrees would misparse the file.
                if (flag == "--input") overrides.push_back({"input-kind", "edges"});
                matched = true;
                break;
            }
        }
        if (!matched) {
            std::cerr << "unknown option: " << arg << "\n" << kUsage;
            return 2;
        }
    }
    if (!resume_dir.empty()) {
        // --resume writes back into the interrupted run's directory unless
        // the user said otherwise anywhere on the command line (resume into
        // a fresh dir is supported — finished markers are carried over).
        const bool explicit_output_dir =
            std::any_of(overrides.begin(), overrides.end(),
                        [](const CliEntry& e) { return e.key == "output-dir"; });
        if (!explicit_output_dir) overrides.push_back({"output-dir", resume_dir});
    }

    try {
        PipelineConfig config;
        if (!config_path.empty()) config = read_pipeline_config_file(config_path);
        for (const CliEntry& entry : overrides) {
            apply_config_entry(config, entry.key, entry.value);
        }
        if (metrics) obs::set_metrics_enabled(true);
        if (!trace_path.empty()) obs::TraceSession::start();
        // --telemetry-out: a background sampler ticks once a second for the
        // whole run, appending rows to the NDJSON sink.  Destroyed (joined)
        // after the run on every path — including the exception path, where
        // stack unwinding stops it.
        std::optional<obs::TelemetrySampler> sampler;
        if (!telemetry_out.empty()) {
            // The sink truncates-on-open before the pipeline creates
            // output-dir, so a sibling path would fail silently; make the
            // parent directory and refuse to run with a dead sink.
            const auto parent = std::filesystem::path(telemetry_out).parent_path();
            if (!parent.empty()) {
                std::error_code ec;
                std::filesystem::create_directories(parent, ec);
            }
            obs::TelemetrySamplerConfig sampler_config;
            sampler_config.ndjson_path = telemetry_out;
            sampler.emplace(std::move(sampler_config));
            if (!sampler->ndjson_ok()) {
                std::cerr << "cannot open --telemetry-out for writing: "
                          << telemetry_out << "\n";
                return 2;
            }
            sampler->start();
        }
        const int code = is_corpus_config(config)
                             ? run_corpus_cli(config, quiet, progress)
                             : run_single_cli(config, quiet, progress);
        // Observability outputs are written on every completion path —
        // an interrupted (130) or partially failed (1) run's timeline is
        // exactly the one worth looking at.
        if (sampler.has_value()) {
            (void)sampler->sample_now(); // final row covers the run's tail
            sampler->stop();
        }
        if (!trace_path.empty()) obs::TraceSession::stop_and_write(trace_path);
        if (!metrics_out.empty()) write_metrics_snapshot_file(metrics_out);
        if (!metrics_prom.empty()) write_metrics_prometheus_file(metrics_prom);
        return code;
    } catch (const std::exception& e) {
        obs::TraceSession::stop();
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
