#include "pipeline/config.hpp"

#include "util/check.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <vector>

namespace gesmc {

namespace {

std::string trim(const std::string& s) {
    const auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
    auto begin = s.begin();
    while (begin != s.end() && is_space(*begin)) ++begin;
    auto end = s.end();
    while (end != begin && is_space(*(end - 1))) --end;
    return std::string(begin, end);
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
    std::istringstream is(value);
    std::uint64_t v = 0;
    // istream >> uint64_t silently wraps negative input; reject it up front.
    GESMC_CHECK(value.find('-') == std::string::npos &&
                    static_cast<bool>(is >> v) && is.eof(),
                "config key \"" + key + "\": expected a non-negative integer, got \"" +
                    value + "\"");
    return v;
}

double parse_double(const std::string& key, const std::string& value) {
    std::istringstream is(value);
    double v = 0;
    GESMC_CHECK(static_cast<bool>(is >> v) && is.eof(),
                "config key \"" + key + "\": expected a number, got \"" + value + "\"");
    return v;
}

bool parse_bool(const std::string& key, const std::string& value) {
    if (value == "true" || value == "1" || value == "yes" || value == "on") return true;
    if (value == "false" || value == "0" || value == "no" || value == "off") return false;
    throw Error("config key \"" + key + "\": expected true/false, got \"" + value + "\"");
}

} // namespace

std::string to_string(InputKind kind) {
    switch (kind) {
    case InputKind::kEdgeList:
        return "edges";
    case InputKind::kDegreeSequence:
        return "degrees";
    case InputKind::kGenerator:
        return "generator";
    }
    return "unknown";
}

std::string to_string(InitMethod method) {
    switch (method) {
    case InitMethod::kHavelHakimi:
        return "havel-hakimi";
    case InitMethod::kConfigurationModel:
        return "configuration-model";
    }
    return "unknown";
}

std::string to_string(SchedulePolicy policy) {
    switch (policy) {
    case SchedulePolicy::kAuto:
        return "auto";
    case SchedulePolicy::kReplicates:
        return "replicates";
    case SchedulePolicy::kIntraChain:
        return "intra-chain";
    case SchedulePolicy::kHybrid:
        return "hybrid";
    }
    return "unknown";
}

std::string to_string(OutputFormat format) {
    switch (format) {
    case OutputFormat::kText:
        return "text";
    case OutputFormat::kBinary:
        return "binary";
    }
    return "unknown";
}

void apply_config_entry(PipelineConfig& config, const std::string& raw_key,
                        const std::string& raw_value) {
    const std::string key = trim(raw_key);
    const std::string value = trim(raw_value);
    if (key == "input") {
        config.input_path = value;
    } else if (key == "input-glob") {
        config.input_glob = value;
    } else if (key == "corpus-manifest") {
        config.corpus_manifest = value;
    } else if (key == "corpus") {
        config.corpus_spec = value;
    } else if (key == "input-kind") {
        if (value == "edges") config.input_kind = InputKind::kEdgeList;
        else if (value == "degrees") config.input_kind = InputKind::kDegreeSequence;
        else if (value == "generator") config.input_kind = InputKind::kGenerator;
        else throw Error("config key \"input-kind\": expected edges|degrees|generator, got \"" +
                         value + "\"");
    } else if (key == "init") {
        if (value == "havel-hakimi") config.init = InitMethod::kHavelHakimi;
        else if (value == "configuration-model")
            config.init = InitMethod::kConfigurationModel;
        else throw Error(
            "config key \"init\": expected havel-hakimi|configuration-model, got \"" +
            value + "\"");
    } else if (key == "generator") {
        config.generator = value;
    } else if (key == "gen-n") {
        config.gen_n = parse_u64(key, value);
    } else if (key == "gen-m") {
        config.gen_m = parse_u64(key, value);
    } else if (key == "gen-gamma") {
        config.gen_gamma = parse_double(key, value);
    } else if (key == "gen-rows") {
        config.gen_rows = parse_u64(key, value);
    } else if (key == "gen-cols") {
        config.gen_cols = parse_u64(key, value);
    } else if (key == "gen-degree") {
        const std::uint64_t v = parse_u64(key, value);
        GESMC_CHECK(v <= 0xFFFFFFFFull, "config key \"gen-degree\": value too large");
        config.gen_degree = static_cast<std::uint32_t>(v);
    } else if (key == "algorithm") {
        config.algorithm = value;
    } else if (key == "supersteps") {
        if (value == "adaptive") {
            config.adaptive = true;
        } else {
            config.adaptive = false;
            config.supersteps = parse_u64(key, value);
        }
    } else if (key == "ess-target") {
        config.ess_target = parse_double(key, value);
    } else if (key == "mixing-tau") {
        config.mixing_tau = parse_double(key, value);
    } else if (key == "min-supersteps") {
        config.min_supersteps = parse_u64(key, value);
    } else if (key == "max-supersteps") {
        config.max_supersteps = parse_u64(key, value);
    } else if (key == "check-every") {
        config.check_every = parse_u64(key, value);
    } else if (key == "pl") {
        config.pl = parse_double(key, value);
    } else if (key == "prefetch") {
        config.prefetch = parse_bool(key, value);
    } else if (key == "edge-set-backend") {
        // Accepted for one release: "locked" names the only edge table.
        if (value != "locked") {
            throw Error("config key \"edge-set-backend\": the lock-free backend was removed; "
                        "only \"locked\" is accepted, got \"" + value + "\"");
        }
    } else if (key == "small-cutoff") {
        config.small_graph_cutoff = parse_u64(key, value);
    } else if (key == "replicates") {
        config.replicates = parse_u64(key, value);
    } else if (key == "seed") {
        config.seed = parse_u64(key, value);
    } else if (key == "threads") {
        const std::uint64_t v = parse_u64(key, value);
        GESMC_CHECK(v <= 0xFFFFFFFFull, "config key \"threads\": value too large");
        config.threads = static_cast<unsigned>(v);
    } else if (key == "policy") {
        if (value == "auto") config.policy = SchedulePolicy::kAuto;
        else if (value == "replicates") config.policy = SchedulePolicy::kReplicates;
        else if (value == "intra-chain") config.policy = SchedulePolicy::kIntraChain;
        else if (value == "hybrid") config.policy = SchedulePolicy::kHybrid;
        else throw Error(
            "config key \"policy\": expected auto|replicates|intra-chain|hybrid, got \"" +
            value + "\"");
    } else if (key == "chain-threads") {
        const std::uint64_t v = parse_u64(key, value);
        GESMC_CHECK(v <= 0xFFFFFFFFull, "config key \"chain-threads\": value too large");
        config.chain_threads = static_cast<unsigned>(v);
    } else if (key == "max-concurrent") {
        const std::uint64_t v = parse_u64(key, value);
        GESMC_CHECK(v <= 0xFFFFFFFFull, "config key \"max-concurrent\": value too large");
        config.max_concurrent = static_cast<unsigned>(v);
    } else if (key == "checkpoint-every") {
        config.checkpoint_every = parse_u64(key, value);
    } else if (key == "resume-from") {
        config.resume_from = value;
    } else if (key == "keep-checkpoints") {
        config.keep_checkpoints = parse_bool(key, value);
    } else if (key == "output-dir") {
        config.output_dir = value;
    } else if (key == "output-prefix") {
        config.output_prefix = value;
    } else if (key == "output-format") {
        if (value == "text") config.output_format = OutputFormat::kText;
        else if (value == "binary") config.output_format = OutputFormat::kBinary;
        else throw Error("config key \"output-format\": expected text|binary, got \"" +
                         value + "\"");
    } else if (key == "report") {
        config.report_path = value;
    } else if (key == "metrics") {
        config.metrics = parse_bool(key, value);
    } else if (key == "verify") {
        config.verify = parse_bool(key, value);
    } else {
        throw Error("unknown config key: \"" + key + "\"");
    }
}

PipelineConfig read_pipeline_config(std::istream& is) {
    PipelineConfig config;
    std::string line;
    int line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        const std::string stripped = trim(line);
        if (stripped.empty() || stripped[0] == '#' || stripped[0] == '%') continue;
        const std::size_t eq = stripped.find('=');
        GESMC_CHECK(eq != std::string::npos,
                    "config line " + std::to_string(line_no) + ": expected \"key = value\", got \"" +
                        stripped + "\"");
        try {
            apply_config_entry(config, stripped.substr(0, eq), stripped.substr(eq + 1));
        } catch (const Error& e) {
            // Re-throw with the position: a bad entry in a many-key corpus
            // document must point at its line, not make the user bisect.
            throw Error("config line " + std::to_string(line_no) + ": " + e.what());
        }
    }
    return config;
}

PipelineConfig read_pipeline_config_file(const std::string& path) {
    std::ifstream is(path);
    GESMC_CHECK(is.good(), "cannot open config: " + path);
    return read_pipeline_config(is);
}

PipelineConfig read_pipeline_config_string(const std::string& text) {
    std::istringstream is(text);
    return read_pipeline_config(is);
}

std::string pipeline_config_to_string(const PipelineConfig& config) {
    const PipelineConfig defaults;
    std::ostringstream os;
    const auto put = [&os](const char* key, const std::string& value) {
        GESMC_CHECK(value.find('\n') == std::string::npos,
                    std::string("config key \"") + key +
                        "\" cannot be rendered: value contains a newline");
        os << key << " = " << value << "\n";
    };
    const auto put_u64 = [&put](const char* key, std::uint64_t v) {
        put(key, std::to_string(v));
    };
    const auto put_double = [&put](const char* key, double v) {
        std::ostringstream s;
        s.precision(17); // round-trippable, matching the JSON report emitter
        s << v;
        put(key, s.str());
    };
    const auto put_bool = [&put](const char* key, bool v) {
        put(key, v ? "true" : "false");
    };

    if (config.input_path != defaults.input_path) put("input", config.input_path);
    if (config.input_glob != defaults.input_glob) put("input-glob", config.input_glob);
    if (config.corpus_manifest != defaults.corpus_manifest) {
        put("corpus-manifest", config.corpus_manifest);
    }
    if (config.corpus_spec != defaults.corpus_spec) put("corpus", config.corpus_spec);
    if (config.input_kind != defaults.input_kind) {
        put("input-kind", to_string(config.input_kind));
    }
    if (config.init != defaults.init) put("init", to_string(config.init));
    if (config.generator != defaults.generator) put("generator", config.generator);
    if (config.gen_n != defaults.gen_n) put_u64("gen-n", config.gen_n);
    if (config.gen_m != defaults.gen_m) put_u64("gen-m", config.gen_m);
    if (config.gen_gamma != defaults.gen_gamma) put_double("gen-gamma", config.gen_gamma);
    if (config.gen_rows != defaults.gen_rows) put_u64("gen-rows", config.gen_rows);
    if (config.gen_cols != defaults.gen_cols) put_u64("gen-cols", config.gen_cols);
    if (config.gen_degree != defaults.gen_degree) put_u64("gen-degree", config.gen_degree);
    if (config.algorithm != defaults.algorithm) put("algorithm", config.algorithm);
    if (config.adaptive) {
        // "supersteps = adaptive" plus the non-default stopping knobs; the
        // numeric supersteps value is meaningless in this mode.
        put("supersteps", "adaptive");
        if (config.ess_target != defaults.ess_target) {
            put_double("ess-target", config.ess_target);
        }
        if (config.mixing_tau != defaults.mixing_tau) {
            put_double("mixing-tau", config.mixing_tau);
        }
        if (config.min_supersteps != defaults.min_supersteps) {
            put_u64("min-supersteps", config.min_supersteps);
        }
        if (config.max_supersteps != defaults.max_supersteps) {
            put_u64("max-supersteps", config.max_supersteps);
        }
        if (config.check_every != defaults.check_every) {
            put_u64("check-every", config.check_every);
        }
    } else if (config.supersteps != defaults.supersteps) {
        put_u64("supersteps", config.supersteps);
    }
    if (config.pl != defaults.pl) put_double("pl", config.pl);
    if (config.prefetch != defaults.prefetch) put_bool("prefetch", config.prefetch);
    if (config.small_graph_cutoff != defaults.small_graph_cutoff) {
        put_u64("small-cutoff", config.small_graph_cutoff);
    }
    if (config.replicates != defaults.replicates) put_u64("replicates", config.replicates);
    if (config.seed != defaults.seed) put_u64("seed", config.seed);
    if (config.threads != defaults.threads) put_u64("threads", config.threads);
    if (config.policy != defaults.policy) put("policy", to_string(config.policy));
    if (config.chain_threads != defaults.chain_threads) {
        put_u64("chain-threads", config.chain_threads);
    }
    if (config.max_concurrent != defaults.max_concurrent) {
        put_u64("max-concurrent", config.max_concurrent);
    }
    if (config.checkpoint_every != defaults.checkpoint_every) {
        put_u64("checkpoint-every", config.checkpoint_every);
    }
    if (config.resume_from != defaults.resume_from) put("resume-from", config.resume_from);
    if (config.keep_checkpoints != defaults.keep_checkpoints) {
        put_bool("keep-checkpoints", config.keep_checkpoints);
    }
    if (config.output_dir != defaults.output_dir) put("output-dir", config.output_dir);
    if (config.output_prefix != defaults.output_prefix) {
        put("output-prefix", config.output_prefix);
    }
    if (config.output_format != defaults.output_format) {
        put("output-format", to_string(config.output_format));
    }
    if (config.report_path != defaults.report_path) put("report", config.report_path);
    if (config.metrics != defaults.metrics) put_bool("metrics", config.metrics);
    if (config.verify != defaults.verify) put_bool("verify", config.verify);
    return os.str();
}

std::vector<std::string> split_input_list(const std::string& value) {
    std::vector<std::string> tokens;
    std::size_t i = 0;
    const auto is_space = [](char c) {
        return std::isspace(static_cast<unsigned char>(c)) != 0;
    };
    while (i < value.size()) {
        if (is_space(value[i])) {
            ++i;
            continue;
        }
        std::string token;
        if (value[i] == '"') {
            const std::size_t close = value.find('"', i + 1);
            GESMC_CHECK(close != std::string::npos,
                        "config key \"input\": unterminated quote in \"" + value + "\"");
            token = value.substr(i + 1, close - i - 1);
            i = close + 1;
        } else {
            const std::size_t start = i;
            while (i < value.size() && !is_space(value[i])) ++i;
            token = value.substr(start, i - start);
        }
        GESMC_CHECK(!token.empty(),
                    "config key \"input\": empty (quoted) path in \"" + value + "\"");
        tokens.push_back(std::move(token));
    }
    return tokens;
}

std::string single_input_path(const PipelineConfig& config) {
    const std::vector<std::string> tokens = split_input_list(config.input_path);
    if (tokens.empty()) return "";
    GESMC_CHECK(tokens.size() == 1,
                "config key \"input\" lists " + std::to_string(tokens.size()) +
                    " paths where a single input is expected");
    return tokens[0];
}

bool is_corpus_config(const PipelineConfig& config) {
    if (!config.input_glob.empty() || !config.corpus_manifest.empty() ||
        !config.corpus_spec.empty()) {
        return true;
    }
    // `input` with several entries names a corpus; a double-quoted path
    // containing spaces stays one entry (split_input_list).
    return split_input_list(config.input_path).size() > 1;
}

void validate_input_sources(const PipelineConfig& config) {
    std::vector<std::string> sources;
    if (!config.input_path.empty()) sources.push_back("input = " + config.input_path);
    if (!config.input_glob.empty()) {
        sources.push_back("input-glob = " + config.input_glob);
    }
    if (!config.corpus_manifest.empty()) {
        sources.push_back("corpus-manifest = " + config.corpus_manifest);
    }
    if (!config.corpus_spec.empty()) sources.push_back("corpus = " + config.corpus_spec);
    if (config.input_kind == InputKind::kGenerator) {
        sources.push_back("input-kind = generator");
    }
    if (sources.size() > 1) {
        std::string message = "contradictory input sources — a config names "
                              "exactly one of input / input-glob / "
                              "corpus-manifest / corpus / a generator, got:";
        for (const std::string& s : sources) message += "\n  " + s;
        throw Error(message);
    }
}

void validate(const PipelineConfig& config) {
    validate_input_sources(config);
    GESMC_CHECK(!is_corpus_config(config),
                "this config names a corpus of inputs; expand it with "
                "plan_corpus — gesmc_sample does so automatically, and "
                "gesmc_submit --corpus fans it out as per-graph jobs "
                "(run_pipeline and plain service submission handle single "
                "graphs only)");
    GESMC_CHECK(config.replicates > 0, "replicates must be >= 1");
    GESMC_CHECK(config.supersteps > 0, "supersteps must be >= 1");
    if (config.adaptive) {
        GESMC_CHECK(config.min_supersteps >= 1, "min-supersteps must be >= 1");
        GESMC_CHECK(config.max_supersteps >= config.min_supersteps,
                    "max-supersteps must be >= min-supersteps");
        GESMC_CHECK(config.check_every >= 1, "check-every must be >= 1");
        GESMC_CHECK(config.ess_target > 0, "ess-target must be > 0");
        GESMC_CHECK(config.mixing_tau >= 0 && config.mixing_tau <= 1,
                    "mixing-tau must be in [0, 1]");
    }
    GESMC_CHECK(config.pl > 0 && config.pl < 1, "pl must be in (0, 1)");
    if (config.input_kind == InputKind::kGenerator) {
        GESMC_CHECK(!config.generator.empty(),
                    "input-kind = generator requires the \"generator\" key");
        GESMC_CHECK(config.generator == "powerlaw" || config.generator == "gnp" ||
                        config.generator == "grid" || config.generator == "regular",
                    "generator must be powerlaw|gnp|grid|regular, got \"" +
                        config.generator + "\"");
    } else {
        GESMC_CHECK(!config.input_path.empty(),
                    "an \"input\" path is required (or set input-kind = generator)");
    }
    GESMC_CHECK(config.checkpoint_every == 0 || !config.output_dir.empty(),
                "checkpoint-every requires an output-dir to hold the checkpoints");
    // policy = replicates *means* T = 1; silently dropping a pinned wider
    // chain-threads would run single-threaded chains behind the user's
    // back.  (auto and hybrid honor the pin; intra-chain uses it as the
    // one chain's width.)
    GESMC_CHECK(config.policy != SchedulePolicy::kReplicates || config.chain_threads <= 1,
                "policy = replicates runs single-threaded chains; use policy = "
                "hybrid (or auto) to combine chain-threads = " +
                    std::to_string(config.chain_threads) +
                    " with concurrent replicates");
    // Mirror image: intra-chain *means* K = 1, so a wider max-concurrent
    // pin would be silently ignored.
    GESMC_CHECK(config.policy != SchedulePolicy::kIntraChain || config.max_concurrent <= 1,
                "policy = intra-chain runs one replicate at a time; use policy = "
                "hybrid (or auto) to combine max-concurrent = " +
                    std::to_string(config.max_concurrent) +
                    " with intra-chain parallelism");
}

} // namespace gesmc
