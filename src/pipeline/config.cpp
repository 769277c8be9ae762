#include "pipeline/config.hpp"

#include "core/chain.hpp"
#include "util/check.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <type_traits>
#include <variant>
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

bool parse_bool(const std::string& key, const std::string& value) {
    if (value == "true" || value == "1" || value == "yes" || value == "on") return true;
    if (value == "false" || value == "0" || value == "no" || value == "off") return false;
    throw Error("config key \"" + key + "\": expected true/false, got \"" + value + "\"");
}

} // namespace

std::uint64_t parse_u64(const std::string& what, const std::string& value) {
    std::istringstream is(value);
    std::uint64_t v = 0;
    // istream >> uint64_t silently wraps negative input; reject it up front.
    if (value.find('-') != std::string::npos || !(is >> v) || !is.eof()) {
        throw Error(what + ": expected a non-negative integer, got \"" + value + "\"");
    }
    return v;
}

unsigned parse_unsigned(const std::string& what, const std::string& value) {
    const std::uint64_t v = parse_u64(what, value);
    if (v > std::numeric_limits<unsigned>::max()) {
        throw Error(what + ": value too large, got \"" + value + "\"");
    }
    return static_cast<unsigned>(v);
}

double parse_double(const std::string& what, const std::string& value) {
    std::istringstream is(value);
    double v = 0;
    if (!(is >> v) || !is.eof()) {
        throw Error(what + ": expected a number, got \"" + value + "\"");
    }
    return v;
}

namespace {

template <typename E>
struct EnumName {
    E value;
    const char* name;
};

constexpr EnumName<InputKind> kInputKinds[] = {
    {InputKind::kEdgeList, "edges"},
    {InputKind::kDegreeSequence, "degrees"},
    {InputKind::kGenerator, "generator"},
};
constexpr EnumName<InitMethod> kInitMethods[] = {
    {InitMethod::kHavelHakimi, "havel-hakimi"},
    {InitMethod::kConfigurationModel, "configuration-model"},
};
constexpr EnumName<SchedulePolicy> kSchedulePolicies[] = {
    {SchedulePolicy::kAuto, "auto"},
    {SchedulePolicy::kReplicates, "replicates"},
    {SchedulePolicy::kIntraChain, "intra-chain"},
    {SchedulePolicy::kHybrid, "hybrid"},
};
constexpr EnumName<OutputFormat> kOutputFormats[] = {
    {OutputFormat::kText, "text"},
    {OutputFormat::kBinary, "binary"},
};

constexpr const auto& names_of(InputKind) { return kInputKinds; }
constexpr const auto& names_of(InitMethod) { return kInitMethods; }
constexpr const auto& names_of(SchedulePolicy) { return kSchedulePolicies; }
constexpr const auto& names_of(OutputFormat) { return kOutputFormats; }

template <typename E>
std::string enum_name(E value) {
    for (const EnumName<E>& row : names_of(value)) {
        if (row.value == value) return row.name;
    }
    return "unknown";
}

template <typename E>
E parse_enum(const std::string& key, const std::string& value) {
    std::string expected;
    for (const EnumName<E>& row : names_of(E{})) {
        if (value == row.name) return row.value;
        if (!expected.empty()) expected += '|';
        expected += row.name;
    }
    throw Error("config key \"" + key + "\": expected " + expected + ", got \"" + value +
                "\"");
}

/// The `supersteps` key: a count, or `adaptive` (the count is then unused).
struct SuperstepsField {
    static constexpr const char* kAdaptive = "adaptive";
};

using Field = std::variant<std::string PipelineConfig::*, std::uint64_t PipelineConfig::*,
                           unsigned PipelineConfig::*, double PipelineConfig::*,
                           bool PipelineConfig::*, InputKind PipelineConfig::*,
                           InitMethod PipelineConfig::*, SchedulePolicy PipelineConfig::*,
                           OutputFormat PipelineConfig::*, SuperstepsField>;

struct ConfigKey {
    const char* name;
    Field field;
};

/// Every config key, in the order pipeline_config_to_string renders them.
/// The value type of the field decides how a value parses and renders.
const ConfigKey kConfigKeys[] = {
    {"input", &PipelineConfig::input_path},
    {"input-glob", &PipelineConfig::input_glob},
    {"corpus-manifest", &PipelineConfig::corpus_manifest},
    {"corpus", &PipelineConfig::corpus_spec},
    {"input-kind", &PipelineConfig::input_kind},
    {"init", &PipelineConfig::init},
    {"generator", &PipelineConfig::generator},
    {"gen-n", &PipelineConfig::gen_n},
    {"gen-m", &PipelineConfig::gen_m},
    {"gen-gamma", &PipelineConfig::gen_gamma},
    {"gen-rows", &PipelineConfig::gen_rows},
    {"gen-cols", &PipelineConfig::gen_cols},
    {"gen-degree", &PipelineConfig::gen_degree},
    {"algorithm", &PipelineConfig::algorithm},
    {"supersteps", SuperstepsField{}},
    {"ess-target", &PipelineConfig::ess_target},
    {"mixing-tau", &PipelineConfig::mixing_tau},
    {"min-supersteps", &PipelineConfig::min_supersteps},
    {"max-supersteps", &PipelineConfig::max_supersteps},
    {"check-every", &PipelineConfig::check_every},
    {"pl", &PipelineConfig::pl},
    {"prefetch", &PipelineConfig::prefetch},
    {"small-cutoff", &PipelineConfig::small_graph_cutoff},
    {"replicates", &PipelineConfig::replicates},
    {"seed", &PipelineConfig::seed},
    {"threads", &PipelineConfig::threads},
    {"policy", &PipelineConfig::policy},
    {"chain-threads", &PipelineConfig::chain_threads},
    {"max-concurrent", &PipelineConfig::max_concurrent},
    {"checkpoint-every", &PipelineConfig::checkpoint_every},
    {"resume-from", &PipelineConfig::resume_from},
    {"keep-checkpoints", &PipelineConfig::keep_checkpoints},
    {"output-dir", &PipelineConfig::output_dir},
    {"output-prefix", &PipelineConfig::output_prefix},
    {"output-format", &PipelineConfig::output_format},
    {"report", &PipelineConfig::report_path},
    {"metrics", &PipelineConfig::metrics},
    {"verify", &PipelineConfig::verify},
};

/// `value` as a config value of `key`'s type, parsed into `config`.
void parse_value(PipelineConfig& config, const ConfigKey& key, const std::string& value) {
    const std::string name = key.name;
    const std::string what = "config key \"" + name + "\"";
    std::visit(
        [&](auto field) {
            if constexpr (std::is_same_v<decltype(field), SuperstepsField>) {
                config.adaptive = value == SuperstepsField::kAdaptive;
                if (!config.adaptive) config.supersteps = parse_u64(what, value);
            } else {
                auto& out = config.*field;
                using T = std::remove_reference_t<decltype(out)>;
                if constexpr (std::is_same_v<T, std::string>) {
                    out = value;
                } else if constexpr (std::is_same_v<T, bool>) {
                    out = parse_bool(name, value);
                } else if constexpr (std::is_same_v<T, std::uint64_t>) {
                    out = parse_u64(what, value);
                } else if constexpr (std::is_same_v<T, unsigned>) {
                    out = parse_unsigned(what, value);
                } else if constexpr (std::is_same_v<T, double>) {
                    out = parse_double(what, value);
                } else {
                    out = parse_enum<T>(name, value);
                }
            }
        },
        key.field);
}

/// `key`'s value in `config` as text, or nullopt when it equals the default.
std::optional<std::string> render_value(const PipelineConfig& config, const ConfigKey& key) {
    static const PipelineConfig defaults;
    return std::visit(
        [&](auto field) -> std::optional<std::string> {
            if constexpr (std::is_same_v<decltype(field), SuperstepsField>) {
                if (config.adaptive) return SuperstepsField::kAdaptive;
                if (config.supersteps == defaults.supersteps) return std::nullopt;
                return std::to_string(config.supersteps);
            } else {
                const auto& v = config.*field;
                using T = std::remove_cvref_t<decltype(v)>;
                if (v == defaults.*field) return std::nullopt;
                if constexpr (std::is_same_v<T, std::string>) {
                    return v;
                } else if constexpr (std::is_same_v<T, bool>) {
                    return v ? "true" : "false";
                } else if constexpr (std::is_same_v<T, double>) {
                    std::ostringstream s;
                    s.precision(17); // round-trippable, matching the JSON writer
                    s << v;
                    return s.str();
                } else if constexpr (std::is_enum_v<T>) {
                    return enum_name(v);
                } else {
                    return std::to_string(v);
                }
            }
        },
        key.field);
}

} // namespace

std::string to_string(InputKind kind) { return enum_name(kind); }
std::string to_string(InitMethod method) { return enum_name(method); }
std::string to_string(SchedulePolicy policy) { return enum_name(policy); }
std::string to_string(OutputFormat format) { return enum_name(format); }

void apply_config_entry(PipelineConfig& config, const std::string& raw_key,
                        const std::string& raw_value) {
    const std::string key = trim(raw_key);
    for (const ConfigKey& row : kConfigKeys) {
        if (key == row.name) {
            parse_value(config, row, trim(raw_value));
            return;
        }
    }
    throw Error("unknown config key: \"" + key + "\"");
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
        if (eq == std::string::npos) {
            throw Error("config line " + std::to_string(line_no) +
                        ": expected \"key = value\", got \"" + stripped + "\"");
        }
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
    if (!is.good()) throw Error("cannot open config: " + path);
    return read_pipeline_config(is);
}

PipelineConfig read_pipeline_config_string(const std::string& text) {
    std::istringstream is(text);
    return read_pipeline_config(is);
}

std::string pipeline_config_to_string(const PipelineConfig& config) {
    std::string out;
    for (const ConfigKey& row : kConfigKeys) {
        const std::optional<std::string> value = render_value(config, row);
        if (!value.has_value()) continue;
        if (value->find('\n') != std::string::npos) {
            throw Error(std::string("config key \"") + row.name +
                        "\" cannot be rendered: value contains a newline");
        }
        out += std::string(row.name) + " = " + *value + "\n";
    }
    return out;
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
            if (close == std::string::npos) {
                throw Error("config key \"input\": unterminated quote in \"" + value + "\"");
            }
            token = value.substr(i + 1, close - i - 1);
            i = close + 1;
        } else {
            const std::size_t start = i;
            while (i < value.size() && !is_space(value[i])) ++i;
            token = value.substr(start, i - start);
        }
        if (token.empty()) {
            throw Error("config key \"input\": empty (quoted) path in \"" + value + "\"");
        }
        tokens.push_back(std::move(token));
    }
    return tokens;
}

std::string single_input_path(const PipelineConfig& config) {
    const std::vector<std::string> tokens = split_input_list(config.input_path);
    if (tokens.empty()) return "";
    if (tokens.size() != 1) {
        throw Error("config key \"input\" lists " + std::to_string(tokens.size()) +
                    " paths where a single input is expected");
    }
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
    (void)chain_algorithm_from_string(config.algorithm); // lists the valid names
    validate_input_sources(config);
    if (is_corpus_config(config)) {
        throw Error("this config names a corpus of inputs; expand it with "
                    "plan_corpus — gesmc_sample does so automatically, and "
                    "gesmc_submit --corpus fans it out as per-graph jobs "
                    "(run_pipeline and plain service submission handle single "
                    "graphs only)");
    }
    if (config.replicates == 0) throw Error("replicates must be >= 1");
    if (config.supersteps == 0) throw Error("supersteps must be >= 1");
    if (config.adaptive) {
        if (config.min_supersteps < 1) throw Error("min-supersteps must be >= 1");
        if (config.max_supersteps < config.min_supersteps) {
            throw Error("max-supersteps must be >= min-supersteps");
        }
        if (config.check_every < 1) throw Error("check-every must be >= 1");
        if (!(config.ess_target > 0)) throw Error("ess-target must be > 0");
        if (!(config.mixing_tau >= 0 && config.mixing_tau <= 1)) {
            throw Error("mixing-tau must be in [0, 1]");
        }
    }
    if (!(config.pl > 0 && config.pl < 1)) throw Error("pl must be in (0, 1)");
    if (config.input_kind == InputKind::kGenerator) {
        if (config.generator.empty()) {
            throw Error("input-kind = generator requires the \"generator\" key");
        }
        if (config.generator != "powerlaw" && config.generator != "gnp" &&
            config.generator != "grid" && config.generator != "regular") {
            throw Error("generator must be powerlaw|gnp|grid|regular, got \"" +
                        config.generator + "\"");
        }
    } else if (config.input_path.empty()) {
        throw Error("an \"input\" path is required (or set input-kind = generator)");
    }
    if (config.checkpoint_every != 0 && config.output_dir.empty()) {
        throw Error("checkpoint-every requires an output-dir to hold the checkpoints");
    }
    // policy = replicates *means* T = 1; silently dropping a pinned wider
    // chain-threads would run single-threaded chains behind the user's
    // back.  (auto and hybrid honor the pin; intra-chain uses it as the
    // one chain's width.)
    if (config.policy == SchedulePolicy::kReplicates && config.chain_threads > 1) {
        throw Error("policy = replicates runs single-threaded chains; use policy = "
                    "hybrid (or auto) to combine chain-threads = " +
                    std::to_string(config.chain_threads) + " with concurrent replicates");
    }
    // Mirror image: intra-chain *means* K = 1, so a wider max-concurrent
    // pin would be silently ignored.
    if (config.policy == SchedulePolicy::kIntraChain && config.max_concurrent > 1) {
        throw Error("policy = intra-chain runs one replicate at a time; use policy = "
                    "hybrid (or auto) to combine max-concurrent = " +
                    std::to_string(config.max_concurrent) + " with intra-chain parallelism");
    }
}

} // namespace gesmc
