#include "service/corpus_client.hpp"

#include "pipeline/report.hpp"
#include "service/json.hpp"
#include "util/check.hpp"

#include <cstdint>
#include <limits>

namespace gesmc {

namespace {

const JsonValue& member(const JsonValue& doc, const std::string& key) {
    const JsonValue* value = doc.find(key);
    GESMC_CHECK(value != nullptr, "shard report is missing \"" + key + "\"");
    return *value;
}

double number(const JsonValue& doc, const std::string& key) {
    const JsonValue& value = member(doc, key);
    // The report writer emits null for non-finite doubles (JSON has no
    // NaN/Infinity); map it back so client-side means match local ones.
    if (value.is_null()) return std::numeric_limits<double>::quiet_NaN();
    GESMC_CHECK(value.is_number(), "shard report \"" + key + "\" is not a number");
    return value.number_value;
}

std::uint64_t uint(const JsonValue& doc, const std::string& key) {
    // uint_member is exact for integer-shaped numbers — 64-bit seeds would
    // be rounded by the double path.
    return doc.uint_member(key);
}

} // namespace

CorpusGraphRow corpus_row_from_report_json(const CorpusInput& input,
                                           const std::string& json_text) {
    const JsonValue doc = parse_json(json_text);
    GESMC_CHECK(doc.is_object(), "shard report is not a JSON object");

    // Only the RunReport fields a corpus row reads; corpus_row_from_report
    // aggregates them, as it does for a local shard.
    RunReport report;
    const JsonValue& config = member(doc, "config");
    report.config.seed = uint(config, "seed");
    if (config.find("max_supersteps") != nullptr) {
        report.config.max_supersteps = uint(config, "max_supersteps");
    }
    const JsonValue& graph = member(doc, "input_graph");
    report.input_nodes = uint(graph, "nodes");
    report.input_edges = uint(graph, "edges");
    report.total_seconds = number(doc, "total_seconds");

    const JsonValue& replicates = member(doc, "replicates");
    GESMC_CHECK(replicates.is_array(), "shard report \"replicates\" is not an array");
    for (const JsonValue& r : replicates.array_items) {
        ReplicateReport& rep = report.replicates.emplace_back();
        const JsonValue& stats = member(r, "stats");
        rep.stats.attempted = uint(stats, "attempted");
        rep.stats.accepted = uint(stats, "accepted");
        if (const JsonValue* error = r.find("error"); error != nullptr) {
            GESMC_CHECK(error->is_string(), "shard report replicate error is not a string");
            rep.error = error->string_value;
        }
        if (r.find("realized_supersteps") != nullptr) {
            rep.has_adaptive = true;
            rep.realized_supersteps = uint(r, "realized_supersteps");
        }
        if (const JsonValue* metrics = r.find("metrics"); metrics != nullptr) {
            rep.has_metrics = true;
            rep.triangles = uint(*metrics, "triangles");
            rep.global_clustering = number(*metrics, "global_clustering");
            rep.assortativity = number(*metrics, "assortativity");
            rep.components = uint(*metrics, "components");
        }
    }
    return corpus_row_from_report(input, report);
}

} // namespace gesmc
