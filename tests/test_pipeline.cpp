// Tests for the batch sampling pipeline: extended graph IO (binary format,
// degree-sequence files), config parsing, seed derivation, the replicate
// scheduler, and end-to-end determinism of pipeline runs across schedule
// policies and thread counts.
#include "core/chain.hpp"
#include "gen/configuration_model.hpp"
#include "gen/corpus.hpp"
#include "graph/adjacency.hpp"
#include "graph/degree_sequence.hpp"
#include "graph/io.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/config.hpp"
#include "pipeline/corpus.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/report.hpp"
#include "pipeline/scheduler.hpp"
#include "pipeline/seeds.hpp"
#include "pipeline/shared_executor.hpp"
#include "service/json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <climits>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

namespace gesmc {
namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/// Fresh per-test scratch directory under the gtest temp dir.
fs::path scratch_dir(const std::string& name) {
    const fs::path dir = fs::path(testing::TempDir()) / ("gesmc_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

// ------------------------------------------------------------- binary IO

TEST(BinaryIo, RoundTripsATypicalGraph) {
    const EdgeList g = generate_powerlaw_graph(500, 2.2, 3);
    std::stringstream ss;
    write_edge_list_binary(ss, g);
    const EdgeList back = read_edge_list_binary(ss);
    EXPECT_EQ(back.num_nodes(), g.num_nodes());
    EXPECT_TRUE(back.same_graph(g));
}

TEST(BinaryIo, RoundTripsTheEmptyGraph) {
    const EdgeList empty;
    std::stringstream ss;
    write_edge_list_binary(ss, empty);
    const EdgeList back = read_edge_list_binary(ss);
    EXPECT_EQ(back.num_nodes(), 0u);
    EXPECT_EQ(back.num_edges(), 0u);
}

TEST(BinaryIo, RoundTripsMaxNodeIdEdges) {
    const EdgeList g = EdgeList::from_pairs(
        kMaxNode + 1, {Edge{0, kMaxNode}, Edge{kMaxNode - 1, kMaxNode}});
    std::stringstream ss;
    write_edge_list_binary(ss, g);
    const EdgeList back = read_edge_list_binary(ss);
    EXPECT_EQ(back.num_nodes(), kMaxNode + 1);
    EXPECT_TRUE(back.same_graph(g));
}

TEST(BinaryIo, EncodingIsCanonical) {
    // Two edge lists describing the same graph in different order must
    // produce identical bytes (sorted delta encoding).
    const EdgeList a = EdgeList::from_pairs(4, {Edge{0, 1}, Edge{1, 2}, Edge{2, 3}});
    const EdgeList b = EdgeList::from_pairs(4, {Edge{2, 3}, Edge{0, 1}, Edge{1, 2}});
    std::stringstream sa, sb;
    write_edge_list_binary(sa, a);
    write_edge_list_binary(sb, b);
    EXPECT_EQ(sa.str(), sb.str());
}

TEST(BinaryIo, WritesVersion1BytesExactly) {
    // Pins the GESB graph section: magic, version 1, n = 6, m = 5, then the
    // sorted keys (u << 28 | v) as LEB128 deltas.  Written from the edge
    // list (which sorts) and from the CSR (which walks), at two widths.
    const EdgeList g = EdgeList::from_pairs(
        6, {Edge{3, 4}, Edge{0, 5}, Edge{2, 1}, Edge{0, 1}, Edge{2, 3}});
    const std::string expected("GESB\x01\x06\x05"
                               "\x01\x04"                 // {0,1}, {0,5}
                               "\xfd\xff\xff\x7f"         // {1,2}: 2^28 - 3
                               "\x81\x80\x80\x80\x01"     // {2,3}: 2^28 + 1
                               "\x81\x80\x80\x80\x01",    // {3,4}: 2^28 + 1
                               23);
    std::ostringstream from_list;
    write_edge_list_binary(from_list, g);
    EXPECT_EQ(from_list.str(), expected);
    ThreadPool pool(2);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        std::ostringstream from_csr;
        write_edge_list_binary(from_csr, Adjacency(g, p));
        EXPECT_EQ(from_csr.str(), expected);
    }
    const fs::path dir = scratch_dir("gesb_v1");
    write_edge_list_binary_file((dir / "csr.gesb").string(), Adjacency(g));
    EXPECT_EQ(slurp((dir / "csr.gesb").string()), expected);
}

TEST(BinaryIo, CsrWriterRefusesANonSimpleGraph) {
    EdgeList g = EdgeList::from_pairs(4, {Edge{0, 1}, Edge{1, 2}, Edge{2, 3}});
    g.set_key(2, g.key(0));
    std::ostringstream os;
    EXPECT_THROW(write_edge_list_binary(os, Adjacency(g)), Error);
}

TEST(BinaryIo, IsCompactForSortedKeys) {
    // Delta-varint coding: a sparse graph should cost only a few bytes per
    // edge, far below the 8-byte raw keys.
    const EdgeList g = generate_grid(40, 40);
    std::stringstream ss;
    write_edge_list_binary(ss, g);
    EXPECT_LT(ss.str().size(), g.num_edges() * 6);
}

TEST(BinaryIo, RejectsBadMagicAndTruncation) {
    std::stringstream bad("not a binary edge list");
    EXPECT_THROW(read_edge_list_binary(bad), Error);

    const EdgeList g = generate_grid(4, 4);
    std::stringstream ss;
    write_edge_list_binary(ss, g);
    const std::string full = ss.str();
    std::stringstream truncated(full.substr(0, full.size() / 2));
    EXPECT_THROW(read_edge_list_binary(truncated), Error);
}

TEST(BinaryIo, RejectsMalformedSectionsWithTheirMessages) {
    // One row per check of the graph-section reader; the messages are the
    // ones the per-byte stream reader gave, through the stream and the file
    // entry points alike.
    const auto gesb = [](std::initializer_list<int> tail) {
        std::string s = "GESB";
        for (const int b : tail) s.push_back(static_cast<char>(b));
        return s;
    };
    const struct {
        std::string bytes;
        const char* error; ///< null when accepted
    } table[] = {
        {"GES", "not a GESB binary edge list"},
        {"GESB", "unsupported GESB version: -1"},
        {gesb({'S', 1}), "this GESB file is a chain-state section"},
        {gesb({2, 1, 0}), "unsupported GESB version: 2"},
        {gesb({1, 0x81, 0x80, 0x80, 0x80, 0x01, 0}), "node count exceeds 2^28"},
        {gesb({1, 4, 2, 1}), "binary edge list truncated"},
        {gesb({1, 4, 2, 1, 0}), "binary edge list: duplicate or zero key"},
        {gesb({1, 4, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}),
         "binary edge list: varint overflows 64 bits"},
        {gesb({1, 4, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x81, 0x80}),
         "binary edge list: varint longer than 64 bits"},
        {gesb({1, 4, 2, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}),
         "binary edge list: key overflows 64 bits"},
        {gesb({1, 4, 1, 0x81, 0x80, 0x80, 0x80, 0x01}), "loops are not allowed"},
        {gesb({1, 2, 1, 0x82, 0x80, 0x80, 0x80, 0x01}), "node id out of range"},
        {gesb({1, 4, 1, 1}), nullptr},
    };
    const fs::path dir = scratch_dir("gesb_table");
    const std::string path = (dir / "g.gesb").string();
    for (const auto& row : table) {
        {
            std::ofstream os(path, std::ios::binary);
            os << row.bytes;
        }
        const auto outcome = [](auto&& read) -> std::string {
            try {
                const EdgeList g = read();
                return "accepted " + std::to_string(g.num_nodes()) + " " +
                       std::to_string(g.num_edges());
            } catch (const Error& e) {
                return e.what();
            }
        };
        const std::string from_stream = outcome([&] {
            std::istringstream is(row.bytes);
            return read_edge_list_binary(is);
        });
        const std::string from_file = outcome([&] { return read_edge_list_binary_file(path); });
        for (const std::string& got : {from_stream, from_file}) {
            if (row.error == nullptr) {
                EXPECT_EQ(got, "accepted 4 1");
            } else {
                EXPECT_NE(got.find(row.error), std::string::npos)
                    << "expected: " << row.error << " got: " << got;
            }
        }
    }
}

TEST(BinaryIo, FileSniffingPicksTheRightReader) {
    const fs::path dir = scratch_dir("sniff");
    const EdgeList g = generate_grid(6, 7);
    const std::string text_path = (dir / "g.txt").string();
    const std::string bin_path = (dir / "g.gesb").string();
    write_edge_list_file(text_path, g);
    write_edge_list_binary_file(bin_path, g);
    EXPECT_TRUE(read_any_edge_list_file(text_path).same_graph(g));
    EXPECT_TRUE(read_any_edge_list_file(bin_path).same_graph(g));
}

TEST(TextIo, RoundTripsThroughAFile) {
    const fs::path dir = scratch_dir("text_roundtrip");
    const EdgeList g = generate_powerlaw_graph(300, 2.5, 9);
    const std::string path = (dir / "g.txt").string();
    write_edge_list_file(path, g);
    const EdgeList back = read_edge_list_file(path);
    EXPECT_EQ(back.num_nodes(), g.num_nodes());
    EXPECT_TRUE(back.same_graph(g));
}

TEST(TextIo, RoundTripsTheEmptyGraph) {
    std::stringstream ss;
    write_edge_list(ss, EdgeList{});
    const EdgeList back = read_edge_list(ss);
    EXPECT_EQ(back.num_nodes(), 0u);
    EXPECT_EQ(back.num_edges(), 0u);
}

// ------------------------------------------------------- degree sequences

TEST(DegreeSequenceIo, RoundTrips) {
    const DegreeSequence seq({3, 3, 2, 2, 2, 1, 1});
    std::stringstream ss;
    write_degree_sequence(ss, seq);
    const DegreeSequence back = read_degree_sequence(ss);
    EXPECT_EQ(back.degrees(), seq.degrees());
}

TEST(DegreeSequenceIo, AcceptsCommentsAndMultiplePerLine) {
    std::stringstream ss("# a comment\n3 3 2\n% another\n2 2\n1 1\n");
    const DegreeSequence seq = read_degree_sequence(ss);
    EXPECT_EQ(seq.degrees(), (std::vector<std::uint32_t>{3, 3, 2, 2, 2, 1, 1}));
}

TEST(DegreeSequenceIo, RejectsMalformedLines) {
    std::stringstream ss("3 two 1\n");
    EXPECT_THROW(read_degree_sequence(ss), Error);
}

TEST(DegreeSequenceIo, AcceptsAndRejectsWhatTheStreamRulesDo) {
    // Each line is read as `istringstream >> uint64_t` reads it: a sign is
    // allowed ('-' wraps), blanks include tabs and '\r', no separator is
    // needed before the next number, and a read that fails only at the end
    // of the line adds nothing.  Outcomes are the stream reader's.
    const struct {
        std::string text;
        std::vector<std::uint32_t> degrees; ///< when accepted
        const char* error;                  ///< null when accepted
    } table[] = {
        {"3\n", {3}, nullptr},
        {"+3\n", {3}, nullptr},
        {"3\t4\n", {3, 4}, nullptr},
        {"3\r\n1\r\n", {3, 1}, nullptr},
        {"\v3\f\n", {3}, nullptr},
        {"007\n", {7}, nullptr},
        {"1\n2", {1, 2}, nullptr},
        {"3+4\n", {3, 4}, nullptr},
        {"-0\n", {0}, nullptr},
        {"3 +\n", {3}, nullptr},
        {"99999999999999999999\n", {}, nullptr},
        {"-18446744073709551615\n", {1}, nullptr},
        {"268435455\n", {268435455}, nullptr},
        {"# nodes 3\n% c\n\n   \n1 1\n", {1, 1}, nullptr},
        {"", {}, nullptr},
        {"-1\n", {}, "degree exceeds max node count"},
        {"3-4\n", {}, "degree exceeds max node count"},
        {"268435456\n", {}, "degree exceeds max node count"},
        {" # x\n", {}, "malformed degree line:  # x"},
        {"3 3x\n", {}, "malformed degree line: 3 3x"},
        {"0x3\n", {}, "malformed degree line: 0x3"},
        {"3,3\n", {}, "malformed degree line: 3,3"},
        {"3.5\n", {}, "malformed degree line: 3.5"},
        {"+ 3\n", {}, "malformed degree line: + 3"},
        {"--3\n", {}, "malformed degree line: --3"},
        {"99999999999999999999 3\n", {}, "malformed degree line: 99999999999999999999 3"},
        {std::string("3\0 4\n", 5), {}, "malformed degree line: 3"},
    };
    const fs::path dir = scratch_dir("degree_table");
    for (const auto& row : table) {
        const std::string path = (dir / "degrees.txt").string();
        {
            std::ofstream os(path, std::ios::binary);
            os << row.text;
        }
        const auto outcome = [&](auto&& read) -> std::string {
            try {
                const DegreeSequence seq = read();
                return seq.degrees() == row.degrees ? "as expected" : "other degrees";
            } catch (const Error& e) {
                return e.what();
            }
        };
        const std::string from_stream = outcome([&] {
            std::istringstream is(row.text);
            return read_degree_sequence(is);
        });
        const std::string from_file = outcome([&] { return read_degree_sequence_file(path); });
        for (const std::string& got : {from_stream, from_file}) {
            if (row.error == nullptr) {
                EXPECT_EQ(got, "as expected") << "input: " << row.text;
            } else {
                EXPECT_EQ(got, row.error) << "input: " << row.text;
            }
        }
    }
}

// -------------------------------------------------- configuration repair

TEST(ConfigurationModelRepaired, RealizesTheExactDegreeSequence) {
    // Skewed sequence: the raw pairing virtually always needs repair.
    const DegreeSequence seq = degree_sequence_of(generate_powerlaw_graph(400, 2.0, 5));
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        const EdgeList g = configuration_model_repaired(seq, seed);
        EXPECT_TRUE(g.is_simple());
        EXPECT_EQ(g.degrees(), seq.degrees());
    }
}

// ----------------------------------------------------------------- config

TEST(PipelineConfig, ParsesAFullFile) {
    std::stringstream ss(R"(# comment
input       = graphs/a.txt
input-kind  = edges
algorithm   = seq-global-es
supersteps  = 7
replicates  = 3
seed        = 99
threads     = 2
policy      = intra-chain
output-dir  = out
output-format = binary
report      = out/r.json
metrics     = false
)");
    const PipelineConfig c = read_pipeline_config(ss);
    EXPECT_EQ(c.input_path, "graphs/a.txt");
    EXPECT_EQ(c.algorithm, "seq-global-es");
    EXPECT_EQ(c.supersteps, 7u);
    EXPECT_EQ(c.replicates, 3u);
    EXPECT_EQ(c.seed, 99u);
    EXPECT_EQ(c.threads, 2u);
    EXPECT_EQ(c.policy, SchedulePolicy::kIntraChain);
    EXPECT_EQ(c.output_dir, "out");
    EXPECT_EQ(c.output_format, OutputFormat::kBinary);
    EXPECT_EQ(c.report_path, "out/r.json");
    EXPECT_FALSE(c.metrics);
}

TEST(PipelineConfig, RejectsUnknownKeysAndBadValues) {
    PipelineConfig c;
    EXPECT_THROW(apply_config_entry(c, "no-such-key", "1"), Error);
    EXPECT_THROW(apply_config_entry(c, "replicates", "many"), Error);
    EXPECT_THROW(apply_config_entry(c, "policy", "sideways"), Error);
    EXPECT_THROW(apply_config_entry(c, "prefetch", "maybe"), Error);
    EXPECT_THROW(apply_config_entry(c, "edge-set-backend", "waitfree"), Error);
}

TEST(PipelineConfig, InputErrorsCarryTheMessageAlone) {
    // Checks on outside input throw Error with the message alone; the
    // GESMC_CHECK expression and source path are for internal invariants.
    const auto error_of = [](auto&& fn) -> std::string {
        try {
            fn();
        } catch (const Error& e) {
            return e.what();
        }
        return "accepted";
    };
    PipelineConfig c;
    c.input_kind = InputKind::kGenerator;
    c.generator = "gnp";
    c.replicates = 0;
    EXPECT_EQ(error_of([&] { validate(c); }), "replicates must be >= 1");
    EXPECT_EQ(error_of([] { (void)read_pipeline_config_string("replicates 4\n"); }),
              "config line 1: expected \"key = value\", got \"replicates 4\"");
    c.replicates = 1;
    c.algorithm = "naive-par-es";
    const std::string refused = error_of([&] { validate(c); });
    EXPECT_EQ(refused.rfind("unknown chain algorithm: \"naive-par-es\" (expected seq-es | "
                            "seq-global-es | par-es | par-global-es | adj-list-es)",
                            0),
              0u)
        << refused;
    // The corpus planner and the service's JSON accessors check their
    // input the same way.
    PipelineConfig corpus;
    corpus.corpus_spec = "gnp n=10 m=5 count=0";
    corpus.output_dir = scratch_dir("message_alone").string();
    EXPECT_EQ(error_of([&] { (void)plan_corpus(corpus); }),
              "corpus spec \"gnp n=10 m=5 count=0\": count must be >= 1");
    EXPECT_EQ(error_of([] { (void)parse_json("{\"a\": 1}").string_member("b"); }),
              "JSON: missing member \"b\"");
}

TEST(PipelineConfig, NumericParsersAcceptOnlyOneNumberInRange) {
    // The config keys and the tools' numeric flags share these parsers:
    // all of the value must be the number, and the error names the flag.
    struct Case {
        std::string value;
        bool u64_ok, unsigned_ok, double_ok;
    };
    const Case cases[] = {
        {"abc", false, false, false},
        {"3x", false, false, false},
        {"-1", false, false, true},
        {"", false, false, false},
        {"18446744073709551616", false, false, true},
        {"18446744073709551615", true, false, true},
        {"4294967296", true, false, true},
        {"4294967295", true, true, true},
        {"7", true, true, true},
        {"0.25", false, false, true},
    };
    const auto accepts = [](const auto& parse) {
        try {
            (void)parse();
            return true;
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("--flag"), std::string::npos) << e.what();
            return false;
        }
    };
    for (const Case& c : cases) {
        EXPECT_EQ(accepts([&] { return parse_u64("--flag", c.value); }), c.u64_ok) << c.value;
        EXPECT_EQ(accepts([&] { return parse_unsigned("--flag", c.value); }), c.unsigned_ok)
            << c.value;
        EXPECT_EQ(accepts([&] { return parse_double("--flag", c.value); }), c.double_ok)
            << c.value;
    }
    EXPECT_EQ(parse_u64("--flag", "18446744073709551615"), UINT64_MAX);
    EXPECT_EQ(parse_unsigned("--flag", "4294967295"), UINT_MAX);
    EXPECT_EQ(parse_double("--flag", "0.25"), 0.25);
}

TEST(PipelineConfig, EdgeSetBackendKeyAcceptsOnlyLocked) {
    // One-release compatibility for the removed backend knob: "locked" is
    // a no-op that is never written back; any other value is an error that
    // says the lock-free backend was removed.
    PipelineConfig c;
    apply_config_entry(c, "edge-set-backend", "locked");
    EXPECT_EQ(pipeline_config_to_string(c), pipeline_config_to_string(PipelineConfig{}));
    try {
        apply_config_entry(c, "edge-set-backend", "lockfree");
        FAIL() << "lockfree was accepted";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("lock-free backend was removed"),
                  std::string::npos)
            << e.what();
    }
}

TEST(PipelineConfig, ValidateCatchesContradictions) {
    PipelineConfig c; // no input at all
    EXPECT_THROW(validate(c), Error);
    c.input_kind = InputKind::kGenerator;
    EXPECT_THROW(validate(c), Error); // generator kind without generator name
    c.generator = "powerlaw";
    EXPECT_NO_THROW(validate(c));
    // replicates means T = 1; a wider chain-threads pin is a contradiction
    // (hybrid/auto are the spellings that honor it).
    c.policy = SchedulePolicy::kReplicates;
    c.chain_threads = 4;
    EXPECT_THROW(validate(c), Error);
    c.policy = SchedulePolicy::kHybrid;
    EXPECT_NO_THROW(validate(c));
    // ... and intra-chain means K = 1: a wider max-concurrent contradicts.
    c.chain_threads = 0;
    c.policy = SchedulePolicy::kIntraChain;
    c.max_concurrent = 4;
    EXPECT_THROW(validate(c), Error);
    c.policy = SchedulePolicy::kHybrid;
    EXPECT_NO_THROW(validate(c));
    c.max_concurrent = 0;
    c.replicates = 0;
    EXPECT_THROW(validate(c), Error);
}

TEST(PipelineConfig, ParseErrorsCarryTheLineNumberAndKey) {
    std::stringstream bad("replicates = 4\n\nsupersteps = nope\n");
    try {
        read_pipeline_config(bad);
        FAIL() << "expected Error";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("config line 3"), std::string::npos) << what;
        EXPECT_NE(what.find("supersteps"), std::string::npos) << what;
    }
    // The string entry point (service submissions) reports the same way.
    try {
        read_pipeline_config_string("seed = 1\nno-such-key = 2\n");
        FAIL() << "expected Error";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("config line 2"), std::string::npos) << what;
        EXPECT_NE(what.find("no-such-key"), std::string::npos) << what;
    }
}

TEST(PipelineConfig, RendersToParseableText) {
    PipelineConfig c;
    c.input_path = "graphs/a.txt";
    c.algorithm = "seq-global-es";
    c.supersteps = 7;
    c.replicates = 3;
    c.seed = 99;
    c.threads = 2;
    c.policy = SchedulePolicy::kHybrid;
    c.chain_threads = 2;
    c.max_concurrent = 1;
    c.pl = 0.25;
    c.prefetch = false;
    c.checkpoint_every = 5;
    c.keep_checkpoints = true;
    c.resume_from = "prev";
    c.output_dir = "out";
    c.output_prefix = "sample";
    c.output_format = OutputFormat::kBinary;
    c.report_path = "out/r.json";
    c.metrics = false;

    const std::string text = pipeline_config_to_string(c);
    const PipelineConfig back = read_pipeline_config_string(text);
    // Rendering is a fixed point through a parse round-trip...
    EXPECT_EQ(pipeline_config_to_string(back), text);
    // ... and the round-tripped config is field-equal.
    EXPECT_EQ(back.input_path, c.input_path);
    EXPECT_EQ(back.algorithm, c.algorithm);
    EXPECT_EQ(back.supersteps, c.supersteps);
    EXPECT_EQ(back.replicates, c.replicates);
    EXPECT_EQ(back.seed, c.seed);
    EXPECT_EQ(back.threads, c.threads);
    EXPECT_EQ(back.policy, c.policy);
    EXPECT_EQ(back.chain_threads, c.chain_threads);
    EXPECT_EQ(back.max_concurrent, c.max_concurrent);
    EXPECT_EQ(back.pl, c.pl);
    EXPECT_EQ(back.prefetch, c.prefetch);
    EXPECT_EQ(back.checkpoint_every, c.checkpoint_every);
    EXPECT_EQ(back.keep_checkpoints, c.keep_checkpoints);
    EXPECT_EQ(back.resume_from, c.resume_from);
    EXPECT_EQ(back.output_dir, c.output_dir);
    EXPECT_EQ(back.output_prefix, c.output_prefix);
    EXPECT_EQ(back.output_format, c.output_format);
    EXPECT_EQ(back.report_path, c.report_path);
    EXPECT_EQ(back.metrics, c.metrics);
    // A default config renders to nothing at all.
    EXPECT_EQ(pipeline_config_to_string(PipelineConfig{}), "");
}

// ------------------------------------------------------------------ seeds

TEST(ReplicateSeeds, DeterministicAndDistinct) {
    std::set<std::uint64_t> seen;
    for (std::uint64_t r = 0; r < 1000; ++r) {
        const std::uint64_t s = replicate_seed(42, r);
        EXPECT_EQ(s, replicate_seed(42, r));
        seen.insert(s);
    }
    EXPECT_EQ(seen.size(), 1000u);                      // no collisions
    EXPECT_NE(replicate_seed(42, 0), replicate_seed(43, 0)); // master matters
}

// -------------------------------------------------------------- scheduler

TEST(Scheduler, ResolvesAutoByReplicateCount) {
    const auto policy = [](SchedulePolicy requested, std::uint64_t replicates) {
        return resolve_schedule({requested, 0, 0}, replicates, 4).policy;
    };
    EXPECT_EQ(policy(SchedulePolicy::kAuto, 8), SchedulePolicy::kReplicates);
    EXPECT_EQ(policy(SchedulePolicy::kAuto, 2), SchedulePolicy::kIntraChain);
    EXPECT_EQ(policy(SchedulePolicy::kReplicates, 2), SchedulePolicy::kReplicates);
    EXPECT_EQ(policy(SchedulePolicy::kIntraChain, 100), SchedulePolicy::kIntraChain);
}

TEST(Scheduler, ResolvesHybridPoints) {
    // Explicit hybrid with a pinned T: K = ⌊P/T⌋.
    ScheduleRequest request;
    request.policy = SchedulePolicy::kHybrid;
    request.chain_threads = 2;
    ResolvedSchedule s = resolve_schedule(request, 16, 8);
    EXPECT_EQ(s.policy, SchedulePolicy::kHybrid);
    EXPECT_EQ(s.chain_threads, 2u);
    EXPECT_EQ(s.max_concurrent, 4u);

    // max-concurrent caps K below ⌊P/T⌋.
    request.max_concurrent = 3;
    s = resolve_schedule(request, 16, 8);
    EXPECT_EQ(s.max_concurrent, 3u);

    // K never exceeds the replicate count.
    request.max_concurrent = 0;
    s = resolve_schedule(request, 2, 8);
    EXPECT_EQ(s.max_concurrent, 2u);

    // Unpinned hybrid spreads the budget: R = 2 on P = 8 → 2 x 4.
    request.chain_threads = 0;
    s = resolve_schedule(request, 2, 8);
    EXPECT_EQ(s.chain_threads, 4u);
    EXPECT_EQ(s.max_concurrent, 2u);

    // Non-dividing case: R = 3 on P = 8 must run all three concurrently
    // (3 x 2, two threads idle), not serialize one behind a wider pair.
    s = resolve_schedule(request, 3, 8);
    EXPECT_EQ(s.chain_threads, 2u);
    EXPECT_EQ(s.max_concurrent, 3u);

    // T is clamped to the budget.
    request.chain_threads = 99;
    s = resolve_schedule(request, 4, 8);
    EXPECT_EQ(s.chain_threads, 8u);
    EXPECT_EQ(s.max_concurrent, 1u);
}

TEST(Scheduler, AutoIsBudgetAwareWhenChainThreadsIsPinned) {
    // The pre-budget bug: kAuto compared R against the full pool width even
    // when chain-threads was pinned.  Now the pin selects the realizing
    // policy: T = 2 on P = 8 must give hybrid with K = 4 even for R >= P.
    ScheduleRequest request;
    request.policy = SchedulePolicy::kAuto;
    request.chain_threads = 2;
    ResolvedSchedule s = resolve_schedule(request, 16, 8);
    EXPECT_EQ(s.policy, SchedulePolicy::kHybrid);
    EXPECT_EQ(s.chain_threads, 2u);
    EXPECT_EQ(s.max_concurrent, 4u);

    request.chain_threads = 1;
    EXPECT_EQ(resolve_schedule(request, 2, 8).policy, SchedulePolicy::kReplicates);
    request.chain_threads = 8;
    s = resolve_schedule(request, 16, 8);
    EXPECT_EQ(s.policy, SchedulePolicy::kIntraChain);
    EXPECT_EQ(s.max_concurrent, 1u);

    // Unpinned auto keeps the classic binary choice, with K·T <= P.
    request.chain_threads = 0;
    s = resolve_schedule(request, 16, 8);
    EXPECT_EQ(s.policy, SchedulePolicy::kReplicates);
    EXPECT_EQ(s.chain_threads, 1u);
    EXPECT_EQ(s.max_concurrent, 8u);
    s = resolve_schedule(request, 2, 8);
    EXPECT_EQ(s.policy, SchedulePolicy::kIntraChain);
    EXPECT_EQ(s.chain_threads, 8u);
    EXPECT_EQ(s.max_concurrent, 1u);
}

TEST(Scheduler, SharedExecutorRunsEveryReplicateOnceUnderEveryPolicy) {
    struct Point {
        ScheduleRequest request;
        unsigned expect_threads;
        bool expect_pool;
        bool serial; ///< K = 1: one replicate at a time, in index order
    };
    const Point points[] = {
        {{SchedulePolicy::kReplicates, 0, 0}, 1, false, false},
        {{SchedulePolicy::kIntraChain, 0, 0}, 4, true, true},
        {{SchedulePolicy::kHybrid, 2, 0}, 2, true, false},
        {{SchedulePolicy::kHybrid, 2, 1}, 2, true, true}, // K capped to 1
    };
    for (const Point& point : points) {
        SharedExecutor executor(4);
        constexpr std::uint64_t kReplicates = 37;
        std::vector<std::atomic<int>> hits(kReplicates);
        std::atomic<int> inflight{0};
        std::atomic<std::uint64_t> started{0};
        executor.run(kReplicates, point.request, [&](const ReplicateSlot& slot) {
            hits[slot.index].fetch_add(1);
            const int overlapping = inflight.fetch_add(1);
            if (point.serial) {
                EXPECT_EQ(overlapping, 0);
                EXPECT_EQ(slot.index, started.fetch_add(1));
            }
            EXPECT_EQ(slot.chain_threads, point.expect_threads);
            if (point.expect_pool) {
                EXPECT_NE(slot.shared_pool, nullptr);
                if (slot.shared_pool != nullptr) {
                    EXPECT_EQ(slot.shared_pool->num_threads(), point.expect_threads);
                }
            } else {
                EXPECT_EQ(slot.shared_pool, nullptr);
            }
            inflight.fetch_sub(1);
        });
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
        EXPECT_EQ(executor.stats().leased, 0u); // every lease returned
    }
}

// ----------------------------------------------------------- shared pools

TEST(SharedPool, ChainsProduceIdenticalGraphsOnBorrowedPools) {
    const EdgeList initial = generate_powerlaw_graph(600, 2.2, 11);
    for (const ChainAlgorithm algo :
         {ChainAlgorithm::kSeqGlobalES, ChainAlgorithm::kParGlobalES,
          ChainAlgorithm::kParES}) {
        ChainConfig own;
        own.seed = 5;
        own.threads = 2;
        auto owned = make_chain(algo, initial, own);
        owned->run_supersteps(3);

        ThreadPool pool(2);
        ChainConfig borrowed = own;
        borrowed.shared_pool = &pool;
        auto borrowing = make_chain(algo, initial, borrowed);
        borrowing->run_supersteps(3);

        EXPECT_TRUE(owned->graph().same_graph(borrowing->graph()))
            << to_string(algo);
    }
}

// ---------------------------------------------------------- chain factory

TEST(ChainFactory, NamesRoundTrip) {
    for (const auto& [name, algo] : chain_algorithm_names()) {
        EXPECT_EQ(chain_algorithm_from_string(name), algo);
        EXPECT_EQ(chain_algorithm_name(algo), name);
    }
    EXPECT_THROW((void)chain_algorithm_from_string("quantum-es"), Error);
}

// ------------------------------------------------------------ end to end

PipelineConfig small_run_config(const std::string& algo, const fs::path& out_dir) {
    PipelineConfig c;
    c.input_kind = InputKind::kGenerator;
    c.generator = "powerlaw";
    c.gen_n = 400;
    c.gen_gamma = 2.2;
    c.algorithm = algo;
    c.supersteps = 3;
    c.replicates = 8;
    c.seed = 1234;
    c.metrics = false;
    c.output_dir = out_dir.string();
    return c;
}

TEST(Pipeline, SameConfigAndSeedGiveByteIdenticalOutputs) {
    // The determinism contract: outputs depend only on (config, seed) — not
    // on the schedule policy, the thread budget, or the (K, T) point the
    // run resolves to.  Every exact chain is compared across kReplicates,
    // kIntraChain, and two distinct hybrid (K, T) configurations.
    struct Variant {
        const char* tag;
        SchedulePolicy policy;
        unsigned threads;
        unsigned chain_threads;
        unsigned max_concurrent;
    };
    const Variant variants[] = {
        {"repl", SchedulePolicy::kReplicates, 4, 0, 0},  // 4 x 1
        {"intra", SchedulePolicy::kIntraChain, 2, 0, 0}, // 1 x 2
        {"hyb22", SchedulePolicy::kHybrid, 4, 2, 0},     // 2 x 2
        {"hyb23", SchedulePolicy::kHybrid, 6, 3, 2},     // 2 x 3
    };
    for (const std::string algo : {"seq-es", "par-es", "seq-global-es", "par-global-es"}) {
        std::vector<RunReport> reports;
        for (const Variant& v : variants) {
            const fs::path dir = scratch_dir("det_" + std::string(v.tag) + "_" + algo);
            PipelineConfig c = small_run_config(algo, dir);
            c.policy = v.policy;
            c.threads = v.threads;
            c.chain_threads = v.chain_threads;
            c.max_concurrent = v.max_concurrent;
            reports.push_back(run_pipeline(c));
            ASSERT_TRUE(all_succeeded(reports.back())) << algo << " " << v.tag;
            ASSERT_EQ(reports.back().replicates.size(), 8u);
        }
        // The hybrid variants really resolved to hybrid (K, T) points.
        EXPECT_EQ(reports[2].resolved_policy, SchedulePolicy::kHybrid);
        EXPECT_EQ(reports[2].chain_threads, 2u);
        EXPECT_EQ(reports[2].max_concurrent, 2u);
        EXPECT_EQ(reports[3].chain_threads, 3u);
        EXPECT_EQ(reports[3].max_concurrent, 2u);

        const RunReport& ra = reports.front();
        for (std::size_t v = 1; v < reports.size(); ++v) {
            for (std::uint64_t r = 0; r < 8; ++r) {
                EXPECT_FALSE(ra.replicates[r].output_path.empty());
                EXPECT_EQ(slurp(ra.replicates[r].output_path),
                          slurp(reports[v].replicates[r].output_path))
                    << algo << " variant " << variants[v].tag << " replicate " << r;
            }
        }
        // Replicates must be distinct samples, not copies of each other.
        EXPECT_NE(slurp(ra.replicates[0].output_path),
                  slurp(ra.replicates[1].output_path))
            << algo;
    }
}

TEST(Pipeline, StructuralMetricsDoNotDependOnChainThreads) {
    // The finish stage runs on the replicate's leased threads; its metrics
    // must not depend on how many there are.  Bitwise, per replicate.
    struct Variant {
        const char* tag;
        SchedulePolicy policy;
        unsigned threads;
        unsigned chain_threads;
    };
    const Variant variants[] = {
        {"intra1", SchedulePolicy::kIntraChain, 1, 0},
        {"intra2", SchedulePolicy::kIntraChain, 2, 0},
        {"intra4", SchedulePolicy::kIntraChain, 4, 0},
        {"hyb22", SchedulePolicy::kHybrid, 4, 2},
    };
    std::vector<RunReport> reports;
    for (const Variant& v : variants) {
        PipelineConfig c =
            small_run_config("par-global-es", scratch_dir(std::string("metrics_") + v.tag));
        c.gen_n = 3000;
        c.gen_gamma = 2.1;
        c.replicates = 4;
        c.metrics = true;
        c.output_format = OutputFormat::kBinary;
        c.policy = v.policy;
        c.threads = v.threads;
        c.chain_threads = v.chain_threads;
        reports.push_back(run_pipeline(c));
        ASSERT_TRUE(all_succeeded(reports.back())) << v.tag;
        EXPECT_EQ(reports.back().chain_threads, v.chain_threads == 0 ? v.threads : v.chain_threads)
            << v.tag;
    }
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    for (std::size_t v = 1; v < reports.size(); ++v) {
        for (std::uint64_t r = 0; r < 4; ++r) {
            const ReplicateReport& a = reports[0].replicates[r];
            const ReplicateReport& b = reports[v].replicates[r];
            ASSERT_TRUE(a.has_metrics && b.has_metrics);
            EXPECT_EQ(a.triangles, b.triangles) << variants[v].tag << " replicate " << r;
            EXPECT_EQ(bits(a.global_clustering), bits(b.global_clustering))
                << variants[v].tag << " replicate " << r;
            EXPECT_EQ(bits(a.assortativity), bits(b.assortativity))
                << variants[v].tag << " replicate " << r;
            EXPECT_EQ(a.components, b.components) << variants[v].tag << " replicate " << r;
            EXPECT_EQ(slurp(a.output_path), slurp(b.output_path))
                << variants[v].tag << " replicate " << r;
        }
    }
    EXPECT_GT(reports[0].replicates[0].triangles, 0u);
}

TEST(Pipeline, BinaryOutputsRoundTripAndPreserveDegrees) {
    const fs::path dir = scratch_dir("binary_outputs");
    PipelineConfig c = small_run_config("par-global-es", dir);
    c.output_format = OutputFormat::kBinary;
    c.replicates = 4;
    const RunReport report = run_pipeline(c);
    ASSERT_TRUE(all_succeeded(report));

    const EdgeList input = materialize_input(c);
    for (const ReplicateReport& r : report.replicates) {
        const EdgeList g = read_any_edge_list_file(r.output_path);
        EXPECT_TRUE(g.is_simple());
        EXPECT_EQ(g.degrees(), input.degrees());
        EXPECT_FALSE(g.same_graph(input)); // it actually randomized
    }
}

TEST(Pipeline, DegreeSequenceInputsWorkWithBothInitMethods) {
    const fs::path dir = scratch_dir("degree_input");
    const DegreeSequence seq = degree_sequence_of(generate_powerlaw_graph(300, 2.2, 17));
    const std::string deg_path = (dir / "degs.txt").string();
    write_degree_sequence_file(deg_path, seq);

    for (const InitMethod init :
         {InitMethod::kHavelHakimi, InitMethod::kConfigurationModel}) {
        PipelineConfig c;
        c.input_path = deg_path;
        c.input_kind = InputKind::kDegreeSequence;
        c.init = init;
        c.algorithm = "seq-global-es";
        c.supersteps = 3;
        c.replicates = 3;
        c.seed = 5;
        c.metrics = false;
        const RunReport report = run_pipeline(c);
        ASSERT_TRUE(all_succeeded(report)) << to_string(init);
        EXPECT_EQ(report.input_edges, seq.num_edges());
    }
}

TEST(Pipeline, ReportIsWrittenAndContainsPerReplicateStats) {
    const fs::path dir = scratch_dir("report");
    PipelineConfig c = small_run_config("par-global-es", dir);
    c.replicates = 3;
    c.metrics = true;
    c.report_path = (dir / "report.json").string();
    const RunReport report = run_pipeline(c);
    ASSERT_TRUE(all_succeeded(report));

    const std::string json = slurp(c.report_path);
    EXPECT_NE(json.find("\"resolved_policy\""), std::string::npos);
    EXPECT_NE(json.find("\"resolved_chain_threads\""), std::string::npos);
    EXPECT_NE(json.find("\"resolved_max_concurrent\""), std::string::npos);
    EXPECT_NE(json.find("\"switches_per_second\""), std::string::npos);
    EXPECT_NE(json.find("\"replicates\""), std::string::npos);
    EXPECT_NE(json.find("\"metrics\""), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));

    // Every replicate ran the requested number of supersteps.
    for (const ReplicateReport& r : report.replicates) {
        EXPECT_EQ(r.stats.supersteps, c.supersteps);
        EXPECT_GT(r.stats.attempted, 0u);
        EXPECT_TRUE(r.has_metrics);
    }
}

TEST(Pipeline, RejectsInputsTooSmallToSwitch) {
    const fs::path dir = scratch_dir("failure");
    const std::string path = (dir / "tiny.txt").string();
    write_edge_list_file(path, EdgeList::from_pairs(2, {Edge{0, 1}}));
    PipelineConfig c;
    c.input_path = path;
    c.replicates = 2;
    EXPECT_THROW(run_pipeline(c), Error); // rejected up front, before replicates
}

// ------------------------------------------- concurrent observer delivery

TEST(RunObserverConcurrency, ReplicateParallelDeliveryIsOrderedPerReplicate) {
    // Stress the RunObserver contract under the replicate-parallel policy:
    // callbacks fire concurrently from pool threads, but *per replicate*
    // the stream must still read like a single chain's life — superstep
    // counters strictly increasing, checkpoints at their boundaries, and
    // exactly one on_replicate_done as the final event.  Run under ASan in
    // CI, this also shakes out data races in the delivery path.
    struct Event {
        enum Kind { kSuperstep, kCheckpoint, kDone } kind;
        std::uint64_t superstep;
    };

    class Recorder final : public RunObserver {
    public:
        void on_superstep(std::uint64_t replicate, const Chain& chain) override {
            const std::lock_guard<std::mutex> lock(mutex_);
            events_[replicate].push_back({Event::kSuperstep, chain.stats().supersteps});
            threads_.insert(std::this_thread::get_id());
        }
        void on_checkpoint(std::uint64_t replicate, const ChainState& state,
                           const std::string&) override {
            const std::lock_guard<std::mutex> lock(mutex_);
            events_[replicate].push_back({Event::kCheckpoint, state.stats.supersteps});
        }
        void on_replicate_done(const ReplicateReport& r) override {
            const std::lock_guard<std::mutex> lock(mutex_);
            events_[r.index].push_back({Event::kDone, 0});
        }

        std::mutex mutex_;
        std::map<std::uint64_t, std::vector<Event>> events_;
        std::set<std::thread::id> threads_;
    };

    const fs::path dir = scratch_dir("observer_stress");
    PipelineConfig c = small_run_config("par-global-es", dir);
    c.replicates = 16;
    c.supersteps = 6;
    c.threads = 4;
    c.policy = SchedulePolicy::kReplicates;
    c.checkpoint_every = 2;

    Recorder recorder;
    const RunReport report = run_pipeline(c, nullptr, &recorder);
    ASSERT_TRUE(all_succeeded(report));

    ASSERT_EQ(recorder.events_.size(), c.replicates);
    for (const auto& [replicate, events] : recorder.events_) {
        // 6 supersteps + 3 checkpoints (the last the finished marker) + done.
        ASSERT_EQ(events.size(), c.supersteps + 3 + 1) << "replicate " << replicate;

        std::uint64_t last_superstep = 0;
        std::uint64_t supersteps = 0, checkpoints = 0, done = 0;
        for (std::size_t i = 0; i < events.size(); ++i) {
            const Event& e = events[i];
            switch (e.kind) {
            case Event::kSuperstep:
                ++supersteps;
                EXPECT_EQ(e.superstep, last_superstep + 1)
                    << "superstep monotonicity, replicate " << replicate;
                last_superstep = e.superstep;
                break;
            case Event::kCheckpoint:
                ++checkpoints;
                // A checkpoint snapshots the state *at* the last superstep.
                EXPECT_EQ(e.superstep, last_superstep)
                    << "checkpoint boundary, replicate " << replicate;
                EXPECT_EQ(e.superstep % c.checkpoint_every, 0u);
                break;
            case Event::kDone:
                ++done;
                EXPECT_EQ(i, events.size() - 1)
                    << "on_replicate_done must be last, replicate " << replicate;
                break;
            }
        }
        EXPECT_EQ(supersteps, c.supersteps);
        EXPECT_EQ(checkpoints, 3u);
        EXPECT_EQ(done, 1u);
        EXPECT_EQ(last_superstep, c.supersteps);
    }
}

// ------------------------------------------------------------ corpus runs

TEST(CorpusConfig, DetectsCorpusConfigs) {
    PipelineConfig c;
    c.input_path = "one.gesb";
    EXPECT_FALSE(is_corpus_config(c));
    c.input_path = "a.gesb b.gesb";
    EXPECT_TRUE(is_corpus_config(c));
    c.input_path.clear();
    EXPECT_FALSE(is_corpus_config(c));
    c.input_glob = "data/*.gesb";
    EXPECT_TRUE(is_corpus_config(c));
    c.input_glob.clear();
    c.corpus_manifest = "corpus.txt";
    EXPECT_TRUE(is_corpus_config(c));
    c.corpus_manifest.clear();
    c.corpus_spec = "test";
    EXPECT_TRUE(is_corpus_config(c));
}

TEST(CorpusConfig, RejectsContradictorySourcesAtValidation) {
    // `input` together with `corpus-manifest` must die at validation, not
    // at run time, and the message must name both sources.
    PipelineConfig c;
    c.input_path = "a.gesb";
    c.corpus_manifest = "corpus.txt";
    try {
        validate(c);
        FAIL() << "expected Error";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("a.gesb"), std::string::npos) << what;
        EXPECT_NE(what.find("corpus.txt"), std::string::npos) << what;
    }
    EXPECT_THROW(validate_input_sources(c), Error);
    EXPECT_THROW((void)plan_corpus(c), Error); // the corpus path rejects it too

    c.corpus_manifest.clear();
    c.input_glob = "x/*.gesb";
    EXPECT_THROW(validate(c), Error); // input + input-glob
    c.input_path.clear();
    c.corpus_spec = "test";
    EXPECT_THROW(validate(c), Error); // input-glob + corpus
    c.input_glob.clear();
    c.input_kind = InputKind::kGenerator;
    c.generator = "powerlaw";
    EXPECT_THROW(validate(c), Error); // corpus + generator input

    // A lone corpus source passes the source check but is not runnable as
    // a single-graph config: validate points at the corpus entry points.
    c.input_kind = InputKind::kEdgeList;
    c.generator.clear();
    EXPECT_NO_THROW(validate_input_sources(c));
    try {
        validate(c);
        FAIL() << "expected Error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("plan_corpus"), std::string::npos)
            << e.what();
    }
}

/// Writes three small, distinct binary input graphs and returns their paths.
std::vector<std::string> write_corpus_inputs(const fs::path& dir) {
    std::vector<std::string> paths;
    const char* names[] = {"alpha", "beta", "gamma"};
    for (std::uint64_t i = 0; i < 3; ++i) {
        const EdgeList g = generate_powerlaw_graph(300 + 40 * i, 2.2, 900 + i);
        const std::string path = (dir / (std::string(names[i]) + ".gesb")).string();
        write_edge_list_binary_file(path, g);
        paths.push_back(path);
    }
    return paths;
}

TEST(CorpusPlan, ExpandsListsGlobsAndManifests) {
    const fs::path dir = scratch_dir("corpus_expand");
    const std::vector<std::string> paths = write_corpus_inputs(dir);

    // Explicit list: plan order is the listed order.
    PipelineConfig list;
    list.input_path = paths[1] + " " + paths[0];
    CorpusPlan plan = plan_corpus(list);
    ASSERT_EQ(plan.graphs.size(), 2u);
    EXPECT_EQ(plan.graphs[0].name, "beta");
    EXPECT_EQ(plan.graphs[1].name, "alpha");

    // Glob: matches sorted by path, wildcards in the filename only.
    PipelineConfig glob;
    glob.input_glob = (dir / "*.gesb").string();
    plan = plan_corpus(glob);
    ASSERT_EQ(plan.graphs.size(), 3u);
    EXPECT_EQ(plan.graphs[0].name, "alpha");
    EXPECT_EQ(plan.graphs[1].name, "beta");
    EXPECT_EQ(plan.graphs[2].name, "gamma");
    glob.input_glob = (dir / "nothing-*.gesb").string();
    EXPECT_THROW((void)plan_corpus(glob), Error); // no matches
    glob.input_glob = (dir / "*" / "x.gesb").string();
    EXPECT_THROW((void)plan_corpus(glob), Error); // wildcard in the directory part

    // Manifest: comments, manifest-relative paths, explicit "::" names.
    const std::string manifest_path = (dir / "corpus.txt").string();
    {
        std::ofstream os(manifest_path);
        os << "# the corpus\n"
           << "alpha.gesb          # inline comment after whitespace\n"
           << "beta.gesb :: renamed   % ... with either marker\n";
    }
    PipelineConfig manifest;
    manifest.corpus_manifest = manifest_path;
    plan = plan_corpus(manifest);
    ASSERT_EQ(plan.graphs.size(), 2u);
    EXPECT_EQ(plan.graphs[0].name, "alpha");
    EXPECT_EQ(plan.graphs[0].path, (dir / "alpha.gesb").string());
    EXPECT_EQ(plan.graphs[1].name, "renamed");
}

TEST(CorpusConfig, QuotedInputEntriesKeepSpacedPathsSingle) {
    // `input` is a whitespace-separated list; a double-quoted entry keeps a
    // spaced path as ONE input, end to end.
    EXPECT_EQ(split_input_list("a.gesb b.gesb"),
              (std::vector<std::string>{"a.gesb", "b.gesb"}));
    EXPECT_EQ(split_input_list("\"my graph.txt\" b.gesb"),
              (std::vector<std::string>{"my graph.txt", "b.gesb"}));
    EXPECT_EQ(split_input_list(""), std::vector<std::string>{});
    EXPECT_THROW((void)split_input_list("\"unterminated"), Error);

    PipelineConfig c;
    c.input_path = "\"my graph.txt\"";
    EXPECT_FALSE(is_corpus_config(c));
    EXPECT_EQ(single_input_path(c), "my graph.txt");
    EXPECT_NO_THROW(validate(c));

    // End to end: a spaced input file runs as a single graph when quoted —
    // and a spaced path reached through a manifest works the same way (the
    // shard carries it quoted).
    const fs::path dir = scratch_dir("spaced input"); // note the space
    const EdgeList g = generate_powerlaw_graph(300, 2.2, 4);
    const std::string spaced = (dir / "my graph.gesb").string();
    write_edge_list_binary_file(spaced, g);

    PipelineConfig single;
    single.input_path = "\"" + spaced + "\"";
    single.algorithm = "seq-global-es";
    single.supersteps = 2;
    single.replicates = 2;
    single.metrics = false;
    ASSERT_TRUE(all_succeeded(run_pipeline(single)));

    const std::string manifest_path = (dir / "m.txt").string();
    {
        std::ofstream os(manifest_path);
        os << "my graph.gesb :: spaced\n";
    }
    PipelineConfig corpus;
    corpus.corpus_manifest = manifest_path;
    corpus.algorithm = "seq-global-es";
    corpus.supersteps = 2;
    corpus.replicates = 2;
    corpus.metrics = false;
    const CorpusPlan plan = plan_corpus(corpus);
    ASSERT_EQ(plan.graphs.size(), 1u);
    EXPECT_EQ(corpus_shard(plan, 0).input_path, "\"" + spaced + "\"");
    ASSERT_TRUE(all_succeeded(run_corpus(plan)));

    // The classic slip — one unquoted spaced path — errors with a quoting
    // hint instead of two cryptic open failures.
    PipelineConfig slip;
    slip.input_path = spaced;
    try {
        (void)plan_corpus(slip);
        FAIL() << "expected Error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("double-quote"), std::string::npos)
            << e.what();
    }
}

TEST(CorpusPlan, RejectsDuplicateOutputNamesNamingBothPaths) {
    const fs::path dir = scratch_dir("corpus_dup");
    const fs::path a = dir / "a";
    const fs::path b = dir / "b";
    fs::create_directories(a);
    fs::create_directories(b);
    const EdgeList g = generate_grid(5, 5);
    write_edge_list_binary_file((a / "g.gesb").string(), g);
    write_edge_list_binary_file((b / "g.gesb").string(), g);

    PipelineConfig c;
    c.input_path = (a / "g.gesb").string() + " " + (b / "g.gesb").string();
    try {
        (void)plan_corpus(c);
        FAIL() << "expected Error";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find((a / "g.gesb").string()), std::string::npos) << what;
        EXPECT_NE(what.find((b / "g.gesb").string()), std::string::npos) << what;
    }
}

TEST(CorpusPlan, MaterializesSyntheticCorporaDeterministically) {
    const fs::path dir = scratch_dir("corpus_synth");
    PipelineConfig c;
    c.corpus_spec = "powerlaw n=200 gamma=2.3 count=3";
    c.output_dir = dir.string();
    const CorpusPlan plan = plan_corpus(c);
    ASSERT_EQ(plan.graphs.size(), 3u);
    EXPECT_EQ(plan.graphs[0].name, "powerlaw-0");
    std::vector<std::string> bytes;
    for (const CorpusInput& graph : plan.graphs) {
        ASSERT_TRUE(fs::exists(graph.path)) << graph.path;
        bytes.push_back(slurp(graph.path));
    }
    EXPECT_NE(bytes[0], bytes[1]); // distinct generation seeds
    // Re-planning (as a resume does) rewrites identical bytes.
    const CorpusPlan again = plan_corpus(c);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(slurp(again.graphs[i].path), bytes[i]);
    }

    PipelineConfig bad = c;
    bad.corpus_spec = "frobnicate n=10";
    EXPECT_THROW((void)plan_corpus(bad), Error);
    bad.corpus_spec = "powerlaw n=10 m=3"; // gnp-only parameter
    EXPECT_THROW((void)plan_corpus(bad), Error);
    bad.corpus_spec = "powerlaw n=200 count=2";
    bad.output_dir.clear(); // nowhere to materialize
    EXPECT_THROW((void)plan_corpus(bad), Error);
}

/// The standalone config the corpus determinism contract is stated
/// against: built by hand from the documented seed-derivation rule, NOT
/// via corpus_shard.
PipelineConfig standalone_shard(const std::string& input, std::uint64_t master,
                                std::uint64_t graph_index, const fs::path& out_dir) {
    PipelineConfig c;
    c.input_path = input;
    c.algorithm = "par-global-es";
    c.supersteps = 3;
    c.replicates = 4;
    c.seed = corpus_graph_seed(master, graph_index);
    c.metrics = false;
    c.output_format = OutputFormat::kBinary;
    c.output_dir = out_dir.string();
    return c;
}

TEST(Corpus, RunMatchesStandaloneShardsByteForByte) {
    const fs::path inputs = scratch_dir("corpus_det_inputs");
    const std::vector<std::string> paths = write_corpus_inputs(inputs);
    constexpr std::uint64_t kMaster = 77;

    // Standalone reference runs with the documented derived seeds.
    std::vector<RunReport> refs;
    for (std::uint64_t i = 0; i < paths.size(); ++i) {
        const fs::path dir = scratch_dir("corpus_det_ref_" + std::to_string(i));
        refs.push_back(run_pipeline(standalone_shard(paths[i], kMaster, i, dir)));
        ASSERT_TRUE(all_succeeded(refs.back()));
    }

    struct Variant {
        const char* tag;
        SchedulePolicy policy;
        unsigned threads;
        unsigned chain_threads;
    };
    const Variant variants[] = {
        {"repl", SchedulePolicy::kReplicates, 4, 0},
        {"hyb", SchedulePolicy::kHybrid, 4, 2},
    };
    for (const Variant& v : variants) {
        const fs::path out = scratch_dir(std::string("corpus_det_") + v.tag);
        PipelineConfig base;
        base.input_path = paths[0] + " " + paths[1] + " " + paths[2];
        base.algorithm = "par-global-es";
        base.supersteps = 3;
        base.replicates = 4;
        base.seed = kMaster;
        base.metrics = false;
        base.output_format = OutputFormat::kBinary;
        base.output_dir = out.string();
        base.policy = v.policy;
        base.threads = v.threads;
        base.chain_threads = v.chain_threads;

        const CorpusPlan plan = plan_corpus(base);
        const CorpusReport report = run_corpus(plan);
        ASSERT_TRUE(all_succeeded(report)) << v.tag;
        ASSERT_EQ(report.rows.size(), 3u);

        for (std::uint64_t g = 0; g < 3; ++g) {
            EXPECT_EQ(report.rows[g].seed, corpus_graph_seed(kMaster, g));
            for (const ReplicateReport& r : refs[g].replicates) {
                const fs::path corpus_file = out / plan.graphs[g].name /
                                             fs::path(r.output_path).filename();
                EXPECT_EQ(slurp(r.output_path), slurp(corpus_file.string()))
                    << v.tag << " graph " << g << " " << corpus_file;
            }
            // The shard also wrote its own per-graph report.
            EXPECT_TRUE(fs::exists(out / plan.graphs[g].name / "report.json"));
        }
    }
}

TEST(Corpus, ReplicatesOfDifferentGraphsShareOneBudget) {
    // (graph x replicate) cells of all members run on one executor and
    // each reports its completion.  Their round-robin order is asserted by
    // SharedExecutor.InterleavesTheReplicatesOfConcurrentRuns: here each
    // graph's coordinator thread registers with the executor only after
    // reading its input, so completion order also depends on which
    // coordinator the host schedules first.
    const fs::path inputs = scratch_dir("corpus_interleave_inputs");
    const std::vector<std::string> paths = write_corpus_inputs(inputs);

    PipelineConfig base;
    base.input_path = paths[0] + " " + paths[1] + " " + paths[2];
    base.algorithm = "seq-global-es";
    base.supersteps = 2;
    base.replicates = 8;
    base.seed = 5;
    base.metrics = false;
    base.threads = 2;
    base.policy = SchedulePolicy::kReplicates;

    std::mutex mutex;
    std::vector<std::size_t> completion_graphs;
    CorpusHooks hooks;
    hooks.on_replicate_done = [&](std::size_t graph, const ReplicateReport&) {
        const std::lock_guard<std::mutex> lock(mutex);
        completion_graphs.push_back(graph);
    };
    const CorpusReport report = run_corpus(plan_corpus(base), nullptr, nullptr, hooks);
    ASSERT_TRUE(all_succeeded(report));
    ASSERT_EQ(completion_graphs.size(), 24u);
    for (std::size_t graph = 0; graph < 3; ++graph) {
        EXPECT_EQ(std::count(completion_graphs.begin(), completion_graphs.end(), graph), 8)
            << "graph " << graph;
    }
}

TEST(Corpus, ResumesOnlyUnfinishedCellsByteIdentically) {
    const fs::path inputs = scratch_dir("corpus_resume_inputs");
    const std::vector<std::string> paths = write_corpus_inputs(inputs);

    const auto corpus_config = [&](const fs::path& out) {
        PipelineConfig base;
        base.input_path = paths[0] + " " + paths[1] + " " + paths[2];
        base.algorithm = "par-global-es";
        base.supersteps = 6;
        base.replicates = 3;
        base.seed = 31;
        base.metrics = false;
        base.threads = 2;
        base.output_format = OutputFormat::kBinary;
        base.checkpoint_every = 2;
        base.output_dir = out.string();
        return base;
    };

    // Uninterrupted reference corpus.
    const fs::path ref_dir = scratch_dir("corpus_resume_ref");
    const CorpusReport ref = run_corpus(plan_corpus(corpus_config(ref_dir)));
    ASSERT_TRUE(all_succeeded(ref));

    // Interrupted run: trip the flag once a few cells have completed — the
    // remaining cells stop at checkpoint boundaries or never start.
    const fs::path int_dir = scratch_dir("corpus_resume_int");
    std::atomic<bool> stop{false};
    std::atomic<int> cells{0};
    CorpusHooks hooks;
    hooks.on_replicate_done = [&](std::size_t, const ReplicateReport&) {
        if (cells.fetch_add(1) + 1 >= 2) stop.store(true);
    };
    const CorpusPlan interrupted_plan = plan_corpus(corpus_config(int_dir));
    const CorpusReport interrupted = run_corpus(interrupted_plan, nullptr, &stop, hooks);
    // Tiny graphs can win the race and finish; the resume below then
    // degenerates to a skip-everything pass — the comparison must hold
    // either way.
    if (was_interrupted(interrupted)) {
        // The interruption left resumable state behind: interrupted cells
        // checkpointed (a later successful resume cleans these up again).
        bool any_checkpoint_dir = false;
        for (const CorpusInput& graph : interrupted_plan.graphs) {
            any_checkpoint_dir =
                any_checkpoint_dir || fs::exists(int_dir / graph.name / "checkpoints");
        }
        EXPECT_TRUE(any_checkpoint_dir);
    }

    // Resume into the same directory: only unfinished (graph, replicate)
    // cells run again.
    PipelineConfig resume_config = corpus_config(int_dir);
    resume_config.resume_from = int_dir.string();
    const CorpusReport resumed = run_corpus(plan_corpus(resume_config));
    ASSERT_TRUE(all_succeeded(resumed));

    for (std::size_t g = 0; g < ref.rows.size(); ++g) {
        const fs::path ref_graph_dir = ref_dir / ref.rows[g].name;
        for (const fs::directory_entry& entry : fs::directory_iterator(ref_graph_dir)) {
            if (!entry.is_regular_file() ||
                entry.path().extension() != ".gesb") {
                continue;
            }
            const fs::path resumed_file =
                int_dir / ref.rows[g].name / entry.path().filename();
            EXPECT_EQ(slurp(entry.path().string()), slurp(resumed_file.string()))
                << resumed_file;
        }
    }
}

TEST(Corpus, MergedSummaryJsonIsWellFormedAndAggregated) {
    const fs::path inputs = scratch_dir("corpus_json_inputs");
    const std::vector<std::string> paths = write_corpus_inputs(inputs);
    const fs::path out = scratch_dir("corpus_json_out");

    PipelineConfig base;
    base.input_path = paths[0] + " " + paths[1] + " " + paths[2];
    base.algorithm = "seq-global-es";
    base.supersteps = 2;
    base.replicates = 2;
    base.seed = 9;
    base.metrics = true;
    base.output_dir = out.string();
    base.report_path = (out / "corpus.json").string();

    const CorpusReport report = run_corpus(plan_corpus(base));
    ASSERT_TRUE(all_succeeded(report));

    // The merged summary landed at the configured path and parses with the
    // strict service JSON reader.
    const JsonValue doc = parse_json(slurp(base.report_path));
    ASSERT_TRUE(doc.is_object());
    EXPECT_EQ(doc.find("corpus")->uint_member("graphs"), 3u);
    const JsonValue* rows = doc.find("graphs");
    ASSERT_TRUE(rows != nullptr && rows->is_array());
    ASSERT_EQ(rows->array_items.size(), 3u);
    for (std::uint64_t g = 0; g < 3; ++g) {
        const JsonValue& row = rows->array_items[g];
        EXPECT_EQ(row.uint_member("seed"), corpus_graph_seed(base.seed, g));
        EXPECT_EQ(row.uint_member("replicates"), 2u);
        EXPECT_EQ(row.uint_member("failed"), 0u);
        EXPECT_TRUE(row.find("metrics") != nullptr);
        EXPECT_GT(row.find("acceptance_rate")->number_value, 0.0);
    }
    const JsonValue* aggregates = doc.find("aggregates");
    ASSERT_TRUE(aggregates != nullptr && aggregates->is_object());
    for (const char* key :
         {"seconds", "switches_per_second", "acceptance_rate", "mean_triangles"}) {
        const JsonValue* agg = aggregates->find(key);
        ASSERT_TRUE(agg != nullptr) << key;
        const double min = agg->find("min")->number_value;
        const double median = agg->find("median")->number_value;
        const double max = agg->find("max")->number_value;
        EXPECT_LE(min, median) << key;
        EXPECT_LE(median, max) << key;
    }
}

} // namespace
} // namespace gesmc
