// Tests for the sampling service: JSON/control-frame parsing, stream-frame
// encode/decode round-trips and malformed-frame rejection, multi-job
// admission of the JobManager over one shared executor (byte-identical to
// direct pipeline runs), cancel semantics for queued and running jobs,
// drain/resume, corpus jobs (the same replicates and rows as a local
// corpus run), and end-to-end Unix-socket sessions against a live
// ServiceServer.
#include "gen/corpus.hpp"
#include "graph/io.hpp"
#include "pipeline/config.hpp"
#include "pipeline/corpus.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/report.hpp"
#include "service/frame.hpp"
#include "service/job_manager.hpp"
#include "service/json.hpp"
#include "service/server.hpp"
#include "service/socket.hpp"
#include "util/check.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <regex>
#include <set>
#include <sstream>
#include <thread>

#include <sys/socket.h>

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

fs::path scratch_dir(const std::string& name) {
    const fs::path dir = fs::path(testing::TempDir()) / ("gesmc_svc_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/// A small generator-input job config writing binary graphs into `out`.
PipelineConfig job_config(const fs::path& out, std::uint64_t seed) {
    PipelineConfig c;
    c.input_kind = InputKind::kGenerator;
    c.generator = "powerlaw";
    c.gen_n = 300;
    c.gen_gamma = 2.2;
    c.algorithm = "par-global-es";
    c.supersteps = 4;
    c.replicates = 3;
    c.seed = seed;
    c.metrics = false;
    c.output_dir = out.string();
    c.output_format = OutputFormat::kBinary;
    return c;
}

// ------------------------------------------------------------ JSON parser

TEST(ServiceJson, ParsesScalarsObjectsAndArrays) {
    const JsonValue doc = parse_json(
        R"({"type": "submit", "job": 42, "ok": true, "none": null,)"
        R"( "pi": 3.25, "neg": -7, "exp": 1e3, "list": [1, "two", false]})");
    ASSERT_TRUE(doc.is_object());
    EXPECT_EQ(doc.string_member("type"), "submit");
    EXPECT_EQ(doc.uint_member("job"), 42u);
    EXPECT_TRUE(doc.find("ok")->bool_value);
    EXPECT_TRUE(doc.find("none")->is_null());
    EXPECT_DOUBLE_EQ(doc.find("pi")->number_value, 3.25);
    EXPECT_DOUBLE_EQ(doc.find("neg")->number_value, -7.0);
    EXPECT_DOUBLE_EQ(doc.find("exp")->number_value, 1000.0);
    const JsonValue* list = doc.find("list");
    ASSERT_TRUE(list != nullptr && list->is_array());
    ASSERT_EQ(list->array_items.size(), 3u);
    EXPECT_EQ(list->array_items[1].string_value, "two");
}

TEST(ServiceJson, DecodesStringEscapes) {
    const JsonValue doc =
        parse_json(R"({"s": "a\nb\t\"q\"\\ A é 😀"})");
    // A = 'A', é = e-acute (2 UTF-8 bytes), the surrogate pair a
    // 4-byte emoji.
    EXPECT_EQ(doc.string_member("s"), "a\nb\t\"q\"\\ A \xC3\xA9 \xF0\x9F\x98\x80");
}

TEST(ServiceJson, RejectsMalformedDocuments) {
    EXPECT_THROW(parse_json(""), Error);
    EXPECT_THROW(parse_json("{"), Error);
    EXPECT_THROW(parse_json("{\"a\": }"), Error);
    EXPECT_THROW(parse_json("{\"a\": 1,}"), Error);
    EXPECT_THROW(parse_json("{\"a\": 01}"), Error);
    EXPECT_THROW(parse_json("[1, 2"), Error);
    EXPECT_THROW(parse_json("tru"), Error);
    EXPECT_THROW(parse_json("\"unterminated"), Error);
    EXPECT_THROW(parse_json("\"bad \\x escape\""), Error);
    EXPECT_THROW(parse_json("\"lone \\ud800 surrogate\""), Error);
    EXPECT_THROW(parse_json("{} trailing"), Error);
    EXPECT_THROW(parse_json("{\"a\": 1} {\"b\": 2}"), Error);
    // Unescaped control characters are not valid JSON strings.
    EXPECT_THROW(parse_json("\"a\nb\""), Error);
    // Nesting bomb: rejected by depth, not by stack overflow.
    EXPECT_THROW(parse_json(std::string(1000, '[') + std::string(1000, ']')), Error);
}

// ---------------------------------------------------------- stream frames

TEST(ServiceFrames, EncodeDecodeRoundTrip) {
    const std::string payload = "{\"event\": \"accepted\", \"job\": 1}";
    const std::string encoded = encode_frame(FrameType::kJson, payload);
    ASSERT_EQ(encoded.size(), 9 + payload.size());

    std::size_t consumed = 0;
    const auto frame = decode_frame(encoded.data(), encoded.size(), consumed);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(consumed, encoded.size());
    EXPECT_EQ(frame->type, FrameType::kJson);
    EXPECT_EQ(frame->payload, payload);
}

TEST(ServiceFrames, BinaryPayloadsSurviveUnchanged) {
    std::string binary;
    for (int i = 0; i < 256; ++i) binary.push_back(static_cast<char>(i));
    const std::string encoded = encode_frame(FrameType::kGraph, binary);
    std::size_t consumed = 0;
    const auto frame = decode_frame(encoded.data(), encoded.size(), consumed);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, FrameType::kGraph);
    EXPECT_EQ(frame->payload, binary);
}

TEST(ServiceFrames, ReaderReassemblesByteWiseDelivery) {
    // A TCP-like stream can fragment arbitrarily: feed one byte at a time
    // and require exactly the original frame sequence back.
    const std::string stream = encode_frame(FrameType::kJson, "first") +
                               encode_frame(FrameType::kGraph, std::string("\0\x01", 2)) +
                               encode_frame(FrameType::kJson, "");
    FrameReader reader;
    std::vector<Frame> frames;
    for (const char byte : stream) {
        reader.feed(&byte, 1);
        while (auto frame = reader.next()) frames.push_back(std::move(*frame));
    }
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames[0].payload, "first");
    EXPECT_EQ(frames[1].payload, std::string("\0\x01", 2));
    EXPECT_EQ(frames[2].payload, "");
}

TEST(ServiceFrames, RejectsMalformedFrames) {
    std::size_t consumed = 0;
    // Unknown type byte: rejected immediately, even before the length.
    const char bad_type[] = {'X', 0, 0, 0, 0, 0, 0, 0, 0};
    EXPECT_THROW((void)decode_frame(bad_type, sizeof(bad_type), consumed), Error);

    // Length prefix beyond the protocol maximum.
    std::string huge;
    huge.push_back('J');
    for (int i = 0; i < 8; ++i) huge.push_back(static_cast<char>(0xFF));
    EXPECT_THROW((void)decode_frame(huge.data(), huge.size(), consumed), Error);

    // A 'D' chunk over the chunk bound is rejected from the header alone —
    // no buffering of a hostile multi-GiB "chunk" while waiting for bytes.
    std::string fat_chunk;
    fat_chunk.push_back('D');
    const std::uint64_t fat = kGraphChunkBytes + 1;
    for (int i = 0; i < 8; ++i) {
        fat_chunk.push_back(static_cast<char>((fat >> (8 * i)) & 0xFF));
    }
    EXPECT_THROW((void)decode_frame(fat_chunk.data(), fat_chunk.size(), consumed),
                 Error);
    // The same length is fine for a 'J' frame (just incomplete here).
    fat_chunk[0] = 'J';
    EXPECT_FALSE(decode_frame(fat_chunk.data(), fat_chunk.size(), consumed).has_value());

    // Truncation is not an error — it means "wait for more bytes".
    const std::string ok = encode_frame(FrameType::kJson, "payload");
    for (std::size_t cut = 0; cut < ok.size(); ++cut) {
        const auto frame = decode_frame(ok.data(), cut, consumed);
        EXPECT_FALSE(frame.has_value()) << "cut at " << cut;
        EXPECT_EQ(consumed, 0u);
    }
}

TEST(ServiceFrames, GraphHeaderRoundTripsAndRejectsGarbage) {
    GraphFrame graph;
    graph.replicate = 7;
    graph.name = "replicate_07.gesb";
    graph.total_bytes = 123456789;
    const std::string payload = encode_graph_payload(graph);
    const GraphFrame back = decode_graph_payload(payload);
    EXPECT_EQ(back.replicate, 7u);
    EXPECT_EQ(back.name, graph.name);
    EXPECT_EQ(back.total_bytes, graph.total_bytes);

    EXPECT_THROW((void)decode_graph_payload("short"), Error);
    EXPECT_THROW((void)decode_graph_payload(payload.substr(0, payload.size() - 1)),
                 Error);
    EXPECT_THROW((void)decode_graph_payload(payload + "x"), Error);
    // Path-traversal names must never reach the client's filesystem.
    GraphFrame evil = graph;
    evil.name = "../../etc/passwd";
    const std::string evil_payload = encode_graph_payload(evil);
    EXPECT_THROW((void)decode_graph_payload(evil_payload), Error);
}

TEST(ServiceFrames, GraphNamesAreABasenameOrOneMemberAndABasename) {
    const auto decoded_name = [](const std::string& name) {
        GraphFrame graph;
        graph.name = name;
        graph.total_bytes = 1;
        return decode_graph_payload(encode_graph_payload(graph)).name;
    };
    EXPECT_EQ(decoded_name("replicate_0.gesb"), "replicate_0.gesb");
    EXPECT_EQ(decoded_name("gnp-0/replicate_0.gesb"), "gnp-0/replicate_0.gesb");
    for (const char* name :
         {"../x", "/x", "a/b/c", "a/", "/b", "a\\b", "./x", "a/..", "", ".", "..", "/"}) {
        EXPECT_THROW((void)decoded_name(name), Error) << name;
    }
}

TEST(ServiceFrames, GraphTransferEnforcesSequencingAndCaps) {
    GraphTransferState transfer;
    // A chunk before any header is a protocol violation.
    EXPECT_THROW((void)transfer.consume(1), Error);

    GraphFrame header;
    header.replicate = 3;
    header.name = "replicate_3.gesb";
    header.total_bytes = 10;
    EXPECT_FALSE(transfer.begin(header));
    ASSERT_TRUE(transfer.open());
    EXPECT_EQ(transfer.remaining(), 10u);

    // A second header while a transfer is open is a violation.
    EXPECT_THROW((void)transfer.begin(header), Error);
    // Chunks over the protocol bound are rejected regardless of remaining.
    EXPECT_THROW((void)transfer.consume(kGraphChunkBytes + 1), Error);
    // Empty chunks are meaningless and rejected.
    EXPECT_THROW((void)transfer.consume(0), Error);

    EXPECT_FALSE(transfer.consume(4));
    EXPECT_EQ(transfer.remaining(), 6u);
    // Overflowing the announced total is the cap-enforcement case: the
    // client must reject before any byte lands on disk.
    EXPECT_THROW((void)transfer.consume(7), Error);
    EXPECT_TRUE(transfer.consume(6));
    EXPECT_FALSE(transfer.open());

    // Zero-byte transfers complete at the header.
    header.total_bytes = 0;
    EXPECT_TRUE(transfer.begin(header));
    EXPECT_FALSE(transfer.open());
}

TEST(ServiceFrames, ChunkedGraphStreamReassemblesByteIdentically) {
    // Drive a SocketObserver with a tiny chunk size over a socketpair and
    // reassemble: the multi-chunk path must reproduce the file exactly and
    // keep each transfer's frames contiguous.
    const fs::path dir = scratch_dir("chunk_stream");
    const std::string path = (dir / "replicate_0.gesb").string();
    std::string blob;
    for (int i = 0; i < 1000; ++i) blob.push_back(static_cast<char>(i * 31));
    {
        std::ofstream os(path, std::ios::binary);
        os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    }

    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    FdHandle write_end(fds[0]);
    FdHandle read_end(fds[1]);

    SocketObserver observer(write_end.get(), 1, nullptr, /*chunk_bytes=*/64);
    ReplicateReport report;
    report.index = 0;
    report.output_path = path;
    observer.on_replicate_done(report);
    write_end.reset(); // EOF so the reader loop terminates

    FrameReader reader;
    GraphTransferState transfer;
    std::string reassembled;
    std::uint64_t chunks = 0;
    bool complete = false;
    for (;;) {
        const std::optional<Frame> frame = read_frame(read_end.get(), reader);
        if (!frame.has_value()) break;
        if (frame->type == FrameType::kGraph) {
            complete = transfer.begin(decode_graph_payload(frame->payload));
        } else if (frame->type == FrameType::kGraphData) {
            EXPECT_LE(frame->payload.size(), 64u);
            complete = transfer.consume(frame->payload.size());
            reassembled += frame->payload;
            ++chunks;
        }
    }
    EXPECT_TRUE(complete);
    EXPECT_EQ(chunks, (blob.size() + 63) / 64);
    EXPECT_EQ(reassembled, blob);
}

// --------------------------------------------------------- control frames

TEST(ServiceRequests, RoundTripThroughTheWireFormat) {
    Request submit;
    submit.kind = RequestKind::kSubmit;
    submit.config_text = "replicates = 4\nseed = 9\n# comment with \"quotes\"\n";
    const std::string line = make_request_line(submit);
    EXPECT_EQ(line.back(), '\n');
    const Request back = parse_request(line.substr(0, line.size() - 1));
    EXPECT_EQ(back.kind, RequestKind::kSubmit);
    EXPECT_EQ(back.config_text, submit.config_text);

    Request cancel;
    cancel.kind = RequestKind::kCancel;
    cancel.job = 12;
    cancel.has_job = true;
    const Request cancel_back =
        parse_request(make_request_line(cancel).substr(0, make_request_line(cancel).size() - 1));
    EXPECT_EQ(cancel_back.kind, RequestKind::kCancel);
    EXPECT_EQ(cancel_back.job, 12u);

    Request metrics;
    metrics.kind = RequestKind::kMetrics;
    const std::string metrics_line = make_request_line(metrics);
    const Request metrics_back =
        parse_request(metrics_line.substr(0, metrics_line.size() - 1));
    EXPECT_EQ(metrics_back.kind, RequestKind::kMetrics);

    Request watch;
    watch.kind = RequestKind::kWatch;
    const std::string watch_line = make_request_line(watch);
    EXPECT_EQ(parse_request(watch_line.substr(0, watch_line.size() - 1)).kind,
              RequestKind::kWatch);

    Request prom;
    prom.kind = RequestKind::kProm;
    const std::string prom_line = make_request_line(prom);
    EXPECT_EQ(parse_request(prom_line.substr(0, prom_line.size() - 1)).kind,
              RequestKind::kProm);
}

TEST(ServiceRequests, RejectsUnknownAndIncompleteRequests) {
    EXPECT_THROW((void)parse_request("not json at all"), Error);
    EXPECT_THROW((void)parse_request("[1, 2, 3]"), Error);
    EXPECT_THROW((void)parse_request("{\"type\": \"frobnicate\"}"), Error);
    EXPECT_THROW((void)parse_request("{\"type\": \"submit\"}"), Error);   // no config
    EXPECT_THROW((void)parse_request("{\"type\": \"cancel\"}"), Error);   // no job
    EXPECT_THROW((void)parse_request("{\"type\": \"cancel\", \"job\": -1}"), Error);
    EXPECT_THROW((void)parse_request("{\"type\": 42}"), Error);
}

TEST(ServiceErrors, OutsideInputErrorsCarryTheMessageAlone) {
    // Client frames and sockets are outside input: their errors are the
    // message alone, with no check expression or source path.
    const auto error_of = [](auto&& fn) -> std::string {
        try {
            fn();
        } catch (const Error& e) {
            return e.what();
        }
        return "accepted";
    };
    const std::string long_path = "/tmp/" + std::string(150, 'x') + ".sock";
    EXPECT_EQ(error_of([&] { (void)connect_unix(long_path); }),
              "socket path too long (160 bytes, max 107): " + long_path);
    const char bad_type[] = {'X', 0, 0, 0, 0, 0, 0, 0, 0};
    std::size_t consumed = 0;
    EXPECT_EQ(error_of([&] { (void)decode_frame(bad_type, sizeof(bad_type), consumed); }),
              "frame: unknown type byte 88");
    EXPECT_EQ(error_of([] { (void)parse_request("[1, 2, 3]"); }),
              "request: not a JSON object");
}

// ------------------------------------------------------------- JobManager

TEST(JobManager, RunsConcurrentJobsOverOnePoolByteIdentically) {
    // Two jobs admitted together against one shared executor must produce
    // exactly what two direct run_pipeline calls produce: scheduling across
    // jobs must never leak into results (counter-based randomness).
    const fs::path direct_a = scratch_dir("jm_direct_a");
    const fs::path direct_b = scratch_dir("jm_direct_b");
    const RunReport ref_a = run_pipeline(job_config(direct_a, 101));
    const RunReport ref_b = run_pipeline(job_config(direct_b, 202));
    ASSERT_TRUE(all_succeeded(ref_a));
    ASSERT_TRUE(all_succeeded(ref_b));

    const fs::path svc_a = scratch_dir("jm_svc_a");
    const fs::path svc_b = scratch_dir("jm_svc_b");
    JobManager manager(2, 2);
    const std::uint64_t id_a = manager.submit(job_config(svc_a, 101), nullptr);
    const std::uint64_t id_b = manager.submit(job_config(svc_b, 202), nullptr);
    EXPECT_NE(id_a, id_b);
    const JobInfo done_a = manager.wait(id_a);
    const JobInfo done_b = manager.wait(id_b);
    EXPECT_EQ(done_a.status, JobStatus::kSucceeded) << done_a.error;
    EXPECT_EQ(done_b.status, JobStatus::kSucceeded) << done_b.error;
    EXPECT_EQ(done_a.replicates_done, 3u);

    for (std::uint64_t r = 0; r < ref_a.replicates.size(); ++r) {
        EXPECT_EQ(slurp(ref_a.replicates[r].output_path),
                  slurp((svc_a / fs::path(ref_a.replicates[r].output_path).filename())
                            .string()));
        EXPECT_EQ(slurp(ref_b.replicates[r].output_path),
                  slurp((svc_b / fs::path(ref_b.replicates[r].output_path).filename())
                            .string()));
    }
}

TEST(JobManager, RespectsPerJobSchedulePolicies) {
    // An intra-chain job (borrows the whole fork-join pool per chain) and a
    // replicate-parallel job run concurrently against the same executor.
    const fs::path dir_intra = scratch_dir("jm_intra");
    const fs::path dir_repl = scratch_dir("jm_repl");
    PipelineConfig intra = job_config(dir_intra, 7);
    intra.policy = SchedulePolicy::kIntraChain;
    PipelineConfig repl = job_config(dir_repl, 8);
    repl.policy = SchedulePolicy::kReplicates;

    const fs::path ref_dir = scratch_dir("jm_policy_ref");
    PipelineConfig ref_config = job_config(ref_dir, 7);
    const RunReport ref = run_pipeline(ref_config);
    ASSERT_TRUE(all_succeeded(ref));

    JobManager manager(2, 2);
    const std::uint64_t id_intra = manager.submit(intra, nullptr);
    const std::uint64_t id_repl = manager.submit(repl, nullptr);
    EXPECT_EQ(manager.wait(id_intra).status, JobStatus::kSucceeded);
    EXPECT_EQ(manager.wait(id_repl).status, JobStatus::kSucceeded);

    // Policy never changes bytes (exact chains): the intra-chain job
    // matches the default-policy reference run with the same seed.
    for (std::uint64_t r = 0; r < ref.replicates.size(); ++r) {
        EXPECT_EQ(slurp(ref.replicates[r].output_path),
                  slurp((dir_intra / fs::path(ref.replicates[r].output_path).filename())
                            .string()));
    }
}

TEST(JobManager, RejectsInvalidConfigsAtSubmit) {
    JobManager manager(1, 1);
    PipelineConfig bad; // no input at all
    EXPECT_THROW((void)manager.submit(bad, nullptr), Error);
    // Unknown algorithm names, the benches' naive-par-es among them, are
    // refused at submit instead of failing the accepted job.
    for (const char* algorithm : {"bogus-es", "naive-par-es"}) {
        PipelineConfig unknown = job_config(scratch_dir("jm_unknown_algo"), 1);
        unknown.algorithm = algorithm;
        try {
            (void)manager.submit(unknown, nullptr);
            FAIL() << algorithm << " was accepted";
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("(expected seq-es |"), std::string::npos)
                << e.what();
        }
    }
    EXPECT_TRUE(manager.jobs().empty());
}

TEST(JobManager, CancelsQueuedJobsBeforeTheyStart) {
    // One runner slot: job B sits queued behind a long-running A and must
    // be cancellable without ever starting.
    const fs::path dir_a = scratch_dir("jm_cancel_a");
    const fs::path dir_b = scratch_dir("jm_cancel_b");
    PipelineConfig long_a = job_config(dir_a, 1);
    long_a.gen_n = 2000;
    long_a.supersteps = 50;
    long_a.replicates = 4;

    JobManager manager(1, 1);
    const std::uint64_t id_a = manager.submit(long_a, nullptr);
    const std::uint64_t id_b = manager.submit(job_config(dir_b, 2), nullptr);

    EXPECT_TRUE(manager.cancel(id_b));
    const JobInfo info_b = manager.wait(id_b);
    EXPECT_EQ(info_b.status, JobStatus::kCancelled);
    EXPECT_EQ(info_b.replicates_done, 0u);
    EXPECT_FALSE(fs::exists(dir_b / "replicate_0.gesb")); // never ran

    EXPECT_TRUE(manager.cancel(id_a));
    const JobInfo info_a = manager.wait(id_a);
    EXPECT_EQ(info_a.status, JobStatus::kCancelled);
    // Terminal jobs cannot be re-cancelled; unknown ids are refused.
    EXPECT_FALSE(manager.cancel(id_a));
    EXPECT_FALSE(manager.cancel(9999));
}

TEST(JobManager, CancelFromTheObserverFactoryLandsBeforeTheJobStarts) {
    // The server's factory sends the "accepted" frame; when that write
    // breaks, its on_broken callback cancels the job from *inside* the
    // factory.  This must neither deadlock (the factory runs outside the
    // manager lock) nor be dropped (the job is registered before the
    // factory runs): the job finalizes cancelled without ever running.
    const fs::path dir = scratch_dir("jm_factory_cancel");
    JobManager manager(1, 1);
    const std::uint64_t id =
        manager.submit(job_config(dir, 7),
                       [&](std::uint64_t job_id, const CorpusPlan*) -> JobObserver* {
                           EXPECT_TRUE(manager.cancel(job_id));
                           return nullptr;
                       });
    const JobInfo info = manager.wait(id);
    EXPECT_EQ(info.status, JobStatus::kCancelled);
    EXPECT_EQ(info.replicates_done, 0u);
    EXPECT_FALSE(fs::exists(dir / "replicate_0.gesb")); // never ran
}

TEST(JobManager, CancelInterruptsARunningCheckpointedJob) {
    const fs::path dir = scratch_dir("jm_cancel_running");
    PipelineConfig config = job_config(dir, 5);
    config.gen_n = 1500;
    config.supersteps = 200; // long enough to still be running when cancelled
    config.replicates = 2;
    config.checkpoint_every = 1;

    class FirstCheckpoint final : public JobObserver {
    public:
        void on_checkpoint(std::uint64_t, const ChainState&,
                           const std::string&) override {
            seen.store(true, std::memory_order_relaxed);
        }
        std::atomic<bool> seen{false};
    };

    JobManager manager(2, 1);
    FirstCheckpoint observer;
    const std::uint64_t id = manager.submit(config, &observer);
    while (!observer.seen.load(std::memory_order_relaxed)) {
        std::this_thread::yield();
    }
    EXPECT_TRUE(manager.cancel(id));
    const JobInfo info = manager.wait(id);
    EXPECT_EQ(info.status, JobStatus::kCancelled);
    // The interrupted replicates checkpointed: the job is resumable.
    EXPECT_TRUE(fs::exists(dir / "checkpoints"));
}

TEST(JobManager, DrainInterruptsCheckpointedJobsAndResumeFinishesThem) {
    // The SIGTERM path minus the signal: drain() stops a running
    // checkpointed job at a boundary; a resume run (as after a daemon
    // restart) finishes it byte-identically to an uninterrupted reference.
    const fs::path ref_dir = scratch_dir("jm_drain_ref");
    PipelineConfig ref_config = job_config(ref_dir, 33);
    ref_config.supersteps = 30;
    const RunReport ref = run_pipeline(ref_config);
    ASSERT_TRUE(all_succeeded(ref));

    const fs::path dir = scratch_dir("jm_drain");
    PipelineConfig config = job_config(dir, 33);
    config.supersteps = 30;
    config.checkpoint_every = 1;

    class FirstCheckpoint final : public JobObserver {
    public:
        void on_checkpoint(std::uint64_t, const ChainState&,
                           const std::string&) override {
            seen.store(true, std::memory_order_relaxed);
        }
        std::atomic<bool> seen{false};
    };

    FirstCheckpoint observer;
    JobStatus drained_status;
    {
        JobManager manager(2, 1);
        const std::uint64_t id = manager.submit(config, &observer);
        while (!observer.seen.load(std::memory_order_relaxed)) {
            std::this_thread::yield();
        }
        manager.drain();
        drained_status = manager.wait(id).status;
    } // destructor: a second drain must be a no-op

    // The job either finished before drain noticed (tiny graphs move fast)
    // or was interrupted; both must leave a resumable/complete directory.
    ASSERT_TRUE(drained_status == JobStatus::kInterrupted ||
                drained_status == JobStatus::kSucceeded);

    PipelineConfig resume = job_config(dir, 33);
    resume.supersteps = 30;
    resume.checkpoint_every = 1;
    resume.resume_from = dir.string();
    const RunReport resumed = run_pipeline(resume);
    ASSERT_TRUE(all_succeeded(resumed));
    for (std::uint64_t r = 0; r < ref.replicates.size(); ++r) {
        EXPECT_EQ(slurp(ref.replicates[r].output_path),
                  slurp(resumed.replicates[r].output_path))
            << "replicate " << r;
    }
}

TEST(JobManager, RefusesSubmissionsWhileDraining) {
    JobManager manager(1, 1);
    manager.drain();
    EXPECT_THROW((void)manager.submit(job_config(scratch_dir("jm_refuse"), 1), nullptr),
                 Error);
}

// --------------------------------------------- width-counting admission

TEST(SharedExecutor, AdmitsAWideChainAndNarrowReplicatesConcurrently) {
    // The acceptance bar for the width-counting gate: a pool-borrowing
    // T = 2 chain of one run and width-1 replicates of another run must
    // *compute at the same time* inside one budget of 4.  Under the old
    // binary shared/unique gate this test deadlocks: the wide body blocks
    // waiting to observe a narrow body running, which the gate would never
    // have admitted concurrently.
    SharedExecutor executor(4);
    std::atomic<bool> wide_running{false};
    std::atomic<bool> narrow_ran_during_wide{false};

    std::thread wide_job([&] {
        ScheduleRequest request;
        request.policy = SchedulePolicy::kIntraChain;
        request.chain_threads = 2; // pool-borrowing chain, not whole-budget
        executor.run(1, request, [&](const ReplicateSlot& slot) {
            EXPECT_EQ(slot.chain_threads, 2u);
            ASSERT_NE(slot.shared_pool, nullptr);
            wide_running.store(true, std::memory_order_relaxed);
            while (!narrow_ran_during_wide.load(std::memory_order_relaxed)) {
                std::this_thread::yield();
            }
        });
    });

    while (!wide_running.load(std::memory_order_relaxed)) std::this_thread::yield();
    ScheduleRequest narrow;
    narrow.policy = SchedulePolicy::kReplicates;
    executor.run(2, narrow, [&](const ReplicateSlot& slot) {
        EXPECT_EQ(slot.chain_threads, 1u);
        EXPECT_EQ(slot.shared_pool, nullptr);
        if (wide_running.load(std::memory_order_relaxed)) {
            narrow_ran_during_wide.store(true, std::memory_order_relaxed);
        }
    });
    wide_job.join();
    EXPECT_TRUE(narrow_ran_during_wide.load());
}

TEST(SharedExecutor, InterleavesTheReplicatesOfConcurrentRuns) {
    // Three runs of 8 width-1 replicates on a budget of 2.  Until all three
    // runs are registered every body waits (at most 10 s), so the record
    // below is the ring's pop order, not the order in which the host
    // happened to start the three calling threads.
    SharedExecutor executor(2);
    std::atomic<bool> all_registered{false};
    std::mutex mutex;
    std::vector<int> completions;
    const auto body_of = [&](int run) {
        return [&, run](const ReplicateSlot&) {
            const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (!all_registered.load() && std::chrono::steady_clock::now() < deadline) {
                if (executor.stats().active_runs == 3) all_registered.store(true);
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            const std::lock_guard<std::mutex> lock(mutex);
            completions.push_back(run);
        };
    };
    std::vector<std::thread> runs;
    for (int run = 0; run < 3; ++run) {
        runs.emplace_back([&, run] {
            executor.run(8, ScheduleRequest{SchedulePolicy::kReplicates, 0, 0}, body_of(run));
        });
    }
    for (std::thread& t : runs) t.join();
    EXPECT_TRUE(all_registered.load());
    ASSERT_EQ(completions.size(), 24u);

    std::size_t switches = 0;
    for (std::size_t i = 1; i < completions.size(); ++i) {
        if (completions[i] != completions[i - 1]) ++switches;
    }
    // Round-robin popping alternates runs nearly every task (~22 of 23
    // transitions); serial execution would give exactly 2.  A low bar keeps
    // the assertion robust to scheduling jitter while still ruling out any
    // serial ordering.
    EXPECT_GE(switches, 6u) << "completion order looks serial per run";
}

TEST(SharedExecutor, MixedWidthStressNeverOversubscribesTheBudget) {
    // Concurrent runs of every policy shape against one budget of 4: the
    // summed width of computing replicates must never exceed the budget,
    // every replicate must run exactly once, and the whole thing must not
    // deadlock.  Run under TSan in CI this also shakes out gate races.
    constexpr unsigned kBudget = 4;
    SharedExecutor executor(kBudget);
    std::atomic<unsigned> active_width{0};
    std::atomic<unsigned> max_width{0};
    std::atomic<std::uint64_t> bodies{0};

    const auto body = [&](const ReplicateSlot& slot) {
        const unsigned width = slot.chain_threads;
        const unsigned now =
            active_width.fetch_add(width, std::memory_order_relaxed) + width;
        unsigned seen = max_width.load(std::memory_order_relaxed);
        while (seen < now && !max_width.compare_exchange_weak(
                                 seen, now, std::memory_order_relaxed)) {
        }
        if (slot.shared_pool != nullptr) {
            // Exercise the leased team: a real fork-join on `width` threads.
            std::atomic<unsigned> hits{0};
            slot.shared_pool->run([&](unsigned) { hits.fetch_add(1); });
            EXPECT_EQ(hits.load(), width);
        }
        bodies.fetch_add(1, std::memory_order_relaxed);
        active_width.fetch_sub(width, std::memory_order_relaxed);
    };

    constexpr std::uint64_t kPerRun = 24;
    const ScheduleRequest shapes[] = {
        {SchedulePolicy::kReplicates, 0, 0},
        {SchedulePolicy::kHybrid, 2, 0},
        {SchedulePolicy::kIntraChain, 0, 0},
        {SchedulePolicy::kHybrid, 3, 1},
    };
    std::vector<std::thread> runs;
    for (const ScheduleRequest& request : shapes) {
        runs.emplace_back([&executor, &body, request] {
            executor.run(kPerRun, request, body);
        });
    }
    for (std::thread& run : runs) run.join();
    EXPECT_EQ(bodies.load(), kPerRun * std::size(shapes));
    EXPECT_LE(max_width.load(), kBudget);
    EXPECT_GE(max_width.load(), 1u);
    EXPECT_EQ(active_width.load(), 0u);
}

TEST(SharedExecutor, AdmitsAWholeBudgetReplicateBeforeLaterNarrowOnes) {
    // A whole-budget replicate queued behind a running narrow one must be
    // admitted once that one ends, although narrow replicates keep
    // arriving: leases are granted in arrival order, so a late narrow
    // replicate waits *behind* the wide one even though the budget has
    // room for it, instead of overtaking it forever.
    SharedExecutor executor(4);
    const ScheduleRequest narrow{SchedulePolicy::kReplicates, 0, 0};
    const ScheduleRequest whole{SchedulePolicy::kIntraChain, 0, 0};
    std::atomic<bool> narrow_running{false};
    std::atomic<bool> release{false};
    std::atomic<int> grants{0};
    int wide_rank = -1;
    int late_rank = -1;

    std::thread first([&] {
        executor.run(1, narrow, [&](const ReplicateSlot&) {
            narrow_running.store(true);
            while (!release.load()) std::this_thread::yield();
        });
    });
    while (!narrow_running.load()) std::this_thread::yield();
    std::thread wide([&] {
        executor.run(1, whole, [&](const ReplicateSlot& slot) {
            EXPECT_EQ(slot.chain_threads, 4u);
            wide_rank = grants.fetch_add(1);
        });
    });
    // The wide replicate cannot be admitted while the narrow one computes
    // (1 + 4 > 4).
    while (executor.stats().lease_waiters != 1u) std::this_thread::yield();
    std::thread late([&] {
        executor.run(1, narrow, [&](const ReplicateSlot&) { late_rank = grants.fetch_add(1); });
    });
    // The late replicate fits (1 + 1 <= 4) but arrived after the wide one:
    // it must queue.  (An overtaking grant ends the wait too, so a broken
    // gate fails here instead of hanging.)
    while (executor.stats().lease_waiters < 2u && grants.load() == 0) {
        std::this_thread::yield();
    }
    const ExecutorStats queued = executor.stats();
    EXPECT_EQ(grants.load(), 0);
    EXPECT_EQ(queued.lease_waiters, 2u);
    EXPECT_EQ(queued.leased, 1u);

    release.store(true);
    first.join();
    wide.join();
    late.join();
    EXPECT_EQ(wide_rank, 0);
    EXPECT_EQ(late_rank, 1);
    EXPECT_EQ(executor.stats().leased, 0u);
}

TEST(SharedExecutor, ReusesTheTeamOfAFinishedReplicate) {
    // K = 1, T = 2: the replicates run one after another, and each takes
    // the team its predecessor handed back instead of spawning one.
    SharedExecutor executor(4);
    std::vector<ThreadPool*> teams;
    executor.run(3, ScheduleRequest{SchedulePolicy::kHybrid, 2, 1},
                 [&](const ReplicateSlot& slot) { teams.push_back(slot.shared_pool); });
    ASSERT_EQ(teams.size(), 3u);
    ASSERT_NE(teams[0], nullptr);
    EXPECT_EQ(teams[0]->num_threads(), 2u);
    EXPECT_EQ(teams[1], teams[0]);
    EXPECT_EQ(teams[2], teams[0]);
}

TEST(JobManager, MixedWidthJobsSettleUnderCancelAndDrainMidLease) {
    // Cancel one mixed-width job mid-run and drain the rest: every job must
    // reach a terminal status (no deadlock with leases in flight), and the
    // drain must leave resumable or complete state behind.
    const fs::path dir_wide = scratch_dir("jm_mixed_wide");
    const fs::path dir_narrow = scratch_dir("jm_mixed_narrow");
    const fs::path dir_victim = scratch_dir("jm_mixed_victim");

    PipelineConfig wide = job_config(dir_wide, 11);
    wide.policy = SchedulePolicy::kHybrid;
    wide.chain_threads = 2;
    wide.supersteps = 12;
    wide.checkpoint_every = 1;
    PipelineConfig narrow = job_config(dir_narrow, 12);
    narrow.policy = SchedulePolicy::kReplicates;
    narrow.supersteps = 12;
    narrow.checkpoint_every = 1;
    PipelineConfig victim = job_config(dir_victim, 13);
    victim.policy = SchedulePolicy::kHybrid;
    victim.chain_threads = 2;
    victim.gen_n = 1500;
    victim.supersteps = 200; // long enough to still be running when cancelled
    victim.checkpoint_every = 1;

    class FirstCheckpoint final : public JobObserver {
    public:
        void on_checkpoint(std::uint64_t, const ChainState&,
                           const std::string&) override {
            seen.store(true, std::memory_order_relaxed);
        }
        std::atomic<bool> seen{false};
    };

    JobManager manager(4, 3);
    FirstCheckpoint victim_started;
    const std::uint64_t id_wide = manager.submit(wide, nullptr);
    const std::uint64_t id_narrow = manager.submit(narrow, nullptr);
    const std::uint64_t id_victim = manager.submit(victim, &victim_started);
    while (!victim_started.seen.load(std::memory_order_relaxed)) {
        std::this_thread::yield();
    }
    EXPECT_TRUE(manager.cancel(id_victim));
    manager.drain(); // must not deadlock with leases of both widths in flight

    const JobStatus wide_status = manager.wait(id_wide).status;
    const JobStatus narrow_status = manager.wait(id_narrow).status;
    const JobStatus victim_status = manager.wait(id_victim).status;
    EXPECT_TRUE(wide_status == JobStatus::kSucceeded ||
                wide_status == JobStatus::kInterrupted)
        << to_string(wide_status);
    EXPECT_TRUE(narrow_status == JobStatus::kSucceeded ||
                narrow_status == JobStatus::kInterrupted)
        << to_string(narrow_status);
    EXPECT_EQ(victim_status, JobStatus::kCancelled);
}

TEST(JobManager, HybridJobsAreByteIdenticalToDirectRuns) {
    // The cross-policy determinism contract through the service path: the
    // same config at two hybrid (K, T) points and under the replicate
    // policy, admitted concurrently, matches a direct single-run reference
    // byte for byte.
    const fs::path ref_dir = scratch_dir("jm_hybrid_ref");
    const RunReport ref = run_pipeline(job_config(ref_dir, 55));
    ASSERT_TRUE(all_succeeded(ref));

    struct Variant {
        const char* tag;
        SchedulePolicy policy;
        unsigned chain_threads;
    };
    const Variant variants[] = {
        {"h2", SchedulePolicy::kHybrid, 2},   // 2 x 2 on a 4-budget
        {"h3", SchedulePolicy::kHybrid, 3},   // 1 x 3
        {"r", SchedulePolicy::kReplicates, 0} // 4 x 1
    };
    JobManager manager(4, 3);
    std::vector<std::pair<std::uint64_t, fs::path>> jobs;
    for (const Variant& v : variants) {
        const fs::path dir = scratch_dir(std::string("jm_hybrid_") + v.tag);
        PipelineConfig config = job_config(dir, 55);
        config.policy = v.policy;
        config.chain_threads = v.chain_threads;
        jobs.emplace_back(manager.submit(config, nullptr), dir);
    }
    for (const auto& [id, dir] : jobs) {
        const JobInfo done = manager.wait(id);
        EXPECT_EQ(done.status, JobStatus::kSucceeded) << done.error;
        for (const ReplicateReport& r : ref.replicates) {
            EXPECT_EQ(slurp(r.output_path),
                      slurp((dir / fs::path(r.output_path).filename()).string()));
        }
    }
}

// ------------------------------------------------------------ corpus runs

/// Three small power-law graphs on disk, for file-list corpora.
std::vector<std::string> corpus_inputs(const fs::path& dir) {
    std::vector<std::string> paths;
    for (std::uint64_t i = 0; i < 3; ++i) {
        const EdgeList g = generate_powerlaw_graph(300 + 30 * i, 2.2, 700 + i);
        const std::string path = (dir / ("g" + std::to_string(i) + ".gesb")).string();
        write_edge_list_binary_file(path, g);
        paths.push_back(path);
    }
    return paths;
}

/// A fixed-budget corpus over three input files, writing into `out`.
PipelineConfig file_corpus_config(const std::vector<std::string>& inputs,
                                  const fs::path& out) {
    PipelineConfig c;
    c.input_path = inputs[0] + " " + inputs[1] + " " + inputs[2];
    c.algorithm = "par-global-es";
    c.supersteps = 20;
    c.replicates = 2;
    c.seed = 66;
    c.threads = 2;
    c.output_format = OutputFormat::kBinary;
    c.output_dir = out.string();
    c.report_path = (out / "corpus.json").string();
    return c;
}

/// Every replicate graph under `dir` (checkpoints excluded), by its path
/// relative to `dir`.
std::map<std::string, std::string> replicate_files(const fs::path& dir) {
    std::map<std::string, std::string> files;
    for (const fs::directory_entry& entry : fs::recursive_directory_iterator(dir)) {
        const fs::path& path = entry.path();
        if (!entry.is_regular_file() || path.parent_path().filename() == "checkpoints" ||
            path.filename().string().rfind("replicate_", 0) != 0) {
            continue;
        }
        files.emplace(fs::relative(path, dir).string(), slurp(path.string()));
    }
    return files;
}

/// The lines of `dir`/corpus_rows.ndjson by member name, with the two
/// timing members (`seconds`, `switches_per_second`) blanked and `dir`
/// itself (the prefix of a synthetic member's input) spelled "<dir>".
std::map<std::string, std::string> untimed_rows(const fs::path& dir) {
    const std::regex timing("\"(seconds|switches_per_second)\": [^,}]*");
    std::istringstream is(slurp((dir / "corpus_rows.ndjson").string()));
    std::map<std::string, std::string> rows;
    for (std::string line; std::getline(is, line);) {
        const std::string name = parse_json(line).string_member("name");
        line = std::regex_replace(line, timing, "\"$1\": _");
        for (std::size_t at; (at = line.find(dir.string())) != std::string::npos;) {
            line.replace(at, dir.string().size(), "<dir>");
        }
        rows.emplace(name, line);
    }
    return rows;
}

TEST(JobManager, RefusesCorpusJobsWithoutAReportOrAPlan) {
    JobManager manager(1, 1);
    PipelineConfig corpus;
    corpus.corpus_spec = "gnp n=100 m=300 count=2";
    corpus.output_dir = scratch_dir("jm_corpus_refused").string();
    // The summary is the job's result: without a report path it could not
    // land anywhere the submitter can read.
    try {
        (void)manager.submit(corpus, nullptr);
        FAIL() << "a corpus without a report was accepted";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("\"report\""), std::string::npos) << e.what();
    }
    // Planning happens at submit: its errors reach the submitter.
    PipelineConfig unplannable;
    unplannable.input_glob = (scratch_dir("jm_corpus_empty_glob") / "*.gesb").string();
    unplannable.report_path = "corpus.json";
    try {
        (void)manager.submit(unplannable, nullptr);
        FAIL() << "a glob matching nothing was accepted";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("matched no files"), std::string::npos)
            << e.what();
    }
    EXPECT_TRUE(manager.jobs().empty());
}

TEST(JobManager, CorpusJobMatchesALocalCorpusRun) {
    // A corpus submitted as one job runs through the same run_corpus as a
    // local run: the same replicate files, byte for byte, and the same
    // rows — under a fixed budget, and under an adaptive one where the
    // two-phase early stop settles every graph after its first wave.
    const std::vector<std::string> inputs = corpus_inputs(scratch_dir("corpus_jm_inputs"));
    const auto corpus_config = [&](bool early_stop, const fs::path& out) {
        PipelineConfig c = file_corpus_config(inputs, out);
        c.supersteps = 3;
        c.replicates = 3;
        if (early_stop) {
            // Every graph's first wave of 3 agrees: the fourth replicate is
            // skipped (scripts/corpus_smoke.sh runs the same check on
            // n = 2000, m = 8000 with the default ess-target).
            c.input_path.clear();
            c.corpus_spec = "gnp n=300 m=1200 count=3";
            c.adaptive = true;
            c.ess_target = 8;
            c.max_supersteps = 60;
            c.replicates = 4;
            c.seed = 5;
            c.threads = 4;
        }
        return c;
    };
    for (const bool early_stop : {false, true}) {
        const std::string label = early_stop ? "adaptive" : "fixed";
        const fs::path local_dir = scratch_dir("corpus_jm_local_" + label);
        const CorpusReport local = run_corpus(plan_corpus(corpus_config(early_stop, local_dir)));
        ASSERT_TRUE(all_succeeded(local)) << label;

        const fs::path svc_dir = scratch_dir("corpus_jm_svc_" + label);
        JobManager manager(4, 1);
        const JobInfo done =
            manager.wait(manager.submit(corpus_config(early_stop, svc_dir), nullptr));
        EXPECT_EQ(done.status, JobStatus::kSucceeded) << label << ": " << done.error;
        EXPECT_EQ(done.replicates, early_stop ? 12u : 9u) << label; // graphs x R

        const std::map<std::string, std::string> local_files = replicate_files(local_dir);
        EXPECT_EQ(local_files.size(), 9u) << label; // 3 graphs x 3 replicates
        EXPECT_TRUE(replicate_files(svc_dir) == local_files) << label;

        for (const CorpusGraphRow& row : local.rows) {
            EXPECT_EQ(row.replicates, 3u) << label << " " << row.name;
            EXPECT_EQ(row.stopped_early, early_stop) << label << " " << row.name;
        }
        EXPECT_EQ(untimed_rows(svc_dir), untimed_rows(local_dir)) << label;
        const JsonValue local_summary = parse_json(slurp((local_dir / "corpus.json").string()));
        const JsonValue svc_summary = parse_json(slurp((svc_dir / "corpus.json").string()));
        const auto& local_rows = local_summary.find("graphs")->array_items;
        const auto& svc_rows = svc_summary.find("graphs")->array_items;
        ASSERT_EQ(svc_rows.size(), local_rows.size()) << label;
        for (std::size_t g = 0; g < local_rows.size(); ++g) {
            EXPECT_EQ(svc_rows[g].uint_member("replicates"),
                      local_rows[g].uint_member("replicates"));
            const JsonValue* local_means = local_rows[g].find("metrics");
            const JsonValue* svc_means = svc_rows[g].find("metrics");
            ASSERT_TRUE(local_means != nullptr && svc_means != nullptr) << label;
            for (const auto& [key, mean] : local_means->object_members) {
                EXPECT_EQ(svc_means->find(key)->number_value, mean.number_value)
                    << label << " " << key;
            }
        }
    }
}

/// Records the (graph, replicate) cells of a corpus job that ran a
/// superstep, and calls on_first from the job's first checkpoint.
class CorpusCheckpointProbe final : public JobObserver {
public:
    void on_superstep(std::size_t graph, std::uint64_t replicate, const Chain&) override {
        const std::lock_guard<std::mutex> lock(mutex);
        cells.emplace(graph, replicate);
    }
    void on_checkpoint(std::size_t, std::uint64_t, const ChainState&,
                       const std::string&) override {
        if (!seen.exchange(true) && on_first != nullptr) on_first();
    }

    std::function<void()> on_first;
    std::atomic<bool> seen{false};
    std::mutex mutex;
    std::set<std::pair<std::size_t, std::uint64_t>> cells;
};

TEST(JobManager, CancelledCorpusJobStartsNoFurtherCells) {
    // A budget of one thread runs one cell at a time, and the cancel lands
    // from inside the first checkpoint: that cell stops there and no other
    // cell ever starts.
    const std::vector<std::string> inputs =
        corpus_inputs(scratch_dir("corpus_cancel_inputs"));
    PipelineConfig config = file_corpus_config(inputs, scratch_dir("corpus_cancel"));
    config.checkpoint_every = 1;

    JobManager manager(1, 1);
    CorpusCheckpointProbe probe;
    const std::uint64_t id =
        manager.submit(config, [&](std::uint64_t job_id, const CorpusPlan* corpus) {
            EXPECT_NE(corpus, nullptr);
            probe.on_first = [&manager, job_id] { EXPECT_TRUE(manager.cancel(job_id)); };
            return &probe;
        });
    const JobInfo info = manager.wait(id);
    EXPECT_EQ(info.status, JobStatus::kCancelled) << info.error;
    EXPECT_EQ(info.replicates, 6u);
    EXPECT_EQ(info.replicates_done, 6u); // every cell reports, none ran on
    EXPECT_EQ(info.error, "cancelled; 6 of 6 replicate(s) stopped");
    EXPECT_EQ(probe.cells.size(), 1u);
}

TEST(JobManager, CancelledCorpusJobLoadsNoMemberItNeverStarted) {
    // One budget thread and a cancel from inside the first checkpoint, as
    // above, over nine members.  The coordinators number max(P, 8) = 8, so
    // the ninth member comes up only after the cancel: its replicates still
    // report, but its input is not read and its directory never created.
    const fs::path dir = scratch_dir("corpus_cancel_nine");
    PipelineConfig config;
    config.corpus_spec = "gnp n=300 m=1200 count=9";
    config.algorithm = "par-global-es";
    config.supersteps = 20;
    config.replicates = 2;
    config.checkpoint_every = 1;
    config.seed = 66;
    config.output_format = OutputFormat::kBinary;
    config.output_dir = dir.string();
    config.report_path = (dir / "corpus.json").string();

    JobManager manager(1, 1);
    CorpusCheckpointProbe probe;
    const std::uint64_t id =
        manager.submit(config, [&](std::uint64_t job_id, const CorpusPlan* corpus) {
            EXPECT_TRUE(corpus != nullptr && corpus->graphs.size() == 9u);
            probe.on_first = [&manager, job_id] { EXPECT_TRUE(manager.cancel(job_id)); };
            return &probe;
        });
    const JobInfo info = manager.wait(id);
    EXPECT_EQ(info.status, JobStatus::kCancelled) << info.error;
    EXPECT_EQ(info.replicates, 18u);
    EXPECT_EQ(info.replicates_done, 18u);
    EXPECT_TRUE(fs::exists(dir / "corpus-inputs" / "gnp-8.gesb"));
    EXPECT_FALSE(fs::exists(dir / "gnp-8"));
}

TEST(JobManager, DrainedCorpusJobResumesByteIdenticallyToALocalRun) {
    const std::vector<std::string> inputs = corpus_inputs(scratch_dir("corpus_drain_inputs"));
    const fs::path ref_dir = scratch_dir("corpus_drain_ref");
    ASSERT_TRUE(all_succeeded(run_corpus(plan_corpus(file_corpus_config(inputs, ref_dir)))));

    const fs::path dir = scratch_dir("corpus_drain");
    PipelineConfig config = file_corpus_config(inputs, dir);
    config.checkpoint_every = 1;
    {
        // One runner: the single job queued behind the corpus is cancelled
        // by drain() in the same locked pass that interrupts the corpus, so
        // once it reads cancelled the corpus's interrupt flag is set.  The
        // first checkpoint holds its cell until then, which makes the stop
        // deterministic.
        JobManager manager(1, 1);
        CorpusCheckpointProbe probe;
        std::atomic<std::uint64_t> queued{0}; // set once the second job is admitted
        probe.on_first = [&manager, &queued] {
            for (;;) {
                const std::uint64_t id = queued.load();
                const std::optional<JobInfo> info =
                    id == 0 ? std::nullopt : manager.job(id);
                if (info.has_value() && info->status == JobStatus::kCancelled) return;
                std::this_thread::yield();
            }
        };
        const std::uint64_t id = manager.submit(config, &probe);
        queued = manager.submit(job_config(scratch_dir("corpus_drain_queued"), 1), nullptr);
        while (!probe.seen.load()) std::this_thread::yield();
        manager.drain();
        const JobInfo info = manager.wait(id);
        EXPECT_EQ(info.status, JobStatus::kInterrupted) << info.error;
        EXPECT_NE(info.error.find("resume-from"), std::string::npos) << info.error;
    }

    // A restarted daemon resumes the corpus from its output-dir.
    config.resume_from = dir.string();
    JobManager manager(2, 1);
    const JobInfo resumed = manager.wait(manager.submit(config, nullptr));
    EXPECT_EQ(resumed.status, JobStatus::kSucceeded) << resumed.error;
    const std::map<std::string, std::string> ref_files = replicate_files(ref_dir);
    EXPECT_EQ(ref_files.size(), 6u);
    EXPECT_TRUE(replicate_files(dir) == ref_files);
}

// ------------------------------------------------- end-to-end over socket

TEST(ServiceServer, SubmitStreamsFramesByteIdenticalToADirectRun) {
    const fs::path dir = scratch_dir("e2e");
    const std::string socket_path = (dir / "sock").string();

    ServerConfig server_config;
    server_config.socket_path = socket_path;
    server_config.threads = 2;
    server_config.max_jobs = 2;
    // Fast sampler ticks so the watch subscription below sees several
    // telemetry frames without stalling the test.
    server_config.telemetry_interval = std::chrono::milliseconds(25);
    ServiceServer server(server_config);
    std::thread server_thread([&server] { server.serve(nullptr); });
    // An assertion failure must not leave server_thread joinable (that
    // would terminate() and eat the failure message).
    struct StopGuard {
        ServiceServer* server;
        std::thread* thread;
        ~StopGuard() {
            server->request_stop();
            if (thread->joinable()) thread->join();
        }
    } guard{&server, &server_thread};

    const fs::path job_dir = dir / "job";
    std::ostringstream config_text;
    config_text << "input-kind = generator\ngenerator = powerlaw\ngen-n = 300\n"
                << "algorithm = par-global-es\nsupersteps = 4\nreplicates = 3\n"
                << "seed = 77\nmetrics = false\noutput-format = binary\n"
                << "checkpoint-every = 2\n"
                << "output-dir = " << job_dir.string() << "\n";

    // Submit and collect the full frame stream.
    std::vector<Frame> frames;
    {
        const FdHandle fd = connect_unix(socket_path);
        Request request;
        request.kind = RequestKind::kSubmit;
        request.config_text = config_text.str();
        write_all(fd.get(), make_request_line(request));
        FrameReader reader;
        for (;;) {
            auto frame = read_frame(fd.get(), reader);
            ASSERT_TRUE(frame.has_value()) << "connection closed before done";
            const bool is_done =
                frame->type == FrameType::kJson &&
                parse_json(frame->payload).string_member("event") == "done";
            frames.push_back(std::move(*frame));
            if (is_done) break;
        }
    }

    // First frame: accepted.  Last: done/succeeded.  Every JSON frame of
    // the stream is one line, and each event kind of a job shows up.
    ASSERT_GE(frames.size(), 3u);
    EXPECT_EQ(parse_json(frames.front().payload).string_member("event"), "accepted");
    const JsonValue done = parse_json(frames.back().payload);
    EXPECT_EQ(done.string_member("status"), "succeeded");
    EXPECT_EQ(done.uint_member("replicates_done"), 3u);
    EXPECT_EQ(done.string_member("algorithm"), "par-global-es");
    std::set<std::string> kinds;
    for (const Frame& frame : frames) {
        if (frame.type != FrameType::kJson) continue;
        EXPECT_EQ(frame.payload.find('\n'), std::string::npos) << frame.payload;
        kinds.insert(parse_json(frame.payload).string_member("event"));
    }
    EXPECT_EQ(kinds, (std::set<std::string>{"accepted", "superstep", "checkpoint",
                                             "replicate", "done"}));

    // The streamed graph bytes — reassembled from chunked transfers —
    // equal a direct pipeline run's outputs.
    const fs::path direct_dir = scratch_dir("e2e_direct");
    const RunReport ref = run_pipeline(job_config(direct_dir, 77));
    ASSERT_TRUE(all_succeeded(ref));
    std::uint64_t graphs = 0;
    GraphTransferState transfer;
    std::string reassembled;
    for (const Frame& frame : frames) {
        if (frame.type == FrameType::kGraph) {
            reassembled.clear();
            if (transfer.begin(decode_graph_payload(frame.payload))) {
                ADD_FAILURE() << "zero-byte replicate graph";
            }
            continue;
        }
        if (frame.type != FrameType::kGraphData) continue;
        reassembled += frame.payload;
        if (transfer.consume(frame.payload.size())) {
            EXPECT_EQ(reassembled,
                      slurp((direct_dir / transfer.header().name).string()))
                << transfer.header().name;
            ++graphs;
        }
    }
    EXPECT_EQ(graphs, 3u);

    // A hybrid (K, T) submission over the same live socket streams the
    // same bytes: the schedule never leaks into results.
    {
        const fs::path hybrid_dir = dir / "job_hybrid";
        const FdHandle fd = connect_unix(socket_path);
        Request request;
        request.kind = RequestKind::kSubmit;
        request.config_text = config_text.str() +
                              "output-dir = " + hybrid_dir.string() +
                              "\npolicy = hybrid\nchain-threads = 2\n";
        write_all(fd.get(), make_request_line(request));
        FrameReader reader;
        GraphTransferState hybrid_transfer;
        std::string bytes;
        std::uint64_t hybrid_graphs = 0;
        for (;;) {
            const auto frame = read_frame(fd.get(), reader);
            ASSERT_TRUE(frame.has_value()) << "connection closed before done";
            if (frame->type == FrameType::kGraph) {
                bytes.clear();
                ASSERT_FALSE(hybrid_transfer.begin(decode_graph_payload(frame->payload)));
                continue;
            }
            if (frame->type == FrameType::kGraphData) {
                bytes += frame->payload;
                if (hybrid_transfer.consume(frame->payload.size())) {
                    EXPECT_EQ(bytes,
                              slurp((direct_dir / hybrid_transfer.header().name).string()))
                        << hybrid_transfer.header().name;
                    ++hybrid_graphs;
                }
                continue;
            }
            const JsonValue event = parse_json(frame->payload);
            if (event.string_member("event") == "done") {
                EXPECT_EQ(event.string_member("status"), "succeeded");
                break;
            }
        }
        EXPECT_EQ(hybrid_graphs, 3u);
    }

    // Status over a second connection sees the finished jobs.
    {
        const FdHandle fd = connect_unix(socket_path);
        Request request;
        request.kind = RequestKind::kStatus;
        write_all(fd.get(), make_request_line(request));
        FrameReader reader;
        const auto frame = read_frame(fd.get(), reader);
        ASSERT_TRUE(frame.has_value());
        const JsonValue status = parse_json(frame->payload);
        ASSERT_EQ(status.find("jobs")->array_items.size(), 2u);
        EXPECT_EQ(status.find("jobs")->array_items[0].string_member("status"),
                  "succeeded");
        EXPECT_EQ(status.find("jobs")->array_items[1].string_member("status"),
                  "succeeded");
    }

    // Cancelling an unknown job answers ok: false.
    {
        const FdHandle fd = connect_unix(socket_path);
        Request request;
        request.kind = RequestKind::kCancel;
        request.job = 999;
        request.has_job = true;
        write_all(fd.get(), make_request_line(request));
        FrameReader reader;
        const auto frame = read_frame(fd.get(), reader);
        ASSERT_TRUE(frame.has_value());
        const JsonValue cancelled = parse_json(frame->payload);
        EXPECT_EQ(cancelled.string_member("event"), "cancelled");
        EXPECT_EQ(cancelled.uint_member("job"), 999u);
        EXPECT_FALSE(cancelled.find("ok")->bool_value);
    }

    // A metrics request answers with one snapshot frame: executor occupancy,
    // per-status job counts, per-job throughput, and the metrics registry.
    {
        const FdHandle fd = connect_unix(socket_path);
        Request request;
        request.kind = RequestKind::kMetrics;
        write_all(fd.get(), make_request_line(request));
        FrameReader reader;
        const auto frame = read_frame(fd.get(), reader);
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ(frame->payload.find('\n'), std::string::npos); // one line
        const JsonValue metrics = parse_json(frame->payload);
        EXPECT_EQ(metrics.string_member("event"), "metrics");
        const JsonValue* executor = metrics.find("executor");
        ASSERT_NE(executor, nullptr);
        EXPECT_EQ(executor->uint_member("threads"), 2u);
        EXPECT_EQ(executor->uint_member("leased"), 0u);
        EXPECT_EQ(executor->uint_member("active_runs"), 0u);
        const JsonValue* jobs = metrics.find("jobs");
        ASSERT_NE(jobs, nullptr);
        EXPECT_EQ(jobs->uint_member("succeeded"), 2u);
        EXPECT_EQ(jobs->uint_member("running"), 0u);
        const JsonValue* per_job = metrics.find("per_job");
        ASSERT_TRUE(per_job != nullptr && per_job->is_array());
        ASSERT_EQ(per_job->array_items.size(), 2u);
        for (const JsonValue& job : per_job->array_items) {
            EXPECT_EQ(job.string_member("status"), "succeeded");
            EXPECT_EQ(job.uint_member("replicates_done"), 3u);
            EXPECT_GT(job.find("seconds")->number_value, 0.0);
            EXPECT_GT(job.find("attempted_switches")->number_value, 0.0);
            EXPECT_GT(job.find("switches_per_second")->number_value, 0.0);
        }
        ASSERT_NE(metrics.find("registry"), nullptr);
        // The test process never called set_metrics_enabled (that's
        // gesmc_serve's startup), so the registry reports itself disabled.
        EXPECT_FALSE(metrics.find("registry")->find("enabled")->bool_value);
    }

    // A prom request answers with one frame wrapping the Prometheus text
    // exposition (the payload is JSON because decode_frame only admits the
    // three frame types; clients print the "exposition" member).
    {
        const FdHandle fd = connect_unix(socket_path);
        Request request;
        request.kind = RequestKind::kProm;
        write_all(fd.get(), make_request_line(request));
        FrameReader reader;
        const auto frame = read_frame(fd.get(), reader);
        ASSERT_TRUE(frame.has_value());
        ASSERT_EQ(frame->type, FrameType::kJson);
        const JsonValue prom = parse_json(frame->payload);
        EXPECT_EQ(prom.string_member("event"), "prom");
        const JsonValue* exposition = prom.find("exposition");
        ASSERT_TRUE(exposition != nullptr && exposition->is_string());
        // The test process never enabled metrics collection, but the daemon
        // always exports its executor occupancy as gauges.
        EXPECT_NE(exposition->string_value.find("gesmc_executor_threads"),
                  std::string::npos)
            << exposition->string_value;
        EXPECT_NE(exposition->string_value.find("# TYPE"), std::string::npos);
    }

    // A watch subscription streams one telemetry frame per sampler tick
    // with strictly monotone sequence numbers until the client hangs up.
    {
        const FdHandle fd = connect_unix(socket_path);
        Request request;
        request.kind = RequestKind::kWatch;
        write_all(fd.get(), make_request_line(request));
        FrameReader reader;
        std::uint64_t last_seq = 0;
        unsigned ticks = 0;
        while (ticks < 3) {
            const auto frame = read_frame(fd.get(), reader);
            ASSERT_TRUE(frame.has_value()) << "watch stream ended early";
            ASSERT_EQ(frame->type, FrameType::kJson);
            const JsonValue tick = parse_json(frame->payload);
            if (tick.string_member("event") != "telemetry") continue;
            const std::uint64_t seq = tick.uint_member("seq");
            EXPECT_GT(seq, last_seq);
            last_seq = seq;
            ASSERT_NE(tick.find("executor"), nullptr);
            EXPECT_EQ(tick.find("executor")->uint_member("threads"), 2u);
            ASSERT_NE(tick.find("rates"), nullptr);
            ++ticks;
        }
        // Dropping the connection (fd closes here) unsubscribes; the daemon
        // keeps serving — the requests below still work.
    }

    // Malformed control data answers with an error frame, not a hangup.
    {
        const FdHandle fd = connect_unix(socket_path);
        write_all(fd.get(), std::string("this is not json\n"));
        FrameReader reader;
        const auto frame = read_frame(fd.get(), reader);
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ(parse_json(frame->payload).string_member("event"), "error");
    }

    // An idle client that connects and never sends a line must not be able
    // to hang the daemon's shutdown (its read is cut by SHUT_RD).
    const FdHandle idle = connect_unix(socket_path);

    // Shutdown via the protocol; serve() drains and returns.
    {
        const FdHandle fd = connect_unix(socket_path);
        Request request;
        request.kind = RequestKind::kShutdown;
        write_all(fd.get(), make_request_line(request));
        FrameReader reader;
        const auto frame = read_frame(fd.get(), reader);
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ(parse_json(frame->payload).string_member("event"), "shutting-down");
    }
    server_thread.join(); // the shutdown frame alone must stop serve()
    EXPECT_FALSE(fs::exists(socket_path)); // socket file cleaned up
}

TEST(ServiceServer, CorpusJobStreamsMemberGraphsAndOneGraphEventPerMember) {
    const fs::path dir = scratch_dir("e2e_corpus");
    ServerConfig server_config;
    server_config.socket_path = (dir / "sock").string();
    server_config.threads = 2;
    server_config.max_jobs = 1;
    ServiceServer server(server_config);
    std::thread server_thread([&server] { server.serve(nullptr); });
    struct StopGuard {
        ServiceServer* server;
        std::thread* thread;
        ~StopGuard() {
            server->request_stop();
            if (thread->joinable()) thread->join();
        }
    } guard{&server, &server_thread};

    const fs::path job_dir = dir / "job";
    Request request;
    request.kind = RequestKind::kSubmit;
    request.config_text = "corpus = gnp n=200 m=600 count=2\nalgorithm = par-global-es\n"
                          "supersteps = 3\nreplicates = 2\nseed = 9\n"
                          "output-format = binary\ncheckpoint-every = 1\n"
                          "output-dir = " + job_dir.string() + "\n"
                          "report = " + (job_dir / "corpus.json").string() + "\n";
    std::vector<Frame> frames;
    const FdHandle fd = connect_unix(server_config.socket_path);
    write_all(fd.get(), make_request_line(request));
    FrameReader reader;
    for (std::optional<Frame> frame; (frame = read_frame(fd.get(), reader));) {
        frames.push_back(std::move(*frame));
    }
    // The connection closes right after `done`: it is the last frame.
    ASSERT_GE(frames.size(), 2u);
    EXPECT_EQ(parse_json(frames.front().payload).string_member("event"), "accepted");
    const JsonValue done = parse_json(frames.back().payload);
    ASSERT_EQ(done.string_member("event"), "done");
    EXPECT_EQ(done.string_member("status"), "succeeded");
    EXPECT_EQ(done.uint_member("replicates"), 4u);
    EXPECT_EQ(done.uint_member("replicates_done"), 4u);

    const std::set<std::string> members{"gnp-0", "gnp-1"};
    std::map<std::string, std::string> row_events; // member -> `graph` frame
    std::set<std::string> kinds;
    GraphTransferState transfer;
    std::string bytes;
    std::uint64_t graphs = 0;
    for (const Frame& frame : frames) {
        if (frame.type == FrameType::kGraph) {
            bytes.clear();
            EXPECT_FALSE(transfer.begin(decode_graph_payload(frame.payload)));
            continue;
        }
        if (frame.type == FrameType::kGraphData) {
            bytes += frame.payload;
            if (transfer.consume(frame.payload.size())) {
                // "<member>/<basename>", the daemon-side file's path
                // relative to the job's output-dir.
                const std::string& name = transfer.header().name;
                const std::string member = name.substr(0, name.find('/'));
                EXPECT_EQ(members.count(member), 1u) << name;
                EXPECT_EQ(row_events.count(member), 0u) << name << " after its graph event";
                EXPECT_EQ(bytes, slurp((job_dir / name).string())) << name;
                ++graphs;
            }
            continue;
        }
        const JsonValue event = parse_json(frame.payload);
        const std::string& kind = event.string_member("event");
        kinds.insert(kind);
        if (kind == "superstep" || kind == "checkpoint" || kind == "replicate") {
            EXPECT_EQ(members.count(event.string_member("graph")), 1u) << frame.payload;
        } else if (kind == "graph") {
            const std::string& name = event.find("row")->string_member("name");
            EXPECT_TRUE(row_events.emplace(name, frame.payload).second)
                << "second graph event for " << name;
        }
    }
    EXPECT_EQ(graphs, 4u);
    EXPECT_EQ(kinds, (std::set<std::string>{"accepted", "superstep", "checkpoint",
                                             "replicate", "graph", "done"}));
    // Each `graph` event carries the member's corpus_rows.ndjson row.
    std::istringstream rows(slurp((job_dir / "corpus_rows.ndjson").string()));
    std::uint64_t rows_seen = 0;
    for (std::string line; std::getline(rows, line); ++rows_seen) {
        const std::string name = parse_json(line).string_member("name");
        ASSERT_EQ(row_events.count(name), 1u) << name;
        EXPECT_NE(row_events[name].find("\"row\": " + line), std::string::npos) << name;
    }
    EXPECT_EQ(rows_seen, 2u);
    EXPECT_EQ(row_events.size(), 2u);
    EXPECT_TRUE(fs::exists(job_dir / "corpus.json"));
}

TEST(ServiceServer, RefusesASecondDaemonOnALiveSocket) {
    const fs::path dir = scratch_dir("e2e_live");
    ServerConfig config;
    config.socket_path = (dir / "sock").string();
    config.threads = 1;
    config.max_jobs = 1;
    ServiceServer server(config);
    EXPECT_THROW(ServiceServer second(config), Error);
    // No serve() ever ran; destruction must still be clean.
}

} // namespace
} // namespace gesmc
