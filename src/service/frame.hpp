/// \file frame.hpp
/// \brief Wire framing for the sampling-service protocol.
///
/// The protocol (docs/service_protocol.md) has two directions with two
/// framings:
///
///   * client -> daemon: newline-delimited JSON *control frames* — one
///     request object per line (submit / status / cancel / shutdown).  The
///     submitted pipeline config document travels verbatim as a JSON string
///     inside the submit frame ("key = value" lines, pipeline/config.hpp).
///   * daemon -> client: *length-prefixed frames* — one type byte, a 64-bit
///     little-endian payload length, then the payload.  Type 'J' carries a
///     JSON event/response document; a replicate graph travels as one 'G'
///     *header* frame (replicate index, basename, total byte count)
///     followed by bounded 'D' *data chunk* frames whose payloads
///     concatenate to the replicate's output file — byte-identical to what
///     a local run writes, streamed in O(chunk) memory on both ends with
///     no ceiling on the file size.
///
/// Everything here is pure encode/decode over in-memory buffers —
/// deliberately free of sockets so tests can round-trip and fuzz frames
/// without a daemon (tests/test_service.cpp).
#pragma once

#include "util/check.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace gesmc {

// ------------------------------------------------- daemon -> client frames

/// Frame type byte on the daemon->client stream.
enum class FrameType : unsigned char {
    kJson = 'J',       ///< UTF-8 JSON event / response document
    kGraph = 'G',      ///< graph transfer header (see GraphFrame)
    kGraphData = 'D',  ///< raw data chunk of the current graph transfer
};

struct Frame {
    FrameType type = FrameType::kJson;
    std::string payload;
};

/// Upper bound a decoder accepts for one payload — bounds memory against a
/// corrupt or hostile length prefix, not legitimate traffic (graph bytes
/// travel in kGraphChunkBytes-bounded 'D' chunks).
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 32;

/// Protocol bound on one 'D' chunk's payload: the sender splits a replicate
/// file into chunks of at most this size, so both ends stream a transfer of
/// any length in O(chunk) memory.  Receivers must reject larger chunks
/// (GraphTransferState enforces it).
inline constexpr std::uint64_t kGraphChunkBytes = 1ull << 20;

/// Encodes type byte + LE64 length + payload.
[[nodiscard]] std::string encode_frame(FrameType type, std::string_view payload);

/// Incremental decoder: examines [data, data+size).  Returns nullopt (and
/// consumed = 0) while the buffer holds no complete frame; otherwise the
/// frame with consumed = its encoded size — callers erase the prefix and
/// call again.  Throws Error on a malformed frame (unknown type byte,
/// length above kMaxFramePayload).
[[nodiscard]] std::optional<Frame> decode_frame(const char* data, std::size_t size,
                                                std::size_t& consumed);

/// Buffering decoder over a byte stream: feed() appends raw bytes, next()
/// yields complete frames until the buffer runs dry.
class FrameReader {
public:
    void feed(const char* data, std::size_t size) { buffer_.append(data, size); }

    /// Next complete frame, or nullopt when more bytes are needed.  Throws
    /// Error on malformed input (the stream is unrecoverable then).
    [[nodiscard]] std::optional<Frame> next();

private:
    std::string buffer_;
    std::size_t offset_ = 0; ///< consumed prefix, compacted lazily
};

/// Payload of a kGraph *header* frame: LE64 replicate index, LE32 basename
/// length, the basename (e.g. "replicate_03.gesb"), then LE64 total byte
/// count of the file.  The bytes themselves follow in kGraphData chunks.
struct GraphFrame {
    std::uint64_t replicate = 0;
    std::string name;               ///< output basename the client saves under
    std::uint64_t total_bytes = 0;  ///< exact size of the transfer that follows
};

[[nodiscard]] std::string encode_graph_payload(const GraphFrame& graph);

/// Throws Error on a truncated or inconsistent payload.
[[nodiscard]] GraphFrame decode_graph_payload(std::string_view payload);

/// Receive-side state machine of one chunked graph transfer: validates the
/// header/chunk sequencing and the per-chunk and total-size caps while the
/// caller sinks the actual bytes (to disk — the point of chunking is that
/// neither end buffers the file).  Usage: begin() on each 'G' frame (true =
/// zero-byte transfer, already complete), consume(chunk size) on each 'D'
/// frame (true = transfer complete).  Throws Error on protocol violations:
/// a chunk with no open transfer, a header while one is open, a chunk over
/// kGraphChunkBytes, or more bytes than the header announced.
class GraphTransferState {
public:
    [[nodiscard]] bool open() const noexcept { return open_; }

    /// Header frame of the GraphFrame the transfer delivers; open() only.
    [[nodiscard]] const GraphFrame& header() const { return header_; }

    [[nodiscard]] std::uint64_t remaining() const noexcept {
        return header_.total_bytes - received_;
    }

    bool begin(const GraphFrame& header);
    bool consume(std::uint64_t chunk_bytes);

private:
    GraphFrame header_;
    std::uint64_t received_ = 0;
    bool open_ = false;
};

// ------------------------------------------------- client -> daemon frames

enum class RequestKind {
    kSubmit,    ///< run a pipeline config document as a job
    kStatus,    ///< report all jobs (or one, when a job id is given)
    kCancel,    ///< stop a queued or running job
    kMetrics,   ///< snapshot executor load + observability counters
    kWatch,     ///< subscribe: one telemetry 'J' frame per sampler tick
    kProm,      ///< Prometheus text exposition of the metrics registry
    kShutdown,  ///< drain all jobs and exit the daemon
};

[[nodiscard]] std::string to_string(RequestKind kind);

struct Request {
    RequestKind kind = RequestKind::kStatus;
    std::string config_text;  ///< submit: the config document, verbatim
    std::uint64_t job = 0;    ///< cancel (required), status (optional)
    bool has_job = false;
};

/// Parses one control line (no trailing newline required).  Throws Error on
/// malformed JSON, an unknown "type", or missing required members.
[[nodiscard]] Request parse_request(const std::string& json_line);

/// Builds the NDJSON control line for `request`, trailing '\n' included.
[[nodiscard]] std::string make_request_line(const Request& request);

/// "text" JSON-escaped and double-quoted, for callers that assemble JSON
/// text without a JsonWriter (util/json_writer.hpp).
[[nodiscard]] std::string json_quote(std::string_view text);

} // namespace gesmc
