#include "service/frame.hpp"

#include "service/json.hpp"
#include "util/json_writer.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <utility>

namespace gesmc {

namespace {

void append_le(std::string& out, std::uint64_t value, unsigned bytes) {
    for (unsigned i = 0; i < bytes; ++i) {
        out.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
    }
}

std::uint64_t read_le(std::string_view data, std::size_t offset, unsigned bytes) {
    std::uint64_t value = 0;
    for (unsigned i = 0; i < bytes; ++i) {
        value |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(data[offset + i]))
                 << (8 * i);
    }
    return value;
}

} // namespace

std::string encode_frame(FrameType type, std::string_view payload) {
    // Enforced on both ends: encoding an over-limit frame would hand every
    // conforming decoder something it must reject mid-stream.  Bulk data
    // (replicate graphs) never comes near this — it travels in
    // kGraphChunkBytes-bounded 'D' chunks.
    if (payload.size() > kMaxFramePayload) {
        throw Error("frame: payload of " + std::to_string(payload.size()) +
                    " bytes exceeds the protocol maximum");
    }
    std::string out;
    out.reserve(9 + payload.size());
    out.push_back(static_cast<char>(type));
    append_le(out, payload.size(), 8);
    out.append(payload);
    return out;
}

std::optional<Frame> decode_frame(const char* data, std::size_t size,
                                  std::size_t& consumed) {
    consumed = 0;
    if (size == 0) return std::nullopt;
    const unsigned char type = static_cast<unsigned char>(data[0]);
    if (type != static_cast<unsigned char>(FrameType::kJson) &&
        type != static_cast<unsigned char>(FrameType::kGraph) &&
        type != static_cast<unsigned char>(FrameType::kGraphData)) {
        throw Error("frame: unknown type byte " + std::to_string(type));
    }
    if (size < 9) return std::nullopt;
    const std::uint64_t length = read_le(std::string_view(data, size), 1, 8);
    if (length > kMaxFramePayload) {
        throw Error("frame: payload length " + std::to_string(length) +
                    " exceeds the protocol maximum");
    }
    // Per-type cap, enforced from the 9-byte header alone: a 'D' chunk is
    // bounded by the protocol chunk size, so a hostile length prefix can
    // never make a receiver buffer gigabytes before GraphTransferState
    // gets a chance to reject it — the O(chunk) memory bound holds even
    // against a corrupt peer.
    if (type == static_cast<unsigned char>(FrameType::kGraphData) &&
        length > kGraphChunkBytes) {
        throw Error("frame: data chunk of " + std::to_string(length) +
                    " bytes exceeds the protocol chunk bound");
    }
    if (size < 9 + length) return std::nullopt;
    Frame frame;
    frame.type = static_cast<FrameType>(type);
    frame.payload.assign(data + 9, length);
    consumed = 9 + static_cast<std::size_t>(length);
    return frame;
}

std::optional<Frame> FrameReader::next() {
    std::size_t consumed = 0;
    std::optional<Frame> frame =
        decode_frame(buffer_.data() + offset_, buffer_.size() - offset_, consumed);
    if (!frame.has_value()) return std::nullopt;
    offset_ += consumed;
    // Compact once the dead prefix dominates, so long sessions stay O(frame).
    if (offset_ > buffer_.size() / 2) {
        buffer_.erase(0, offset_);
        offset_ = 0;
    }
    return frame;
}

std::string encode_graph_payload(const GraphFrame& graph) {
    if (graph.name.size() > 0xFFFFFFFFull) throw Error("graph frame: name too long");
    std::string out;
    out.reserve(20 + graph.name.size());
    append_le(out, graph.replicate, 8);
    append_le(out, graph.name.size(), 4);
    out.append(graph.name);
    append_le(out, graph.total_bytes, 8);
    return out;
}

GraphFrame decode_graph_payload(std::string_view payload) {
    if (payload.size() < 20) throw Error("graph frame: truncated header");
    GraphFrame graph;
    graph.replicate = read_le(payload, 0, 8);
    const std::uint64_t name_len = read_le(payload, 8, 4);
    if (12 + name_len + 8 != payload.size()) {
        throw Error("graph frame: inconsistent header length");
    }
    graph.name.assign(payload.substr(12, name_len));
    // "<basename>" or "<member>/<basename>": at most one '/', between two
    // plain components — nothing a client could resolve outside its
    // stream directory.
    const auto plain = [](std::string_view part) {
        return !part.empty() && part != "." && part != ".." &&
               part.find_first_of("/\\") == std::string_view::npos;
    };
    const std::string_view name = graph.name;
    const std::size_t slash = name.find('/');
    const bool safe = slash == std::string_view::npos
                          ? plain(name)
                          : plain(name.substr(0, slash)) && plain(name.substr(slash + 1));
    if (!safe) throw Error("graph frame: name is not a basename or member/basename");
    graph.total_bytes = read_le(payload, 12 + name_len, 8);
    return graph;
}

bool GraphTransferState::begin(const GraphFrame& header) {
    if (open_) {
        throw Error("graph transfer: header for \"" + header.name + "\" while \"" +
                    header_.name + "\" is still open");
    }
    header_ = header;
    received_ = 0;
    open_ = header.total_bytes > 0;
    return !open_; // a zero-byte transfer is complete at the header
}

bool GraphTransferState::consume(std::uint64_t chunk_bytes) {
    if (!open_) throw Error("graph transfer: data chunk with no open transfer");
    if (chunk_bytes == 0) throw Error("graph transfer: empty data chunk");
    if (chunk_bytes > kGraphChunkBytes) {
        throw Error("graph transfer: chunk of " + std::to_string(chunk_bytes) +
                    " bytes exceeds the protocol chunk bound");
    }
    if (chunk_bytes > remaining()) {
        throw Error("graph transfer: \"" + header_.name + "\" overflows its announced " +
                    std::to_string(header_.total_bytes) + " bytes");
    }
    received_ += chunk_bytes;
    if (received_ == header_.total_bytes) {
        open_ = false;
        return true;
    }
    return false;
}

namespace {

constexpr std::pair<RequestKind, const char*> kRequestKinds[] = {
    {RequestKind::kSubmit, "submit"},   {RequestKind::kStatus, "status"},
    {RequestKind::kCancel, "cancel"},   {RequestKind::kMetrics, "metrics"},
    {RequestKind::kWatch, "watch"},     {RequestKind::kProm, "prom"},
    {RequestKind::kShutdown, "shutdown"},
};

} // namespace

std::string to_string(RequestKind kind) {
    for (const auto& [k, name] : kRequestKinds) {
        if (k == kind) return name;
    }
    return "unknown";
}

std::string json_quote(std::string_view text) {
    std::ostringstream os;
    write_json_escaped(os, text);
    return os.str();
}

Request parse_request(const std::string& json_line) {
    const JsonValue doc = parse_json(json_line);
    if (!doc.is_object()) throw Error("request: not a JSON object");
    const std::string& type = doc.string_member("type");
    const auto* row = std::find_if(std::begin(kRequestKinds), std::end(kRequestKinds),
                                   [&](const auto& r) { return type == r.second; });
    if (row == std::end(kRequestKinds)) {
        throw Error("request: unknown type \"" + type + "\"");
    }
    Request request;
    request.kind = row->first;
    if (request.kind == RequestKind::kSubmit) {
        request.config_text = doc.string_member("config");
    }
    // A cancel names its job; a status request may.
    if (request.kind == RequestKind::kCancel ||
        (request.kind == RequestKind::kStatus && doc.find("job") != nullptr)) {
        request.job = doc.uint_member("job");
        request.has_job = true;
    }
    return request;
}

std::string make_request_line(const Request& request) {
    std::ostringstream os;
    JsonWriter w(os, JsonLayout::kLine);
    w.begin_object();
    w.kv("type", to_string(request.kind));
    if (request.kind == RequestKind::kSubmit) w.kv("config", request.config_text);
    if (request.has_job) w.kv("job", request.job);
    w.end_object();
    os << '\n';
    return os.str();
}

} // namespace gesmc
