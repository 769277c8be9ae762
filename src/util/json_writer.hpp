/// \file json_writer.hpp
/// \brief The library's one JSON emitter.
///
/// Every JSON document the library writes goes through JsonWriter except
/// the Chrome trace (obs/trace.cpp): the run report, the corpus summary
/// and its NDJSON rows, the metrics snapshot, telemetry rows, the service's
/// frames and request lines, and event-log lines.  Files are pretty
/// (two-space indent, one member per line); frames, rows and log lines are
/// one line: `{"key": value, "key": [1, 2]}`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace gesmc {

/// Writes `s` double-quoted with RFC 8259 escaping to `os` — the one JSON
/// string-escaping routine in the library.
void write_json_escaped(std::ostream& os, std::string_view s);

enum class JsonLayout {
    kPretty,  ///< indented, one member per line (files)
    kLine,    ///< one line, no trailing newline (frames, rows, log lines)
};

/// Minimal streaming JSON emitter: tracks nesting and comma placement,
/// escapes strings, prints doubles round-trippably (non-finite as null).
class JsonWriter {
public:
    explicit JsonWriter(std::ostream& os, JsonLayout layout = JsonLayout::kPretty)
        : os_(os), layout_(layout) {}

    JsonWriter& begin_object();
    JsonWriter& end_object();
    JsonWriter& begin_array();
    JsonWriter& end_array();

    /// Emits the key of the next member (object context only).
    JsonWriter& key(std::string_view name);

    JsonWriter& value(std::string_view v);
    JsonWriter& value(const char* v) { return value(std::string_view(v)); }
    JsonWriter& value(std::uint64_t v);
    JsonWriter& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }
    JsonWriter& value(std::int64_t v);
    JsonWriter& value(double v);
    JsonWriter& value(bool v);

    template <typename T>
    JsonWriter& kv(std::string_view name, const T& v) {
        key(name);
        return value(v);
    }

private:
    void separate();
    void close(char bracket);

    std::ostream& os_;
    JsonLayout layout_;
    std::vector<bool> first_in_scope_;
    bool pending_key_ = false;
};

} // namespace gesmc
