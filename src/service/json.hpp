/// \file json.hpp
/// \brief Minimal JSON parser for the sampling-service control protocol.
///
/// The service's client->daemon control frames are newline-delimited JSON
/// documents (docs/service_protocol.md); the daemon's streamed event frames
/// carry JSON payloads built with util/json_writer.hpp's JsonWriter.  This
/// is the matching reader: a strict, dependency-free recursive-descent
/// parser covering exactly RFC 8259 — objects, arrays, strings (with
/// \uXXXX escapes incl. surrogate pairs), numbers, true/false/null.
/// Malformed input throws Error with a byte offset; nothing is ever
/// guessed.  Not built for speed: control frames are tens of bytes, the
/// large payloads (graphs) travel as binary frames and never touch JSON.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gesmc {

/// One parsed JSON value.  A tagged tree; cheap enough for control frames.
class JsonValue {
public:
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

    Kind kind = Kind::kNull;
    bool bool_value = false;
    double number_value = 0;
    /// Exact value of an unsigned-integer-shaped number (no sign, fraction
    /// or exponent, fits in 64 bits).  number_value alone would round 64-bit
    /// ids and seeds through double's 53-bit mantissa — uint_member returns
    /// this when set.
    bool has_uint = false;
    std::uint64_t uint_value = 0;
    std::string string_value;
    std::vector<JsonValue> array_items;
    /// Insertion order preserved (duplicate keys: last wins on lookup).
    std::vector<std::pair<std::string, JsonValue>> object_members;

    [[nodiscard]] bool is_null() const noexcept { return kind == Kind::kNull; }
    [[nodiscard]] bool is_bool() const noexcept { return kind == Kind::kBool; }
    [[nodiscard]] bool is_number() const noexcept { return kind == Kind::kNumber; }
    [[nodiscard]] bool is_string() const noexcept { return kind == Kind::kString; }
    [[nodiscard]] bool is_array() const noexcept { return kind == Kind::kArray; }
    [[nodiscard]] bool is_object() const noexcept { return kind == Kind::kObject; }

    /// Member lookup (objects only): null when absent.  Last duplicate wins.
    [[nodiscard]] const JsonValue* find(const std::string& key) const noexcept;

    /// Typed member accessors for protocol handling: throw Error naming the
    /// key when it is absent or has the wrong type.
    [[nodiscard]] const std::string& string_member(const std::string& key) const;
    [[nodiscard]] std::uint64_t uint_member(const std::string& key) const;
};

/// Parses exactly one JSON document; trailing non-whitespace is an error.
/// Throws Error on malformed input (message includes the byte offset).
[[nodiscard]] JsonValue parse_json(const std::string& text);

} // namespace gesmc
