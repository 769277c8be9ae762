#include "util/json_writer.hpp"

#include "util/check.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>

namespace gesmc {

void JsonWriter::separate() {
    if (pending_key_) {
        pending_key_ = false;
        return; // value follows its key
    }
    if (first_in_scope_.empty()) return;
    const bool first = first_in_scope_.back();
    first_in_scope_.back() = false;
    if (layout_ == JsonLayout::kLine) {
        if (!first) os_ << ", ";
        return;
    }
    if (!first) os_ << ',';
    os_ << '\n';
    for (std::size_t i = 0; i < first_in_scope_.size(); ++i) os_ << "  ";
}

void JsonWriter::close(char bracket) {
    GESMC_CHECK(!first_in_scope_.empty(), "JsonWriter: unbalanced close");
    const bool empty = first_in_scope_.back();
    first_in_scope_.pop_back();
    if (!empty && layout_ == JsonLayout::kPretty) {
        os_ << '\n';
        for (std::size_t i = 0; i < first_in_scope_.size(); ++i) os_ << "  ";
    }
    os_ << bracket;
}

JsonWriter& JsonWriter::begin_object() {
    separate();
    os_ << '{';
    first_in_scope_.push_back(true);
    return *this;
}

JsonWriter& JsonWriter::end_object() {
    close('}');
    return *this;
}

JsonWriter& JsonWriter::begin_array() {
    separate();
    os_ << '[';
    first_in_scope_.push_back(true);
    return *this;
}

JsonWriter& JsonWriter::end_array() {
    close(']');
    return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
    separate();
    write_json_escaped(os_, name);
    os_ << ": ";
    pending_key_ = true;
    return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
    separate();
    write_json_escaped(os_, v);
    return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
    separate();
    os_ << v;
    return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
    separate();
    os_ << v;
    return *this;
}

JsonWriter& JsonWriter::value(double v) {
    separate();
    if (!std::isfinite(v)) {
        // JSON has no Infinity/NaN; null is the conventional stand-in.
        os_ << "null";
        return *this;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os_ << buf;
    return *this;
}

JsonWriter& JsonWriter::value(bool v) {
    separate();
    os_ << (v ? "true" : "false");
    return *this;
}

void write_json_escaped(std::ostream& os, std::string_view s) {
    os << '"';
    for (const char c : s) {
        switch (c) {
        case '"':
            os << "\\\"";
            break;
        case '\\':
            os << "\\\\";
            break;
        case '\n':
            os << "\\n";
            break;
        case '\t':
            os << "\\t";
            break;
        case '\r':
            os << "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

} // namespace gesmc
