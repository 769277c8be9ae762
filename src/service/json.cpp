#include "service/json.hpp"

#include "util/check.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace gesmc {

namespace {

/// Nesting bound: control frames are flat; anything deeper than this is
/// hostile or broken input, not a protocol message.
constexpr int kMaxDepth = 64;

class Parser {
public:
    explicit Parser(const std::string& text) : text_(text) {}

    JsonValue parse_document() {
        JsonValue v = parse_value(0);
        skip_whitespace();
        if (pos_ != text_.size()) fail("trailing content");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& what) const {
        throw Error("JSON: " + what + " at byte " + std::to_string(pos_));
    }

    void skip_whitespace() {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
            ++pos_;
        }
    }

    char peek() {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    char take() {
        const char c = peek();
        ++pos_;
        return c;
    }

    void expect_literal(const char* literal) {
        for (const char* p = literal; *p != '\0'; ++p) {
            if (pos_ >= text_.size() || text_[pos_] != *p) {
                fail(std::string("expected \"") + literal + "\"");
            }
            ++pos_;
        }
    }

    JsonValue parse_value(int depth) {
        if (depth > kMaxDepth) fail("nesting too deep");
        skip_whitespace();
        const char c = peek();
        switch (c) {
        case '{':
            return parse_object(depth);
        case '[':
            return parse_array(depth);
        case '"': {
            JsonValue v;
            v.kind = JsonValue::Kind::kString;
            v.string_value = parse_string();
            return v;
        }
        case 't': {
            expect_literal("true");
            JsonValue v;
            v.kind = JsonValue::Kind::kBool;
            v.bool_value = true;
            return v;
        }
        case 'f': {
            expect_literal("false");
            JsonValue v;
            v.kind = JsonValue::Kind::kBool;
            v.bool_value = false;
            return v;
        }
        case 'n':
            expect_literal("null");
            return JsonValue{};
        default:
            if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
            fail(std::string("unexpected character '") + c + "'");
        }
    }

    JsonValue parse_object(int depth) {
        JsonValue v;
        v.kind = JsonValue::Kind::kObject;
        take(); // '{'
        skip_whitespace();
        if (peek() == '}') {
            take();
            return v;
        }
        for (;;) {
            skip_whitespace();
            if (peek() != '"') fail("expected object key string");
            std::string key = parse_string();
            skip_whitespace();
            if (take() != ':') fail("expected ':' after object key");
            v.object_members.emplace_back(std::move(key), parse_value(depth + 1));
            skip_whitespace();
            const char next = take();
            if (next == '}') return v;
            if (next != ',') fail("expected ',' or '}' in object");
        }
    }

    JsonValue parse_array(int depth) {
        JsonValue v;
        v.kind = JsonValue::Kind::kArray;
        take(); // '['
        skip_whitespace();
        if (peek() == ']') {
            take();
            return v;
        }
        for (;;) {
            v.array_items.push_back(parse_value(depth + 1));
            skip_whitespace();
            const char next = take();
            if (next == ']') return v;
            if (next != ',') fail("expected ',' or ']' in array");
        }
    }

    /// RFC 8259 number: -?int frac? exp?; parsed via strtod after a strict
    /// shape check (strtod alone accepts "0x1", "inf", leading '+', ...).
    JsonValue parse_number() {
        const std::size_t start = pos_;
        if (peek() == '-') take();
        if (peek() == '0') {
            take();
        } else if (std::isdigit(static_cast<unsigned char>(peek())) != 0) {
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
                ++pos_;
            }
        } else {
            fail("malformed number");
        }
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (pos_ >= text_.size() ||
                std::isdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
                fail("malformed number fraction");
            }
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
                ++pos_;
            }
        }
        if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
            if (pos_ >= text_.size() ||
                std::isdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
                fail("malformed number exponent");
            }
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
                ++pos_;
            }
        }
        JsonValue v;
        v.kind = JsonValue::Kind::kNumber;
        const std::string token = text_.substr(start, pos_ - start);
        v.number_value = std::strtod(token.c_str(), nullptr); // lint: allow(strto-null-end)
        // Integer-shaped and in range: keep the exact value alongside the
        // double (64-bit seeds/ids overflow double's 53-bit mantissa).
        if (token.find_first_of(".eE-") == std::string::npos) {
            errno = 0;
            char* end = nullptr;
            const unsigned long long exact = std::strtoull(token.c_str(), &end, 10);
            if (errno == 0 && end != nullptr && *end == '\0') {
                v.has_uint = true;
                v.uint_value = exact;
            }
        }
        return v;
    }

    unsigned parse_hex4() {
        unsigned value = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = take();
            value <<= 4;
            if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
            else fail("malformed \\u escape");
        }
        return value;
    }

    void append_utf8(std::string& out, std::uint32_t cp) {
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    std::string parse_string() {
        take(); // opening quote
        std::string out;
        for (;;) {
            const char c = take();
            if (c == '"') return out;
            if (static_cast<unsigned char>(c) < 0x20) {
                fail("unescaped control character in string");
            }
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            const char esc = take();
            switch (esc) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                std::uint32_t cp = parse_hex4();
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // High surrogate: a low surrogate escape must follow.
                    if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                        text_[pos_ + 1] != 'u') {
                        fail("lone high surrogate");
                    }
                    pos_ += 2;
                    const std::uint32_t low = parse_hex4();
                    if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
                    cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                    fail("lone low surrogate");
                }
                append_utf8(out, cp);
                break;
            }
            default:
                fail("unknown string escape");
            }
        }
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

} // namespace

const JsonValue* JsonValue::find(const std::string& key) const noexcept {
    const JsonValue* found = nullptr;
    for (const auto& [name, value] : object_members) {
        if (name == key) found = &value;
    }
    return found;
}

const std::string& JsonValue::string_member(const std::string& key) const {
    const JsonValue* v = find(key);
    if (v == nullptr) throw Error("JSON: missing member \"" + key + "\"");
    if (!v->is_string()) throw Error("JSON: member \"" + key + "\" is not a string");
    return v->string_value;
}

std::uint64_t JsonValue::uint_member(const std::string& key) const {
    const JsonValue* v = find(key);
    if (v == nullptr) throw Error("JSON: missing member \"" + key + "\"");
    if (!v->is_number()) throw Error("JSON: member \"" + key + "\" is not a number");
    // Integer-shaped input carries its exact value (64-bit seeds/ids do not
    // survive the double round-trip).
    if (v->has_uint) return v->uint_value;
    // The upper bound makes the cast defined (a double >= 2^63 would be
    // UB to convert); protocol integers are job/replicate ids, far below.
    if (!(v->number_value >= 0 && std::floor(v->number_value) == v->number_value &&
          v->number_value < 9223372036854775808.0)) {
        throw Error("JSON: member \"" + key + "\" is not a representable non-negative integer");
    }
    return static_cast<std::uint64_t>(v->number_value);
}

JsonValue parse_json(const std::string& text) { return Parser(text).parse_document(); }

} // namespace gesmc
