/// \file binio.hpp
/// \brief Binary encoding primitives shared by every GESB-family format.
///
/// One wire encoding — LEB128 varints and IEEE-754 little-endian doubles —
/// serves the graph and chain-state sections (graph/io.cpp) and the analysis
/// sidecars (estimator state, see analysis/ess.*).  Readers take the name of
/// the enclosing section (`what`) so a truncated checkpoint is reported as
/// such, not as a broken graph file; the Error carries that message alone.
/// Bulk payloads (a graph's edge keys)
/// are encoded into one buffer and decoded from one buffer: per-byte stream
/// calls cost more than the arithmetic.
#pragma once

#include "util/check.hpp"

#include <bit>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>

namespace gesmc::binio {

inline void append_varint(std::string& out, std::uint64_t v) {
    while (v >= 0x80) {
        out.push_back(static_cast<char>((v & 0x7F) | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

inline void write_varint(std::ostream& os, std::uint64_t v) {
    char buf[10];
    int len = 0;
    while (v >= 0x80) {
        buf[len++] = static_cast<char>((v & 0x7F) | 0x80);
        v >>= 7;
    }
    buf[len++] = static_cast<char>(v);
    os.write(buf, len);
}

inline std::uint64_t read_varint(std::istream& is, const char* what) {
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        const int byte = is.get();
        if (byte == std::char_traits<char>::eof()) throw Error(std::string(what) + " truncated");
        // The 10th byte (shift 63) has room for one data bit only; higher
        // bits would be shifted out silently.
        if (shift == 63 && (byte & 0x7E) != 0) {
            throw Error(std::string(what) + ": varint overflows 64 bits");
        }
        v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
        if ((byte & 0x80) == 0) return v;
    }
    throw Error(std::string(what) + ": varint longer than 64 bits");
}

/// Doubles travel as their IEEE-754 bit pattern, little-endian: restores
/// must be bit-exact (the estimator's accumulators feed deterministic stop
/// verdicts), so no text round-trip is acceptable here.
inline void write_double_le(std::ostream& os, double value) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
    char buf[8];
    for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((bits >> (8 * i)) & 0xFF);
    os.write(buf, sizeof(buf));
}

inline double read_double_le(std::istream& is, const char* what) {
    char buf[8];
    is.read(buf, sizeof(buf));
    if (is.gcount() != sizeof(buf)) throw Error(std::string(what) + " truncated");
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
        bits |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i]))
                << (8 * i);
    }
    return std::bit_cast<double>(bits);
}

/// Everything left in `is`, read in large blocks.
inline std::string read_rest(std::istream& is) {
    std::string out;
    char block[1 << 16];
    while (is.read(block, sizeof(block)) || is.gcount() > 0) {
        out.append(block, static_cast<std::size_t>(is.gcount()));
    }
    return out;
}

/// Decodes from one in-memory buffer with the stream readers' checks and
/// error strings.  The buffer must outlive the decoder.
class Decoder {
public:
    Decoder(std::string_view bytes, const char* what) noexcept
        : pos_(bytes.data()), end_(bytes.data() + bytes.size()), what_(what) {}

    [[nodiscard]] std::size_t remaining() const noexcept {
        return static_cast<std::size_t>(end_ - pos_);
    }

    /// The next byte, or -1 at the end (istream::get's contract).
    int get() noexcept { return pos_ == end_ ? -1 : static_cast<unsigned char>(*pos_++); }

    std::uint64_t varint() {
        std::uint64_t v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            if (pos_ == end_) throw Error(std::string(what_) + " truncated");
            const unsigned byte = static_cast<unsigned char>(*pos_++);
            if (shift == 63 && (byte & 0x7E) != 0) {
                throw Error(std::string(what_) + ": varint overflows 64 bits");
            }
            v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
            if ((byte & 0x80) == 0) return v;
        }
        throw Error(std::string(what_) + ": varint longer than 64 bits");
    }

private:
    const char* pos_;
    const char* end_;
    const char* what_;
};

} // namespace gesmc::binio
