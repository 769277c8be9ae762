/// \file format.hpp
/// \brief Aligned text tables, CSV emission and small string formatters.
///
/// Every figure/table bench prints (a) a human-readable aligned table
/// mirroring the paper's presentation and (b) machine-readable CSV lines
/// (prefixed with "CSV,") so results can be post-processed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace gesmc {

/// Builds an aligned monospace table row by row and renders it to a stream.
class TextTable {
public:
    explicit TextTable(std::vector<std::string> header);

    /// Appends a data row; must have the same arity as the header.
    void add_row(std::vector<std::string> row);

    /// Renders with column alignment; numeric-looking cells right-aligned.
    void print(std::ostream& os) const;

    /// Emits one "CSV,<header...>" line followed by "CSV,<row...>" lines.
    void print_csv(std::ostream& os, const std::string& tag) const;

    [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/// Formats v with the given precision, trimming trailing zeros ("1.25", "3").
std::string fmt_double(double v, int precision = 3);

/// Human-readable quantity with K/M/B suffix ("1.2M").
std::string fmt_si(double v);

/// Seconds with sub-second precision ("12.3 ms", "4.56 s").
std::string fmt_seconds(double s);

/// `index` zero-padded to the digit width of `count - 1` ("07" of 12), so
/// that lexicographic order is numeric order.
std::string padded_index(std::uint64_t index, std::uint64_t count);

/// `s` without leading and trailing whitespace.
std::string trim(const std::string& s);

} // namespace gesmc
