#include "util/format.hpp"

#include "util/check.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace gesmc {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {
    GESMC_CHECK(!header_.empty(), "table needs at least one column");
}

void TextTable::add_row(std::vector<std::string> row) {
    GESMC_CHECK(row.size() == header_.size(), "row arity mismatch");
    rows_.push_back(std::move(row));
}

namespace {

bool looks_numeric(const std::string& s) {
    if (s.empty()) return false;
    std::size_t digits = 0;
    for (char c : s) {
        if (std::isdigit(static_cast<unsigned char>(c))) ++digits;
    }
    return digits * 2 >= s.size();
}

} // namespace

void TextTable::print(std::ostream& os) const {
    std::vector<std::size_t> width(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
    for (const auto& row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());

    auto print_row = [&](const std::vector<std::string>& row, bool is_header) {
        os << "|";
        for (std::size_t c = 0; c < row.size(); ++c) {
            const bool right = !is_header && looks_numeric(row[c]);
            os << ' ' << (right ? std::right : std::left)
               << std::setw(static_cast<int>(width[c])) << row[c] << " |";
        }
        os << '\n';
    };
    print_row(header_, true);
    os << "|";
    for (std::size_t c = 0; c < header_.size(); ++c) os << std::string(width[c] + 2, '-') << "|";
    os << '\n';
    for (const auto& row : rows_) print_row(row, false);
}

void TextTable::print_csv(std::ostream& os, const std::string& tag) const {
    auto emit = [&](const std::vector<std::string>& row) {
        os << "CSV," << tag;
        for (const auto& cell : row) os << ',' << cell;
        os << '\n';
    };
    emit(header_);
    for (const auto& row : rows_) emit(row);
}

std::string fmt_double(double v, int precision) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    std::string s = os.str();
    if (s.find('.') != std::string::npos) {
        while (!s.empty() && s.back() == '0') s.pop_back();
        if (!s.empty() && s.back() == '.') s.pop_back();
    }
    return s;
}

std::string fmt_si(double v) {
    const char* suffix = "";
    if (std::abs(v) >= 1e9) {
        v /= 1e9;
        suffix = "B";
    } else if (std::abs(v) >= 1e6) {
        v /= 1e6;
        suffix = "M";
    } else if (std::abs(v) >= 1e3) {
        v /= 1e3;
        suffix = "K";
    }
    return fmt_double(v, 2) + suffix;
}

std::string fmt_seconds(double s) {
    if (s < 1e-3) return fmt_double(s * 1e6, 2) + " us";
    if (s < 1.0) return fmt_double(s * 1e3, 2) + " ms";
    return fmt_double(s, 3) + " s";
}

std::string padded_index(std::uint64_t index, std::uint64_t count) {
    std::string digits = std::to_string(index);
    const std::string width = std::to_string(count > 0 ? count - 1 : 0);
    while (digits.size() < width.size()) digits.insert(digits.begin(), '0');
    return digits;
}

std::string trim(const std::string& s) {
    const auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
    auto begin = s.begin();
    while (begin != s.end() && is_space(*begin)) ++begin;
    auto end = s.end();
    while (end != begin && is_space(*(end - 1))) --end;
    return std::string(begin, end);
}

} // namespace gesmc
