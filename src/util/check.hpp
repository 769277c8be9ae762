/// \file check.hpp
/// \brief Error handling helpers: checked preconditions that throw.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace gesmc {

/// Exception thrown on violated API preconditions or invariants.
class Error : public std::runtime_error {
public:
    explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] inline void throw_check_failure(const char* expr, const char* file, int line,
                                             const std::string& msg) {
    std::ostringstream os;
    os << "GESMC_CHECK failed: (" << expr << ") at " << file << ":" << line;
    if (!msg.empty()) os << " — " << msg;
    throw Error(os.str());
}
} // namespace detail

} // namespace gesmc

/// Precondition check that is always active (also in release builds).
/// It guards the library's own invariants, and its message carries the
/// expression and source location; checks on outside input (config values,
/// input files, checkpoints) throw Error with the message alone.
/// Usage: GESMC_CHECK(n > 0, "need at least one node");
#define GESMC_CHECK(expr, ...)                                                             \
    do {                                                                                   \
        if (!(expr)) {                                                                     \
            ::gesmc::detail::throw_check_failure(#expr, __FILE__, __LINE__,               \
                                                 ::std::string{__VA_ARGS__});             \
        }                                                                                  \
    } while (0)
