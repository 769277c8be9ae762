/// \file log.hpp
/// \brief Structured, leveled JSON-lines event log for the library.
///
/// The library's lifecycle and error narration (pipeline start/finish,
/// replicate failures, daemon requests, corpus graph completions) goes
/// through one process-wide sink as machine-parseable JSON lines instead of
/// ad-hoc stderr chatter:
///
///   {"ts_ms": 1722990000123, "level": "info", "component": "pipeline",
///    "event": "replicate_done", "replicate": 3, "seconds": 0.42}
///
/// Design constraints mirror the metrics registry:
///
///   * Disabled (the default) must be indistinguishable from absent: every
///     emit starts with one relaxed atomic load and an early return.
///   * The sink is guarded by a `CheckedMutex` at `LockRank::kEventLogSink`
///     — low enough that any subsystem may emit while holding its own
///     locks; the only lock acquired underneath is the metrics registry.
///   * Emitting must never throw and never touch sampled bytes: failures
///     to write are swallowed (the log is diagnostics, not state).
///
/// Events are built fluently and emitted by the builder's destructor:
///
///   GESMC_LOG_EVENT(Info, "service", "job_accepted").num("job", id);
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace gesmc::obs {

enum class LogLevel : int {
    kDebug = 0,
    kInfo = 1,
    kWarn = 2,
    kError = 3,
};

/// Human-readable lowercase name ("debug", "info", "warn", "error").
[[nodiscard]] const char* to_string(LogLevel level) noexcept;

/// True when an event at `level` would currently be written (sink present
/// and level at or above the threshold).  One relaxed load each.
[[nodiscard]] bool log_enabled(LogLevel level) noexcept;

/// Sets the minimum level written to the sink (default kInfo).
void set_log_level(LogLevel level) noexcept;

/// Routes events to `path` (append mode).  An empty path closes any file
/// sink.  Returns false (and leaves the previous sink in place) when the
/// file cannot be opened.
bool set_log_file(const std::string& path);

/// Closes every sink; subsequent emits are no-ops.  Used by tests.
void close_log_sinks();

/// One structured event, emitted as a single JSON line when the builder
/// goes out of scope.  All field appenders are no-ops when the event's
/// level is filtered, so building costs nothing when the log is off.
class LogEvent {
public:
    LogEvent(LogLevel level, std::string_view component, std::string_view event);
    ~LogEvent();

    LogEvent(const LogEvent&) = delete;
    LogEvent& operator=(const LogEvent&) = delete;

    /// Appends a string field (JSON-escaped).
    LogEvent& str(std::string_view key, std::string_view value);
    /// Appends an unsigned integer field.
    LogEvent& num(std::string_view key, std::uint64_t value);
    /// Appends a signed integer field.
    LogEvent& snum(std::string_view key, std::int64_t value);
    /// Appends a floating-point field (null when non-finite).
    LogEvent& real(std::string_view key, double value);
    /// Appends a boolean field.
    LogEvent& flag(std::string_view key, bool value);

private:
    struct Line;
    std::unique_ptr<Line> line_; ///< null when the event's level is filtered
};

} // namespace gesmc::obs

/// Builds an event only when its level passes the filter; the common
/// disabled case costs one branch and constructs nothing.
#define GESMC_LOG_EVENT(level, component, event) \
    ::gesmc::obs::LogEvent(::gesmc::obs::LogLevel::k##level, (component), (event))
