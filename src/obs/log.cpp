#include "obs/log.hpp"

#include "check/checked_mutex.hpp"
#include "obs/metrics.hpp"
#include "util/json_writer.hpp"

#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>

namespace gesmc::obs {

namespace {

std::atomic<int> g_log_level{static_cast<int>(LogLevel::kInfo)};
std::atomic<bool> g_has_sink{false};

/// The sink state.  Leaked singleton like the metrics registry: events can
/// fire from static destructors of tools, so the sink must never die first.
struct Sink {
    CheckedMutex mutex{LockRank::kEventLogSink, "EventLogSink"};
    std::ofstream file GESMC_GUARDED_BY(mutex);
    bool file_open GESMC_GUARDED_BY(mutex) = false;
};

Sink& sink() {
    static Sink* const s = new Sink();
    return *s;
}

std::uint64_t now_ms() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

} // namespace

const char* to_string(LogLevel level) noexcept {
    switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    }
    return "unknown";
}

bool log_enabled(LogLevel level) noexcept {
    return g_has_sink.load(std::memory_order_relaxed) &&
           static_cast<int>(level) >= g_log_level.load(std::memory_order_relaxed);
}

void set_log_level(LogLevel level) noexcept {
    g_log_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

bool set_log_file(const std::string& path) {
    Sink& s = sink();
    CheckedLockGuard lock(s.mutex);
    if (path.empty()) {
        if (s.file_open) s.file.close();
        s.file_open = false;
        g_has_sink.store(false, std::memory_order_relaxed);
        return true;
    }
    std::ofstream next(path, std::ios::app);
    if (!next.good()) return false;
    if (s.file_open) s.file.close();
    s.file = std::move(next);
    s.file_open = true;
    g_has_sink.store(true, std::memory_order_relaxed);
    return true;
}

void close_log_sinks() {
    Sink& s = sink();
    CheckedLockGuard lock(s.mutex);
    if (s.file_open) s.file.close();
    s.file_open = false;
    g_has_sink.store(false, std::memory_order_relaxed);
}

// ---------------------------------------------------------------- LogEvent

struct LogEvent::Line {
    std::ostringstream os;
    JsonWriter w{os, JsonLayout::kLine};
};

LogEvent::LogEvent(LogLevel level, std::string_view component,
                   std::string_view event) {
    if (!log_enabled(level)) return;
    line_ = std::make_unique<Line>();
    line_->w.begin_object();
    line_->w.kv("ts_ms", now_ms());
    line_->w.kv("level", to_string(level));
    line_->w.kv("component", component);
    line_->w.kv("event", event);
}

LogEvent& LogEvent::str(std::string_view key, std::string_view value) {
    if (line_ != nullptr) line_->w.kv(key, value);
    return *this;
}

LogEvent& LogEvent::num(std::string_view key, std::uint64_t value) {
    if (line_ != nullptr) line_->w.kv(key, value);
    return *this;
}

LogEvent& LogEvent::snum(std::string_view key, std::int64_t value) {
    if (line_ != nullptr) line_->w.kv(key, value);
    return *this;
}

LogEvent& LogEvent::real(std::string_view key, double value) {
    if (line_ != nullptr) line_->w.kv(key, value);
    return *this;
}

LogEvent& LogEvent::flag(std::string_view key, bool value) {
    if (line_ != nullptr) line_->w.kv(key, value);
    return *this;
}

LogEvent::~LogEvent() {
    if (line_ == nullptr) return;
    line_->w.end_object();
    line_->os << '\n';
    const std::string text = line_->os.str();
    if (metrics_enabled()) {
        struct LogCounters {
            Counter& lines = MetricsRegistry::instance().counter("obs.log.lines");
        };
        static LogCounters& counters = *new LogCounters();
        counters.lines.add(1);
    }
    Sink& s = sink();
    CheckedLockGuard lock(s.mutex);
    if (s.file_open) {
        s.file.write(text.data(), static_cast<std::streamsize>(text.size()));
        s.file.flush();  // `tail -f`-able: one complete line per event
    }
}

} // namespace gesmc::obs
