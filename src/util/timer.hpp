/// \file timer.hpp
/// \brief Wall-clock timing utilities for benchmarks and instrumentation.
#pragma once

#include <chrono>
#include <cstdint>

namespace gesmc {

/// Monotonic wall-clock stopwatch with double-precision seconds readout.
class Timer {
public:
    Timer() noexcept { restart(); }

    void restart() noexcept { start_ = Clock::now(); }

    /// Seconds elapsed since construction or the last restart().
    [[nodiscard]] double elapsed_s() const noexcept {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }

private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

/// Accumulates time over multiple measured sections.
class AccumTimer {
public:
    void start() noexcept { t_.restart(); running_ = true; }
    void stop() noexcept {
        if (running_) total_ += t_.elapsed_s();
        running_ = false;
    }
    void reset() noexcept { total_ = 0; running_ = false; }
    [[nodiscard]] double total_s() const noexcept { return total_; }

private:
    Timer t_;
    double total_ = 0;
    bool running_ = false;
};

} // namespace gesmc
