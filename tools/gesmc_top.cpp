/// \file gesmc_top.cpp
/// \brief Live terminal dashboard over a gesmc_serve daemon's telemetry.
///
/// Subscribes to the daemon's `watch` stream (one 'J' telemetry frame per
/// sampler tick, docs/service_protocol.md) and renders the machine's pulse
/// in place: executor occupancy, per-interval rates (switches/s, frames/s),
/// histogram quantiles of the interval's activity, and the analysis-layer
/// gauges (mixing fractions, corpus z-scores).
///
///   gesmc_top --socket /tmp/gesmc.sock
///   gesmc_top --socket /tmp/gesmc.sock --ticks 5 --plain   # scripts / CI
///
/// --plain prints one parseable line per tick instead of redrawing the
/// screen (the smoke test asserts monotone timestamps from it); --ticks N
/// exits 0 after N ticks.  Exit 1 when the stream ends before any tick —
/// a daemon whose sampler never fires is a bug worth a non-zero exit.
#include "pipeline/config.hpp"
#include "service/frame.hpp"
#include "service/json.hpp"
#include "service/socket.hpp"
#include "util/format.hpp"

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

using namespace gesmc;

namespace {

constexpr const char* kUsage = R"(gesmc_top — live telemetry dashboard for gesmc_serve

Options:
  --socket PATH   gesmc_serve Unix-domain socket (required)
  --ticks N       exit after N telemetry ticks (0 = run until the daemon
                  stops or the connection drops)                      [0]
  --plain         one parseable line per tick instead of a redrawn screen
                  (for scripts; fields: tick, ts_ms, leased, threads,
                  runs, switches_per_s)
  --help          this text

The daemon pushes one frame per sampler tick (--telemetry-interval on
gesmc_serve).  Quit with Ctrl-C.
)";

double number_of(const JsonValue* v) {
    return v != nullptr && v->is_number() ? v->number_value : 0.0;
}

std::uint64_t uint_of(const JsonValue* v) {
    if (v == nullptr || !v->is_number()) return 0;
    return v->has_uint ? v->uint_value : static_cast<std::uint64_t>(v->number_value);
}

/// Sum of the rates whose counter name contains `needle`.
double rate_matching(const JsonValue& rates, const std::string& needle) {
    double sum = 0;
    for (const auto& [name, value] : rates.object_members) {
        if (name.find(needle) != std::string::npos) sum += number_of(&value);
    }
    return sum;
}

void render_screen(const JsonValue& doc) {
    const JsonValue* executor = doc.find("executor");
    const JsonValue* rates = doc.find("rates");
    const JsonValue* gauges = doc.find("gauges");
    const JsonValue* histograms = doc.find("histograms");

    const std::uint64_t threads =
        executor != nullptr ? uint_of(executor->find("threads")) : 0;
    const std::uint64_t leased =
        executor != nullptr ? uint_of(executor->find("leased")) : 0;

    std::ostringstream out;
    out << "\x1b[H\x1b[2J"; // cursor home + clear
    out << "gesmc_top  tick " << uint_of(doc.find("seq")) << "  interval "
        << fmt_seconds(number_of(doc.find("interval_s"))) << "  ts_ms "
        << uint_of(doc.find("ts_ms")) << "\n\n";

    if (executor != nullptr) {
        out << "executor   threads " << threads << "  leased " << leased
            << "  waiters " << uint_of(executor->find("lease_waiters")) << "  runs "
            << uint_of(executor->find("active_runs")) << "  inflight "
            << uint_of(executor->find("inflight_replicates")) << "  pending "
            << uint_of(executor->find("pending_replicates")) << "\n";
        constexpr std::uint64_t kBarWidth = 30;
        const std::uint64_t filled =
            threads > 0 ? std::min(kBarWidth, leased * kBarWidth / threads) : 0;
        out << "occupancy  [" << std::string(filled, '#')
            << std::string(kBarWidth - filled, ' ') << "] "
            << (threads > 0 ? leased * 100 / threads : 0) << "%\n";
    }

    if (rates != nullptr) {
        out << "\nthroughput  switches/s " << fmt_si(rate_matching(*rates, "switches"))
            << "  frames/s " << fmt_si(rate_matching(*rates, "frames"))
            << "  replicates/s "
            << fmt_si(rate_matching(*rates, "replicates.completed")) << "\n";
        std::vector<std::pair<std::string, double>> top;
        for (const auto& [name, value] : rates->object_members) {
            if (number_of(&value) > 0) top.emplace_back(name, number_of(&value));
        }
        std::sort(top.begin(), top.end(),
                  [](const auto& a, const auto& b) { return a.second > b.second; });
        if (top.size() > 10) top.resize(10);
        if (!top.empty()) out << "\nrates (per second)\n";
        for (const auto& [name, value] : top) {
            out << "  " << name << std::string(name.size() < 40 ? 40 - name.size() : 1,
                                               ' ')
                << fmt_si(value) << "\n";
        }
    }

    if (histograms != nullptr && !histograms->object_members.empty()) {
        out << "\nhistograms (this interval)    count    rate      p50      p90      "
               "p99\n";
        for (const auto& [name, h] : histograms->object_members) {
            out << "  " << name
                << std::string(name.size() < 28 ? 28 - name.size() : 1, ' ')
                << fmt_si(static_cast<double>(uint_of(h.find("count")))) << "  "
                << fmt_si(number_of(h.find("rate"))) << "  "
                << fmt_si(number_of(h.find("p50"))) << "  "
                << fmt_si(number_of(h.find("p90"))) << "  "
                << fmt_si(number_of(h.find("p99"))) << "\n";
        }
    }

    if (gauges != nullptr && !gauges->object_members.empty()) {
        // The analysis layer's gauges get their own section: they carry the
        // live mixing verdict (ESS, autocorrelation time, non-independent
        // fraction — milli-scaled, docs/observability.md) of adaptive runs.
        bool any_mixing = false;
        for (const auto& [name, value] : gauges->object_members) {
            if (name.rfind("analysis.", 0) != 0) continue;
            if (!any_mixing) out << "\nmixing (analysis gauges, milli units)\n";
            any_mixing = true;
            out << "  " << name
                << std::string(name.size() < 40 ? 40 - name.size() : 1, ' ')
                << number_of(&value) << "\n";
        }
        bool any_other = false;
        for (const auto& [name, value] : gauges->object_members) {
            if (name.rfind("analysis.", 0) == 0) continue;
            if (!any_other) out << "\ngauges\n";
            any_other = true;
            out << "  " << name
                << std::string(name.size() < 40 ? 40 - name.size() : 1, ' ')
                << number_of(&value) << "\n";
        }
    }

    std::cout << out.str() << std::flush;
}

void render_plain(const JsonValue& doc) {
    const JsonValue* executor = doc.find("executor");
    const JsonValue* rates = doc.find("rates");
    std::cout << "tick " << uint_of(doc.find("seq")) << " ts_ms "
              << uint_of(doc.find("ts_ms")) << " leased "
              << (executor != nullptr ? uint_of(executor->find("leased")) : 0) << "/"
              << (executor != nullptr ? uint_of(executor->find("threads")) : 0)
              << " runs "
              << (executor != nullptr ? uint_of(executor->find("active_runs")) : 0)
              << " switches_per_s "
              << (rates != nullptr ? rate_matching(*rates, "switches") : 0.0) << "\n"
              << std::flush;
}

} // namespace

int main(int argc, char** argv) {
    std::string socket_path;
    std::uint64_t max_ticks = 0;
    bool plain = false;

    auto need_value = [&](int& i) -> const char* {
        if (i + 1 >= argc) {
            std::cerr << "missing value for " << argv[i] << "\n";
            return nullptr;
        }
        return argv[++i];
    };
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const char* v = nullptr;
            if (arg == "--help") {
                std::cout << kUsage;
                return 0;
            } else if (arg == "--plain") {
                plain = true;
            } else if (arg == "--socket") {
                if (!(v = need_value(i))) return 2;
                socket_path = v;
            } else if (arg == "--ticks") {
                if (!(v = need_value(i))) return 2;
                max_ticks = parse_u64(arg, v);
            } else {
                std::cerr << "unknown option: " << arg << "\n" << kUsage;
                return 2;
            }
        }
    } catch (const Error& e) { // a malformed flag value, named in the message
        std::cerr << e.what() << "\n";
        return 2;
    }
    if (socket_path.empty()) {
        std::cerr << "--socket PATH is required\n" << kUsage;
        return 2;
    }

    try {
        const FdHandle fd = connect_unix(socket_path);
        Request request;
        request.kind = RequestKind::kWatch;
        write_all(fd.get(), make_request_line(request));

        FrameReader reader;
        std::uint64_t seen = 0;
        for (;;) {
            const std::optional<Frame> frame = read_frame(fd.get(), reader);
            if (!frame.has_value()) break; // daemon stopped or dropped us
            if (frame->type != FrameType::kJson) continue;
            const JsonValue doc = parse_json(frame->payload);
            const JsonValue* event = doc.find("event");
            if (event == nullptr || !event->is_string() ||
                event->string_value != "telemetry") {
                continue;
            }
            ++seen;
            if (plain) {
                render_plain(doc);
            } else {
                render_screen(doc);
            }
            if (max_ticks > 0 && seen >= max_ticks) break;
        }
        if (seen == 0) {
            std::cerr << "error: the stream ended before any telemetry tick\n";
            return 1;
        }
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
