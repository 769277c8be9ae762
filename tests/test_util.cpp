// Unit tests for src/util: bit helpers, checks, formatting, the JSON
// writer, timers.
#include "util/bits.hpp"
#include "util/check.hpp"
#include "util/format.hpp"
#include "util/json_writer.hpp"
#include "util/prefetch.hpp"
#include "util/timer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <thread>

namespace gesmc {
namespace {

TEST(Bits, IsPow2) {
    EXPECT_FALSE(is_pow2(0));
    EXPECT_TRUE(is_pow2(1));
    EXPECT_TRUE(is_pow2(2));
    EXPECT_FALSE(is_pow2(3));
    EXPECT_TRUE(is_pow2(1ULL << 63));
    EXPECT_FALSE(is_pow2((1ULL << 63) + 1));
}

TEST(Bits, NextPow2) {
    EXPECT_EQ(next_pow2(0), 1u);
    EXPECT_EQ(next_pow2(1), 1u);
    EXPECT_EQ(next_pow2(2), 2u);
    EXPECT_EQ(next_pow2(3), 4u);
    EXPECT_EQ(next_pow2(4), 4u);
    EXPECT_EQ(next_pow2(5), 8u);
    EXPECT_EQ(next_pow2(1023), 1024u);
    EXPECT_EQ(next_pow2(1025), 2048u);
    EXPECT_EQ(next_pow2((1ULL << 40) + 1), 1ULL << 41);
}

TEST(Bits, Log2Floor) {
    EXPECT_EQ(log2_floor(1), 0u);
    EXPECT_EQ(log2_floor(2), 1u);
    EXPECT_EQ(log2_floor(3), 1u);
    EXPECT_EQ(log2_floor(4), 2u);
    EXPECT_EQ(log2_floor(1ULL << 50), 50u);
}

TEST(Bits, CeilDiv) {
    EXPECT_EQ(ceil_div(0, 4), 0);
    EXPECT_EQ(ceil_div(1, 4), 1);
    EXPECT_EQ(ceil_div(4, 4), 1);
    EXPECT_EQ(ceil_div(5, 4), 2);
    EXPECT_EQ(ceil_div<std::uint64_t>(1ULL << 40, 3), ((1ULL << 40) + 2) / 3);
}

TEST(Bits, Mix64IsInjectiveOnSample) {
    // mix64 is a bijection on 64 bits; sample-check no collisions.
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 10000; ++i) {
        EXPECT_TRUE(seen.insert(mix64(i)).second) << "collision at " << i;
    }
}

TEST(Bits, Mix64TwoArgOrderSensitive) {
    EXPECT_NE(mix64(1, 2), mix64(2, 1));
    EXPECT_NE(mix64(0, 0), 0u);
    EXPECT_NE(mix64(1, 2, 3), mix64(1, 3, 2));
}

TEST(Check, ThrowsWithMessage) {
    EXPECT_NO_THROW(GESMC_CHECK(true));
    try {
        GESMC_CHECK(1 == 2, "custom context");
        FAIL() << "expected throw";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("1 == 2"), std::string::npos);
        EXPECT_NE(what.find("custom context"), std::string::npos);
    }
}

TEST(Format, TableAlignsAndCounts) {
    TextTable t({"graph", "n", "time"});
    t.add_row({"demo", "100", "1.5"});
    t.add_row({"bigger-name", "100000", "12.25"});
    EXPECT_EQ(t.rows(), 2u);
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("graph"), std::string::npos);
    EXPECT_NE(s.find("bigger-name"), std::string::npos);
    // All rendered lines share the same width.
    std::istringstream is(s);
    std::string line;
    std::size_t width = 0;
    while (std::getline(is, line)) {
        if (width == 0) width = line.size();
        EXPECT_EQ(line.size(), width);
    }
}

TEST(Format, TableArityChecked) {
    TextTable t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Format, Csv) {
    TextTable t({"a", "b"});
    t.add_row({"1", "2"});
    std::ostringstream os;
    t.print_csv(os, "tag");
    EXPECT_EQ(os.str(), "CSV,tag,a,b\nCSV,tag,1,2\n");
}

TEST(Format, Doubles) {
    EXPECT_EQ(fmt_double(1.5), "1.5");
    EXPECT_EQ(fmt_double(2.0), "2");
    EXPECT_EQ(fmt_double(0.125, 3), "0.125");
    EXPECT_EQ(fmt_double(0.1239, 3), "0.124");
}

TEST(Format, Si) {
    EXPECT_EQ(fmt_si(12), "12");
    EXPECT_EQ(fmt_si(1200), "1.2K");
    EXPECT_EQ(fmt_si(2500000), "2.5M");
    EXPECT_EQ(fmt_si(1.2e9), "1.2B");
}

TEST(Format, Seconds) {
    EXPECT_EQ(fmt_seconds(2.0), "2 s");
    EXPECT_EQ(fmt_seconds(0.012), "12 ms");
    EXPECT_EQ(fmt_seconds(12e-6), "12 us");
}

/// One document with nesting, escapes, non-finite and signed values.
void write_sample_document(JsonWriter& w) {
    w.begin_object();
    w.kv("name", "a \"quoted\"\nline\x01");
    w.kv("neg", std::int64_t{-42});
    w.kv("big", std::uint64_t{18446744073709551615ull});
    w.kv("nan", std::numeric_limits<double>::quiet_NaN());
    w.kv("inf", -std::numeric_limits<double>::infinity());
    w.kv("half", 0.5);
    w.kv("ok", true);
    w.key("list");
    w.begin_array();
    w.value(std::uint64_t{1});
    w.begin_object();
    w.end_object();
    w.begin_array();
    w.end_array();
    w.end_array();
    w.key("nested");
    w.begin_object();
    w.kv("x", 1u);
    w.end_object();
    w.end_object();
}

TEST(JsonWriter, OneLineLayout) {
    std::ostringstream os;
    JsonWriter w(os, JsonLayout::kLine);
    write_sample_document(w);
    EXPECT_EQ(os.str(), "{\"name\": \"a \\\"quoted\\\"\\nline\\u0001\", \"neg\": -42, "
                        "\"big\": 18446744073709551615, \"nan\": null, \"inf\": null, "
                        "\"half\": 0.5, \"ok\": true, \"list\": [1, {}, []], "
                        "\"nested\": {\"x\": 1}}");
}

TEST(JsonWriter, PrettyLayout) {
    // The layout of report.json, corpus.json and the metrics file.
    std::ostringstream os;
    JsonWriter w(os);
    write_sample_document(w);
    EXPECT_EQ(os.str(), "{\n"
                        "  \"name\": \"a \\\"quoted\\\"\\nline\\u0001\",\n"
                        "  \"neg\": -42,\n"
                        "  \"big\": 18446744073709551615,\n"
                        "  \"nan\": null,\n"
                        "  \"inf\": null,\n"
                        "  \"half\": 0.5,\n"
                        "  \"ok\": true,\n"
                        "  \"list\": [\n"
                        "    1,\n"
                        "    {},\n"
                        "    []\n"
                        "  ],\n"
                        "  \"nested\": {\n"
                        "    \"x\": 1\n"
                        "  }\n"
                        "}");
}

TEST(Timer, MeasuresSleep) {
    Timer t;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const double s = t.elapsed_s();
    EXPECT_GE(s, 0.015);
    EXPECT_LT(s, 5.0);
}

TEST(Timer, AccumulatesAcrossSections) {
    AccumTimer a;
    a.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    a.stop();
    const double first = a.total_s();
    EXPECT_GT(first, 0.0);
    a.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    a.stop();
    EXPECT_GT(a.total_s(), first);
    a.reset();
    EXPECT_EQ(a.total_s(), 0.0);
}

TEST(Prefetch, NoCrashOnArbitraryAddresses) {
    alignas(kCacheLineSize) char buf[2 * kCacheLineSize] = {};
    prefetch_read(buf);
    prefetch_write(buf);
    prefetch_read_2lines(buf);
    prefetch_write_2lines(buf);
    prefetch_read(nullptr); // prefetch of invalid addresses is architecturally a no-op
    SUCCEED();
}

} // namespace
} // namespace gesmc
