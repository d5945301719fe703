#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "test_helpers.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/geometry.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"
#include "util/table.hpp"

namespace mrlg::test {
namespace {

// ---------------- geometry ----------------

TEST(Span, LengthAndContainment) {
    const Span s{2, 7};
    EXPECT_EQ(s.length(), 5);
    EXPECT_FALSE(s.empty());
    EXPECT_TRUE(s.contains(2));
    EXPECT_TRUE(s.contains(6));
    EXPECT_FALSE(s.contains(7));
    EXPECT_TRUE(s.contains(Span{3, 5}));
    EXPECT_FALSE(s.contains(Span{3, 8}));
    EXPECT_TRUE((Span{2, 7}.contains(Span{4, 4})));  // empty span inside
}

TEST(Span, OverlapIsSymmetricAndHalfOpen) {
    EXPECT_TRUE((Span{0, 5}.overlaps(Span{4, 9})));
    EXPECT_TRUE((Span{4, 9}.overlaps(Span{0, 5})));
    EXPECT_FALSE((Span{0, 5}.overlaps(Span{5, 9})));  // touching edges
    EXPECT_FALSE((Span{0, 5}.overlaps(Span{7, 9})));
}

TEST(Span, Intersect) {
    const Span i = intersect(Span{0, 10}, Span{4, 20});
    EXPECT_EQ(i, (Span{4, 10}));
    EXPECT_TRUE(intersect(Span{0, 3}, Span{5, 8}).empty());
}

TEST(Rect, BasicAccessors) {
    const Rect r{1, 2, 10, 3};
    EXPECT_EQ(r.x_hi(), 11);
    EXPECT_EQ(r.y_hi(), 5);
    EXPECT_EQ(r.area(), 30);
    EXPECT_FALSE(r.empty());
    EXPECT_TRUE((Rect{0, 0, 0, 5}.empty()));
}

TEST(Rect, ContainsPointHalfOpen) {
    const Rect r{0, 0, 4, 2};
    EXPECT_TRUE(r.contains(Point{0, 0}));
    EXPECT_TRUE(r.contains(Point{3, 1}));
    EXPECT_FALSE(r.contains(Point{4, 1}));
    EXPECT_FALSE(r.contains(Point{3, 2}));
}

TEST(Rect, ContainsRect) {
    const Rect r{0, 0, 10, 10};
    EXPECT_TRUE(r.contains(Rect{0, 0, 10, 10}));
    EXPECT_TRUE(r.contains(Rect{2, 3, 4, 5}));
    EXPECT_FALSE(r.contains(Rect{-1, 0, 4, 5}));
    EXPECT_FALSE(r.contains(Rect{8, 8, 4, 4}));
}

TEST(Rect, OverlapArea) {
    EXPECT_EQ(overlap_area(Rect{0, 0, 4, 4}, Rect{2, 2, 4, 4}), 4);
    EXPECT_EQ(overlap_area(Rect{0, 0, 4, 4}, Rect{4, 0, 4, 4}), 0);
    EXPECT_EQ(overlap_area(Rect{0, 0, 4, 4}, Rect{1, 1, 2, 2}), 4);
}

TEST(Geometry, Manhattan) {
    EXPECT_EQ(manhattan(Point{0, 0}, Point{3, 4}), 7);
    EXPECT_EQ(manhattan(Point{3, 4}, Point{0, 0}), 7);
    EXPECT_EQ(manhattan(Point{-2, 1}, Point{2, -1}), 6);
}

// ---------------- assert ----------------

TEST(Assert, ThrowsAssertionError) {
    EXPECT_THROW(MRLG_ASSERT(false, "boom"), AssertionError);
    EXPECT_NO_THROW(MRLG_ASSERT(true, "fine"));
}

TEST(Assert, MessageContainsContext) {
    try {
        MRLG_ASSERT(1 == 2, "custom context");
        FAIL() << "should have thrown";
    } catch (const AssertionError& e) {
        EXPECT_NE(std::string(e.what()).find("custom context"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    }
}

// ---------------- rng ----------------

TEST(Rng, DeterministicForSameSeed) {
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next_u64(), b.next_u64());
    }
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        same += a.next_u64() == b.next_u64() ? 1 : 0;
    }
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformStaysInRange) {
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.uniform(-5, 17);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 17);
    }
}

TEST(Rng, UniformSingletonRange) {
    Rng rng(7);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(rng.uniform(3, 3), 3);
    }
}

TEST(Rng, UniformCoversRange) {
    Rng rng(11);
    bool seen[5] = {};
    for (int i = 0; i < 1000; ++i) {
        seen[rng.uniform(0, 4)] = true;
    }
    for (const bool s : seen) {
        EXPECT_TRUE(s);
    }
}

TEST(Rng, Uniform01Bounds) {
    Rng rng(13);
    double mn = 1.0;
    double mx = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniform01();
        mn = std::min(mn, v);
        mx = std::max(mx, v);
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
    EXPECT_LT(mn, 0.05);
    EXPECT_GT(mx, 0.95);
}

TEST(Rng, NormalRoughMoments) {
    Rng rng(17);
    double sum = 0.0;
    double sum2 = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.normal(3.0, 2.0);
        sum += v;
        sum2 += v * v;
    }
    const double mean = sum / n;
    const double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, 3.0, 0.1);
    EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, UniformEmptyRangeAsserts) {
    Rng rng(1);
    EXPECT_THROW(rng.uniform(4, 3), AssertionError);
}

// ---------------- strings ----------------

TEST(Str, Trim) {
    EXPECT_EQ(trim("  hi \t"), "hi");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim(" \n "), "");
    EXPECT_EQ(trim("x"), "x");
}

TEST(Str, SplitWs) {
    const auto v = split_ws("  a\tbb   c ");
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], "a");
    EXPECT_EQ(v[1], "bb");
    EXPECT_EQ(v[2], "c");
    EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Str, SplitDelim) {
    const auto v = split("a,,b", ',');
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], "a");
    EXPECT_EQ(v[1], "");
    EXPECT_EQ(v[2], "b");
}

TEST(Str, StartsWith) {
    EXPECT_TRUE(starts_with("NetDegree : 3", "NetDegree"));
    EXPECT_FALSE(starts_with("Net", "NetDegree"));
}

TEST(Str, IEquals) {
    EXPECT_TRUE(iequals("CoreRow", "corerow"));
    EXPECT_FALSE(iequals("CoreRow", "corero"));
}

TEST(Str, FormatFixed) {
    EXPECT_EQ(format_fixed(1.23456, 2), "1.23");
    EXPECT_EQ(format_fixed(-0.5, 1), "-0.5");
}

TEST(Str, ParseCountWholeStringOnly) {
    std::size_t n = 7;
    EXPECT_TRUE(parse_count("0", n));
    EXPECT_EQ(n, 0u);
    EXPECT_TRUE(parse_count("2200", n));
    EXPECT_EQ(n, 2200u);
    // A negative count must not wrap to 2^64 - 5; junk must not truncate.
    for (const char* bad : {"-5", "+5", "", "12x", " 3", "3 ", "1.5",
                            "18446744073709551616"}) {
        EXPECT_FALSE(parse_count(bad, n)) << bad;
        EXPECT_EQ(n, 2200u) << bad;
    }
}

TEST(Str, ParseDoubleWholeStringOnly) {
    double d = 0.0;
    EXPECT_TRUE(parse_double("0.97", d));
    EXPECT_DOUBLE_EQ(d, 0.97);
    EXPECT_TRUE(parse_double("-1e-3", d));
    EXPECT_DOUBLE_EQ(d, -1e-3);
    for (const char* bad : {"", "abc", "0.5x", " 0.5", "0.5 "}) {
        EXPECT_FALSE(parse_double(bad, d)) << bad;
        EXPECT_DOUBLE_EQ(d, -1e-3) << bad;
    }
}

// ---------------- cli ----------------

/// Flags over `args`, with a program name prepended.
Flags flags_of(std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    return Flags(static_cast<int>(args.size()), args.data());
}

TEST(Flags, AbsentKeyKeepsTheDefault) {
    Flags f = flags_of({"--quiet"});
    int n = 7;
    double d = 0.5;
    std::vector<int> list = {1, 2};
    EXPECT_TRUE(f.has("--quiet"));
    f.count("--seed", n);
    f.real("--scale", d, 0.0, 1.0, Flags::Upper::kClosed);
    f.int_list("--threads", list);
    EXPECT_EQ(f.value("--out"), nullptr);
    EXPECT_TRUE(f.ok());
    EXPECT_EQ(n, 7);
    EXPECT_DOUBLE_EQ(d, 0.5);
    EXPECT_EQ(list, (std::vector<int>{1, 2}));
}

TEST(Flags, ReadsValuesAndSwitches) {
    Flags f = flags_of({"--seed", "12", "--quiet", "--scale", "1",
                        "--threads", "1,2,4", "--out", "dir"});
    std::uint64_t seed = 0;
    double scale = 0.5;
    std::vector<int> threads;
    f.count("--seed", seed);
    f.real("--scale", scale, 0.0, 1.0, Flags::Upper::kClosed);
    f.int_list("--threads", threads);
    EXPECT_TRUE(f.has("--quiet"));
    EXPECT_FALSE(f.has("--gen"));
    EXPECT_STREQ(f.value("--out"), "dir");
    EXPECT_TRUE(f.ok());
    EXPECT_EQ(seed, 12u);
    EXPECT_DOUBLE_EQ(scale, 1.0);
    EXPECT_EQ(threads, (std::vector<int>{1, 2, 4}));
}

TEST(Flags, TrailingKeyWithoutValueIsBad) {
    Flags f = flags_of({"--gen", "--quiet", "--rx"});
    int rx = 30;
    f.count("--rx", rx);
    EXPECT_FALSE(f.ok());
    EXPECT_EQ(f.bad_key(), "--rx");
    EXPECT_EQ(rx, 30);
    // A switch given last is fine.
    EXPECT_TRUE(flags_of({"--gen", "--quiet"}).has("--quiet"));
}

TEST(Flags, MalformedCountsAreBad) {
    for (const char* bad : {"abc", "12x", "-1", "", "1.5"}) {
        Flags f = flags_of({"--seed", bad});
        int n = 7;
        f.count("--seed", n);
        EXPECT_EQ(f.bad_key(), "--seed") << bad;
        EXPECT_EQ(n, 7) << bad;
    }
}

TEST(Flags, OutOfRangeCountsAreBad) {
    Flags f = flags_of({"--rx", "41", "--ry", "40", "--threads",
                        "2147483648"});
    int rx = 30;
    int ry = 5;
    int threads = 0;
    f.count("--ry", ry, 40);
    EXPECT_EQ(f.bad_key(), "");  // --rx and --threads are not asked yet
    EXPECT_EQ(ry, 40);
    f.count("--rx", rx, 40);
    f.count("--threads", threads);  // above INT_MAX
    EXPECT_EQ(f.bad_key(), "--rx");  // the first bad key is kept
    EXPECT_EQ(rx, 30);
    EXPECT_EQ(threads, 0);
}

TEST(Flags, RealsOutsideTheirIntervalAreBad) {
    struct Case {
        const char* text;
        Flags::Upper upper;
        bool ok;
    };
    for (const Case& c : {Case{"1", Flags::Upper::kClosed, true},
                          Case{"1", Flags::Upper::kOpen, false},
                          Case{"0.25", Flags::Upper::kOpen, true},
                          Case{"0", Flags::Upper::kClosed, false},
                          Case{"-1", Flags::Upper::kClosed, false},
                          Case{"1e9", Flags::Upper::kClosed, false},
                          Case{"nan", Flags::Upper::kClosed, false},
                          Case{"abc", Flags::Upper::kClosed, false},
                          Case{"0.5x", Flags::Upper::kClosed, false}}) {
        Flags f = flags_of({"--scale", c.text});
        double d = 0.5;
        f.real("--scale", d, 0.0, 1.0, c.upper);
        EXPECT_EQ(f.ok(), c.ok) << c.text;
        if (!c.ok) {
            EXPECT_DOUBLE_EQ(d, 0.5) << c.text;
        }
    }
}

TEST(Flags, IntListRejectsMalformedAndNonPositive) {
    for (const char* bad : {"1,x", "0", "", "1,,2", "2,-1", "4,"}) {
        Flags f = flags_of({"--threads", bad});
        std::vector<int> list = {1, 2};
        f.int_list("--threads", list);
        EXPECT_EQ(f.bad_key(), "--threads") << bad;
        EXPECT_EQ(list, (std::vector<int>{1, 2})) << bad;
    }
}

TEST(Flags, PositionalArgumentsPrecedeTheFlags) {
    const std::vector<const char*> args = {"prog", "100", "-3", "--quiet",
                                           "x"};
    Flags f(static_cast<int>(args.size()), args.data(),
            {"cells", "density", "out_dir"});
    EXPECT_STREQ(f.positional(0), "100");
    EXPECT_STREQ(f.positional(1), "-3");
    EXPECT_EQ(f.positional(2), nullptr);  // after the first flag
    EXPECT_EQ(f.positional(3), nullptr);
    EXPECT_EQ(f.value("out_dir"), nullptr);
    EXPECT_EQ(flags_of({"--gen", "a.aux"}).positional(0), nullptr);

    std::size_t cells = 0;
    double density = 0.6;
    f.count("cells", cells);
    f.real("density", density, 0.0, 0.96, Flags::Upper::kOpen);
    EXPECT_EQ(cells, 100u);
    EXPECT_DOUBLE_EQ(density, 0.6);
    EXPECT_EQ(f.bad_key(), "density");
    EXPECT_TRUE(f.has("--quiet"));
}

TEST(Flags, UsageReturnsTheUsageExitCode) {
    Flags f = flags_of({});
    f.fail("--mode");
    f.fail("--level");
    EXPECT_EQ(f.bad_key(), "--mode");
    testing::internal::CaptureStderr();
    EXPECT_EQ(f.usage("usage: prog\n"), 2);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("--mode"), std::string::npos);
    EXPECT_NE(err.find("usage: prog"), std::string::npos);
}

TEST(Flags, UnknownFlagsFail) {
    Flags f = flags_of({"--seed", "3", "--bogus", "5", "--quiet"});
    int seed = 0;
    f.count("--seed", seed);
    EXPECT_FALSE(f.has("--gen"));
    EXPECT_TRUE(f.has("--quiet"));
    // "5" is not a flag; "--bogus" was never asked about.
    EXPECT_FALSE(f.ok());
    EXPECT_EQ(f.bad_key(), "");
    EXPECT_STREQ(f.unknown_flag(), "--bogus");
    EXPECT_EQ(seed, 3);
    testing::internal::CaptureStderr();
    EXPECT_EQ(f.usage("usage: prog\n"), 2);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("unknown flag --bogus"), std::string::npos);

    // Asking about a key makes it known, whether or not it was read.
    EXPECT_EQ(f.value("--bogus"), std::string_view("5"));
    EXPECT_TRUE(f.ok());
    EXPECT_EQ(f.unknown_flag(), nullptr);

    // A bad value is reported before an unknown flag.
    Flags g = flags_of({"--typo", "--seed", "x"});
    g.count("--seed", seed);
    EXPECT_EQ(g.bad_key(), "--seed");
    testing::internal::CaptureStderr();
    g.usage("");
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "invalid or missing --seed\n");
}

// ---------------- table ----------------

TEST(Table, AlignsAndPrints) {
    Table t({"name", "value"});
    t.add_row({"foo", "1.5"});
    t.add_row({"longer_name", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("longer_name"), std::string::npos);
    EXPECT_NE(out.find("value"), std::string::npos);
    EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, RowArityMismatchAsserts) {
    Table t({"a", "b"});
    EXPECT_THROW(t.add_row({"only_one"}), AssertionError);
}

TEST(Table, Csv) {
    Table t({"a", "b"});
    t.add_row({"1", "2"});
    std::ostringstream os;
    t.print_csv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

}  // namespace
}  // namespace mrlg::test
