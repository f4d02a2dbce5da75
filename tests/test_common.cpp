// Unit tests for the common substrate: integer math, RNG, table/CSV
// rendering, CLI parsing, thread pool, error macros.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dsn/common/cli.hpp"
#include "dsn/common/error.hpp"
#include "dsn/common/json.hpp"
#include "dsn/common/math.hpp"
#include "dsn/common/rng.hpp"
#include "dsn/common/table.hpp"
#include "dsn/common/thread_pool.hpp"

namespace dsn {
namespace {

// ---------------------------------------------------------------------------
// math
// ---------------------------------------------------------------------------

TEST(Math, Ilog2Floor) {
  EXPECT_EQ(ilog2_floor(1), 0u);
  EXPECT_EQ(ilog2_floor(2), 1u);
  EXPECT_EQ(ilog2_floor(3), 1u);
  EXPECT_EQ(ilog2_floor(4), 2u);
  EXPECT_EQ(ilog2_floor(1023), 9u);
  EXPECT_EQ(ilog2_floor(1024), 10u);
  EXPECT_EQ(ilog2_floor(1025), 10u);
}

TEST(Math, Ilog2Ceil) {
  EXPECT_EQ(ilog2_ceil(1), 0u);
  EXPECT_EQ(ilog2_ceil(2), 1u);
  EXPECT_EQ(ilog2_ceil(3), 2u);
  EXPECT_EQ(ilog2_ceil(4), 2u);
  EXPECT_EQ(ilog2_ceil(5), 3u);
  EXPECT_EQ(ilog2_ceil(1024), 10u);
  EXPECT_EQ(ilog2_ceil(1025), 11u);
}

TEST(Math, Ilog2ConsistencyProperty) {
  for (std::uint64_t v = 1; v < 5000; ++v) {
    const auto f = ilog2_floor(v);
    const auto c = ilog2_ceil(v);
    EXPECT_LE(1ull << f, v);
    EXPECT_GT(1ull << (f + 1), v);
    EXPECT_GE(1ull << c, v);
    if (v > 1) {
      EXPECT_LT(1ull << (c - 1), v);
    }
  }
}

TEST(Math, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(1023));
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
  EXPECT_EQ(ceil_div(1, 100), 1u);
  EXPECT_EQ(ceil_div(0, 5), 0u);
}

TEST(Math, Isqrt) {
  EXPECT_EQ(isqrt(0), 0u);
  EXPECT_EQ(isqrt(1), 1u);
  EXPECT_EQ(isqrt(15), 3u);
  EXPECT_EQ(isqrt(16), 4u);
  EXPECT_EQ(isqrt(17), 4u);
  for (std::uint64_t v = 0; v < 3000; ++v) {
    const auto r = isqrt(v);
    EXPECT_LE(r * r, v);
    EXPECT_GT((r + 1) * (r + 1), v);
  }
}

TEST(Math, IsqrtCeil) {
  EXPECT_EQ(isqrt_ceil(16), 4u);
  EXPECT_EQ(isqrt_ceil(17), 5u);
  EXPECT_EQ(isqrt_ceil(0), 0u);
  EXPECT_EQ(isqrt_ceil(1), 1u);
}

TEST(Math, RingDistances) {
  EXPECT_EQ(ring_cw_distance(0, 5, 10), 5u);
  EXPECT_EQ(ring_cw_distance(5, 0, 10), 5u);
  EXPECT_EQ(ring_cw_distance(8, 2, 10), 4u);
  EXPECT_EQ(ring_cw_distance(3, 3, 10), 0u);
  EXPECT_EQ(ring_distance(0, 9, 10), 1u);
  EXPECT_EQ(ring_distance(9, 0, 10), 1u);
  EXPECT_EQ(ring_distance(0, 5, 10), 5u);
}

TEST(Math, RingDistanceSymmetryProperty) {
  const std::uint64_t n = 37;
  for (std::uint64_t a = 0; a < n; ++a) {
    for (std::uint64_t b = 0; b < n; ++b) {
      EXPECT_EQ(ring_distance(a, b, n), ring_distance(b, a, n));
      EXPECT_EQ(ring_cw_distance(a, b, n) + ring_cw_distance(b, a, n),
                a == b ? 0 : n);
      EXPECT_LE(ring_distance(a, b, n), n / 2);
    }
  }
}

// ---------------------------------------------------------------------------
// rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20'000; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 20'000.0, 0.3, 0.02);
}

TEST(Rng, BernoulliCutMatchesNextDoubleCompare) {
  // bernoulli() compares the 53-bit draw with an integer cut; it must give
  // next_double() < p for every p, at the edges of the cut as well as over
  // a long stream. The flit simulator's look-ahead injection relies on it.
  constexpr std::uint64_t kTop = std::uint64_t{1} << 53;
  const double probs[] = {0.0,          -0.0,         std::nan(""),
                          0x1.0p-60,    0x1.0p-53,    3 * 0x1.0p-53,
                          12345 * 0x1.0p-53,          1.578e-4,
                          0.5,          1.0 - 0x1.0p-53,            1.0,
                          2.0};
  for (const double p : probs) {
    SCOPED_TRACE(p);
    const std::uint64_t cut = Rng::bernoulli_cut(p);
    ASSERT_LE(cut, kTop);
    for (const std::uint64_t x :
         {std::uint64_t{0}, std::uint64_t{1}, cut - 1, cut, cut + 1, kTop - 1}) {
      if (x >= kTop) continue;  // cut - 1 wraps at cut = 0; cut + 1 past the top
      EXPECT_EQ(x < cut, static_cast<double>(x) * 0x1.0p-53 < p) << "x=" << x;
    }
    Rng by_double(101), by_cut(101);
    int mismatches = 0;
    for (int i = 0; i < 1'000'000; ++i) {
      if ((by_double.next_double() < p) != by_cut.bernoulli(p)) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0);
  }
}

TEST(Rng, SplitMixDeterministic) {
  SplitMix64 a(5), b(5);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_EQ(a.next(), b.next());
}

// ---------------------------------------------------------------------------
// table
// ---------------------------------------------------------------------------

TEST(Table, BasicRendering) {
  Table t({"a", "bb"});
  t.row().cell(1).cell(2.5);
  t.row().cell(10).cell("x");
  const std::string s = t.to_string();
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("2.50"), std::string::npos);
  EXPECT_NE(s.find("10"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_cols(), 2u);
}

TEST(Table, CsvRendering) {
  Table t({"x", "y"});
  t.row().cell(1).cell(2);
  EXPECT_EQ(t.to_csv(), "x,y\n1,2\n");
}

TEST(Table, RejectsTooManyCells) {
  Table t({"only"});
  t.row().cell(1);
  EXPECT_THROW(t.cell(2), PreconditionError);
}

TEST(Table, RejectsCellBeforeRow) {
  Table t({"a"});
  EXPECT_THROW(t.cell("x"), PreconditionError);
}

TEST(Table, RejectsEmptyHeaders) {
  EXPECT_THROW(Table t({}), PreconditionError);
}

TEST(Table, PrintsTitle) {
  Table t({"h"});
  t.row().cell(1);
  std::ostringstream os;
  t.print(os, "My Title");
  EXPECT_NE(os.str().find("My Title"), std::string::npos);
}

// ---------------------------------------------------------------------------
// cli
// ---------------------------------------------------------------------------

TEST(Cli, ParsesSeparateAndEqualsForms) {
  Cli cli("test");
  cli.add_flag("n", "64", "network size");
  cli.add_flag("rate", "1.5", "rate");
  const char* argv[] = {"prog", "--n", "128", "--rate=2.5"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_EQ(cli.get_uint("n"), 128u);
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 2.5);
  EXPECT_TRUE(cli.has("n"));
}

TEST(Cli, DefaultsApply) {
  Cli cli("test");
  cli.add_flag("n", "64", "network size");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_uint("n"), 64u);
  EXPECT_FALSE(cli.has("n"));
}

TEST(Cli, BooleanFlagForms) {
  {
    Cli cli("test");
    cli.add_flag("quick", "false", "quick mode");
    const char* argv[] = {"prog", "--quick"};
    ASSERT_TRUE(cli.parse(2, argv));
    EXPECT_TRUE(cli.get_bool("quick"));
  }
  {
    Cli cli("test");
    cli.add_flag("quick", "true", "quick mode");
    const char* argv[] = {"prog", "--quick", "false"};
    ASSERT_TRUE(cli.parse(3, argv));
    EXPECT_FALSE(cli.get_bool("quick"));
  }
}

TEST(Cli, UnknownFlagThrows) {
  Cli cli("test");
  cli.add_flag("n", "1", "n");
  const char* argv[] = {"prog", "--bogus", "3"};
  EXPECT_THROW(cli.parse(3, argv), PreconditionError);
}

TEST(Cli, HelpReturnsFalse) {
  Cli cli("test");
  cli.add_flag("n", "1", "n");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, ParsesLists) {
  Cli cli("test");
  cli.add_flag("sizes", "1,2,3", "sizes");
  cli.add_flag("loads", "0.5,1.5", "loads");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_uint_list("sizes"), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(cli.get_double_list("loads"), (std::vector<double>{0.5, 1.5}));
}

TEST(Cli, ParsesStringLists) {
  Cli cli("test");
  cli.add_flag("traffics", "uniform,,neighboring", "traffics");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_list("traffics"), (std::vector<std::string>{"uniform", "neighboring"}));
}

TEST(Cli, RejectsMalformedNumbers) {
  // Every number is read whole: a '+' (or a '-' on an unsigned), junk after
  // the digits or a value out of the type's range (64 bits for get_uint, 32
  // for get_uint32) is refused with the flag and its value.
  enum class Read { kUint, kUint32, kDouble };
  const auto refusal = [](const std::string& value, bool as_list, Read read) {
    Cli cli("test");
    cli.add_flag("v", "0", "value");
    const std::string arg = "--v=" + value;
    const char* argv[] = {"prog", arg.c_str()};
    EXPECT_TRUE(cli.parse(2, argv));
    try {
      switch (read) {
        case Read::kUint:
          as_list ? (void)cli.get_uint_list("v") : (void)cli.get_uint("v");
          break;
        case Read::kUint32:
          as_list ? (void)cli.get_uint32_list("v") : (void)cli.get_uint32("v");
          break;
        case Read::kDouble:
          as_list ? (void)cli.get_double_list("v") : (void)cli.get_double("v");
          break;
      }
    } catch (const PreconditionError& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  const auto expect_refused = [&](const std::string& prefix, const std::string& bad,
                                  bool as_list, Read read) {
    const std::string what = refusal(prefix + bad, as_list, read);
    EXPECT_NE(what.find("--v"), std::string::npos) << prefix + bad << ": " << what;
    EXPECT_NE(what.find("'" + bad + "'"), std::string::npos) << prefix + bad << ": " << what;
  };
  for (const bool as_list : {false, true}) {
    const std::string prefix = as_list ? "1," : "";
    for (const std::string bad : {"64x", "-1", "+1", "1.5", "", "18446744073709551616"}) {
      if (as_list && bad.empty()) continue;  // empty list items are skipped
      expect_refused(prefix, bad, as_list, Read::kUint);
      expect_refused(prefix, bad, as_list, Read::kUint32);
    }
    expect_refused(prefix, "4294967296", as_list, Read::kUint32);
    EXPECT_EQ(refusal(prefix + "4294967296", as_list, Read::kUint), "accepted");
    EXPECT_EQ(refusal(prefix + "4294967295", as_list, Read::kUint32), "accepted");
    for (const std::string bad : {"1.5x", "+1", "0.5 ", "1e999"}) {
      expect_refused(prefix, bad, as_list, Read::kDouble);
    }
  }
  // What the benchmark driver passes still parses.
  Cli cli("test");
  cli.add_flag("seconds", "1", "seconds");
  cli.add_flag("seed", "0", "seed");
  const char* argv[] = {"prog", "--seconds", "20.0", "--seed", "1"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.get_double("seconds"), 20.0);
  EXPECT_EQ(cli.get_uint("seed"), 1u);
  EXPECT_EQ(cli.get_uint_list("seed"), (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(cli.get_uint32("seed"), 1u);
  EXPECT_EQ(cli.get_uint32_list("seed"), (std::vector<std::uint32_t>{1}));
}

TEST(Cli, DuplicateFlagRegistrationThrows) {
  Cli cli("test");
  cli.add_flag("n", "1", "n");
  EXPECT_THROW(cli.add_flag("n", "2", "again"), PreconditionError);
}

// ---------------------------------------------------------------------------
// thread pool
// ---------------------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversRange) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  bool ran = false;
  parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  EXPECT_THROW(
      parallel_for(0, 100,
                   [&](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) pool.submit([&] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, SumReduction) {
  std::atomic<std::uint64_t> sum{0};
  parallel_for(1, 1001, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 500'500u);
}

// ---------------------------------------------------------------------------
// error macros
// ---------------------------------------------------------------------------

TEST(Error, RequireThrowsWithContext) {
  try {
    DSN_REQUIRE(1 == 2, "math broke");
    FAIL() << "expected throw";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("math broke"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, AssertThrowsInternalError) {
  EXPECT_THROW(DSN_ASSERT(false, "invariant"), InternalError);
}

TEST(Error, PassingChecksDoNotThrow) {
  EXPECT_NO_THROW(DSN_REQUIRE(true, ""));
  EXPECT_NO_THROW(DSN_ASSERT(true, ""));
}

// --------------------------------------------------------------------------
// JSON (machine-readable dsn-lint reports).
// --------------------------------------------------------------------------

TEST(Json, ScalarsRoundTrip) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json(1.5).dump(), "1.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
  // Integral doubles in the safe range print without a fraction.
  EXPECT_EQ(Json(static_cast<std::uint64_t>(1) << 50).dump(), "1125899906842624");
}

TEST(Json, StringEscapesRoundTrip) {
  const std::string raw = "line\nbreak \"quoted\" back\\slash \t tab";
  const Json parsed = Json::parse(Json(raw).dump());
  EXPECT_EQ(parsed.as_string(), raw);
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  Json obj = Json::object();
  obj.set("zeta", 1);
  obj.set("alpha", 2);
  obj.set("mid", 3);
  EXPECT_EQ(obj.dump(), "{\"zeta\":1,\"alpha\":2,\"mid\":3}");
  // Replacing a member keeps its original position.
  obj.set("alpha", 9);
  EXPECT_EQ(obj.dump(), "{\"zeta\":1,\"alpha\":9,\"mid\":3}");
}

TEST(Json, DumpParseDumpIsAFixedPoint) {
  Json doc = Json::object();
  doc.set("name", "dsn-2-64");
  doc.set("ok", true);
  doc.set("bound", Json());
  Json arr = Json::array();
  for (int i = 0; i < 4; ++i) arr.push_back(i * 1.25);
  doc.set("loads", std::move(arr));
  Json nested = Json::object();
  nested.set("max", 18);
  nested.set("law", "3p + r");
  doc.set("inner", std::move(nested));

  const std::string compact = doc.dump();
  EXPECT_EQ(Json::parse(compact).dump(), compact);
  const std::string pretty = doc.dump(2);
  EXPECT_EQ(Json::parse(pretty).dump(2), pretty);
  // Pretty and compact forms parse to equal documents.
  EXPECT_TRUE(Json::parse(pretty) == Json::parse(compact));
}

TEST(Json, ParseRejectsMalformedDocuments) {
  EXPECT_THROW(Json::parse(""), PreconditionError);
  EXPECT_THROW(Json::parse("{"), PreconditionError);
  EXPECT_THROW(Json::parse("[1,]"), PreconditionError);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), PreconditionError);
  EXPECT_THROW(Json::parse("\"unterminated"), PreconditionError);
  EXPECT_THROW(Json::parse("1 trailing"), PreconditionError);
  EXPECT_THROW(Json::parse("nul"), PreconditionError);
}

TEST(Json, AccessorsEnforceKinds) {
  const Json doc = Json::parse("{\"a\":[1,2],\"b\":\"s\"}");
  EXPECT_TRUE(doc.has("a"));
  EXPECT_FALSE(doc.has("zz"));
  EXPECT_EQ(doc.at("a").size(), 2u);
  EXPECT_EQ(doc.at("a").at(1).as_int(), 2);
  EXPECT_THROW(doc.at("zz"), PreconditionError);
  EXPECT_THROW(doc.at("b").as_int(), PreconditionError);
  EXPECT_THROW(doc.at("a").at(5), PreconditionError);
}

}  // namespace
}  // namespace dsn
