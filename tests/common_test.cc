#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/json.h"
#include "common/names.h"
#include "common/rng.h"
#include "common/time.h"

namespace draconis {
namespace {

TEST(TimeTest, UnitConstants) {
  EXPECT_EQ(kMicrosecond, 1000);
  EXPECT_EQ(kMillisecond, 1000 * 1000);
  EXPECT_EQ(kSecond, 1000 * 1000 * 1000);
}

TEST(TimeTest, Conversions) {
  EXPECT_DOUBLE_EQ(ToMicros(FromMicros(4.7)), 4.7);
  EXPECT_DOUBLE_EQ(ToMillis(FromMillis(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(ToSeconds(FromSeconds(0.25)), 0.25);
  EXPECT_EQ(FromMicros(1.0), kMicrosecond);
}

TEST(TimeTest, FormatDurationPicksUnits) {
  EXPECT_EQ(FormatDuration(500), "500ns");
  EXPECT_EQ(FormatDuration(FromMicros(4.7)), "4.70us");
  EXPECT_EQ(FormatDuration(FromMillis(13.3)), "13.30ms");
  EXPECT_EQ(FormatDuration(FromSeconds(2)), "2.000s");
}

TEST(TimeTest, FormatDurationNegative) { EXPECT_EQ(FormatDuration(-1500), "-1.50us"); }

TEST(CheckTest, PassingCheckDoesNothing) { EXPECT_NO_THROW(DRACONIS_CHECK(1 + 1 == 2)); }

TEST(CheckTest, FailingCheckThrowsCheckFailure) {
  EXPECT_THROW(DRACONIS_CHECK(false), CheckFailure);
}

TEST(CheckTest, MessageIsIncluded) {
  try {
    DRACONIS_CHECK_MSG(false, "queue wedged");
    FAIL() << "should have thrown";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("queue wedged"), std::string::npos);
  }
}

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU64() == b.NextU64() ? 1 : 0;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBelowBound) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng rng(13);
  bool seen[8] = {};
  for (int i = 0; i < 1000; ++i) {
    seen[rng.NextBelow(8)] = true;
  }
  for (bool s : seen) {
    EXPECT_TRUE(s);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(21);
  bool lo = false;
  bool hi = false;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.NextInRange(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    lo |= v == -3;
    hi |= v == 3;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng rng(5);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    sum += rng.NextExponential(250.0);
  }
  EXPECT_NEAR(sum / kN, 250.0, 5.0);
}

TEST(RngTest, NormalMoments) {
  Rng rng(6);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.NextNormal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, LognormalMeanMatchesTarget) {
  Rng rng(8);
  double sum = 0.0;
  constexpr int kN = 400000;
  for (int i = 0; i < kN; ++i) {
    sum += rng.NextLognormalWithMean(500.0, 1.0);
  }
  EXPECT_NEAR(sum / kN, 500.0, 15.0);
}

TEST(RngTest, BoundedParetoStaysInBounds) {
  Rng rng(10);
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.NextBoundedPareto(1.0, 300.0, 1.3);
    ASSERT_GE(v, 1.0);
    ASSERT_LE(v, 300.0);
  }
}

TEST(RngTest, BoundedParetoIsSkewed) {
  Rng rng(11);
  int small = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    small += rng.NextBoundedPareto(1.0, 300.0, 1.3) < 10.0 ? 1 : 0;
  }
  // Most mass near the lower bound.
  EXPECT_GT(small, kN * 3 / 4);
}

TEST(RngTest, NextBoolProbability) {
  Rng rng(12);
  int yes = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    yes += rng.NextBool(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(yes) / kN, 0.25, 0.01);
}

TEST(RngTest, PoissonGapPositiveAndMeanMatches) {
  Rng rng(14);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const TimeNs gap = rng.NextPoissonGap(100000.0);  // mean 10us
    ASSERT_GT(gap, 0);
    sum += static_cast<double>(gap);
  }
  EXPECT_NEAR(sum / kN, 10000.0, 200.0);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(99);
  Rng b = a.Fork();
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(ParseDurationTest, AcceptsEveryUnit) {
  TimeNs out = 0;
  ASSERT_TRUE(ParseDuration("250ns", &out));
  EXPECT_EQ(out, 250);
  ASSERT_TRUE(ParseDuration("500us", &out));
  EXPECT_EQ(out, FromMicros(500));
  ASSERT_TRUE(ParseDuration("40ms", &out));
  EXPECT_EQ(out, FromMillis(40));
  ASSERT_TRUE(ParseDuration("2s", &out));
  EXPECT_EQ(out, FromSeconds(2));
}

TEST(ParseDurationTest, AcceptsFractionsAndBareZero) {
  TimeNs out = 0;
  ASSERT_TRUE(ParseDuration("1.5s", &out));
  EXPECT_EQ(out, FromMillis(1500));
  ASSERT_TRUE(ParseDuration("0.25ms", &out));
  EXPECT_EQ(out, FromMicros(250));
  ASSERT_TRUE(ParseDuration("0", &out));
  EXPECT_EQ(out, 0);
}

TEST(ParseDurationTest, RejectsMalformedInput) {
  TimeNs out = 0;
  EXPECT_FALSE(ParseDuration("", &out));
  EXPECT_FALSE(ParseDuration("40", &out));       // unit required
  EXPECT_FALSE(ParseDuration("40min", &out));    // unknown unit
  EXPECT_FALSE(ParseDuration("ms", &out));       // no number
  EXPECT_FALSE(ParseDuration("40ms extra", &out));
  EXPECT_FALSE(ParseDuration("-5ms", &out));     // durations are non-negative
}

TEST(ParseDurationTest, RejectsValuesThatOverflowNanoseconds) {
  TimeNs out = 7;
  EXPECT_FALSE(ParseDuration("1e10s", &out));     // 10^19 ns
  EXPECT_FALSE(ParseDuration("9.3e18ns", &out));  // just past 2^63 ns
  EXPECT_FALSE(ParseDuration("1e300s", &out));
  EXPECT_FALSE(ParseDuration("9223372036854775808ns", &out));  // exactly 2^63
  EXPECT_EQ(out, 7);  // untouched on rejection
  // Just under the limit still parses, exactly.
  ASSERT_TRUE(ParseDuration("9.2e18ns", &out));
  EXPECT_EQ(out, TimeNs{9'200'000'000'000'000'000});
  ASSERT_TRUE(ParseDuration("9e9s", &out));
  EXPECT_EQ(out, TimeNs{9'000'000'000'000'000'000});
}

TEST(ParseDurationTest, RoundTripsFormatDuration) {
  for (TimeNs value : {TimeNs{250}, FromMicros(500), FromMillis(40), FromSeconds(3)}) {
    TimeNs out = 0;
    ASSERT_TRUE(ParseDuration(FormatDuration(value), &out)) << FormatDuration(value);
    EXPECT_EQ(out, value);
  }
}

TEST(JsonWriterTest, NestedDocument) {
  json::Writer w;
  w.BeginObject();
  w.Key("name").String("fig05a");
  w.Key("n").Int(-3);
  w.Key("u").UInt(7);
  w.Key("ok").Bool(true);
  w.Key("nothing").Null();
  w.Key("xs").BeginArray();
  w.Double(0.5);
  w.Double(1000);
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\n  \"name\": \"fig05a\",\n  \"n\": -3,\n  \"u\": 7,\n  \"ok\": true,\n"
            "  \"nothing\": null,\n  \"xs\": [\n    0.5,\n    1000\n  ]\n}");
}

TEST(JsonWriterTest, EscapesStrings) {
  json::Writer w;
  w.BeginObject();
  w.Key("s").String("a\"b\\c\nd\te");
  w.EndObject();
  EXPECT_NE(w.str().find(R"(a\"b\\c\nd\te)"), std::string::npos);
}

TEST(JsonWriterTest, DoubleFormattingRoundTrips) {
  // Shortest representation that parses back to the same bits.
  EXPECT_EQ(json::Writer::FormatDouble(0.1), "0.1");
  EXPECT_EQ(json::Writer::FormatDouble(1.0 / 3.0), "0.33333333333333331");
  EXPECT_EQ(json::Writer::FormatDouble(1e21), "1e+21");
  EXPECT_EQ(json::Writer::FormatDouble(42.0), "42");
}

// ---------------------------------------------------------------------------
// json::Parse (the reader side, used by fault plans)
// ---------------------------------------------------------------------------

TEST(JsonParseTest, ParsesEveryValueType) {
  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::Parse(
      R"({"s": "hi\n", "i": -42, "d": 2.5, "t": true, "f": false, "n": null,
          "a": [1, 2, 3], "o": {"nested": "yes"}})",
      &doc, &error))
      << error;
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.Find("s")->AsString(), "hi\n");
  EXPECT_EQ(doc.Find("i")->AsInt(), -42);
  EXPECT_DOUBLE_EQ(doc.Find("d")->AsDouble(), 2.5);
  EXPECT_TRUE(doc.Find("t")->AsBool());
  EXPECT_FALSE(doc.Find("f")->AsBool());
  EXPECT_TRUE(doc.Find("n")->is_null());
  ASSERT_TRUE(doc.Find("a")->is_array());
  ASSERT_EQ(doc.Find("a")->AsArray().size(), 3u);
  EXPECT_EQ(doc.Find("a")->AsArray()[2].AsInt(), 3);
  EXPECT_EQ(doc.Find("o")->Find("nested")->AsString(), "yes");
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(JsonParseTest, KeysPreserveDocumentOrder) {
  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::Parse(R"({"z": 1, "a": 2, "m": 3})", &doc, &error)) << error;
  EXPECT_EQ(doc.Keys(), (std::vector<std::string>{"z", "a", "m"}));
}

TEST(JsonParseTest, RoundTripsWriterOutput) {
  json::Writer w;
  w.BeginObject();
  w.Key("name").String("plan \"x\"\n");
  w.Key("count").Int(7);
  w.Key("ratio").Double(0.125);
  w.Key("items").BeginArray();
  w.Bool(true);
  w.Null();
  w.EndArray();
  w.EndObject();

  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::Parse(w.str(), &doc, &error)) << error;
  EXPECT_EQ(doc.Find("name")->AsString(), "plan \"x\"\n");
  EXPECT_EQ(doc.Find("count")->AsInt(), 7);
  EXPECT_DOUBLE_EQ(doc.Find("ratio")->AsDouble(), 0.125);
  ASSERT_EQ(doc.Find("items")->AsArray().size(), 2u);
  EXPECT_TRUE(doc.Find("items")->AsArray()[0].AsBool());
  EXPECT_TRUE(doc.Find("items")->AsArray()[1].is_null());
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  for (const char* bad : {
           "",                       // empty input
           "{",                      // unterminated object
           "[1, 2",                  // unterminated array
           "{\"a\" 1}",              // missing colon
           "{\"a\": 1,}",            // trailing comma
           "\"unterminated",         // unterminated string
           "{\"a\": 1e}",            // malformed number
           "tru",                    // truncated literal
           "{\"a\": 1} extra",       // trailing garbage
       }) {
    json::Value doc;
    std::string error;
    EXPECT_FALSE(json::Parse(bad, &doc, &error)) << "input: " << bad;
    EXPECT_FALSE(error.empty()) << "input: " << bad;
  }
}

TEST(JsonParseTest, ErrorsCarryLineNumbers) {
  json::Value doc;
  std::string error;
  ASSERT_FALSE(json::Parse("{\n  \"a\": 1,\n  oops\n}", &doc, &error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
}

enum class Fruit { kApple, kPear };

names::Table<Fruit> NameTable(Fruit) {
  static constexpr names::Spelling<Fruit> kNames[] = {{Fruit::kApple, "apple"},
                                                      {Fruit::kPear, "pear"}};
  return kNames;
}

json::Value ParseOrDie(const std::string& text) {
  json::Value doc;
  std::string error;
  EXPECT_TRUE(json::Parse(text, &doc, &error)) << error;
  return doc;
}

TEST(JsonObjectReaderTest, ReadsTypedMembersAndKeepsDefaultsForAbsentOnes) {
  const json::Value doc = ParseOrDie(R"({"fruit": "PEAR", "count": 3, "weight": 0.5})");
  std::string error;
  json::ObjectReader r(doc, "basket", &error);
  Fruit fruit = Fruit::kApple;
  int64_t count = 0;
  double weight = 0.0;
  double price = 9.0;
  EXPECT_TRUE(r.Enum("fruit", &fruit));
  EXPECT_TRUE(r.Int("count", 0, 10, &count));
  EXPECT_TRUE(r.Number("weight", &weight));
  EXPECT_TRUE(r.Number("price", &price));
  EXPECT_TRUE(r.Finish()) << error;
  EXPECT_EQ(fruit, Fruit::kPear);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(weight, 0.5);
  EXPECT_EQ(price, 9.0);
}

TEST(JsonObjectReaderTest, NamesTheMemberOnEveryKindOfError) {
  struct Case {
    const char* text;
    const char* expected_error;
  };
  const std::vector<Case> cases = {
      {R"([1])", "basket must be a JSON object"},
      {R"({"fruit": "plum"})", "basket: fruit must be one of apple|pear"},
      {R"({"fruit": "pear", "count": 11})", "basket: count must be an integer in [0, 10]"},
      {R"({"fruit": "pear", "weight": "1e5"})", "basket: weight must be a number"},
      {R"({"fruit": "pear", "wieght": 1})", "basket has unknown key \"wieght\""},
      {R"({"count": 1})", "basket: fruit must be one of apple|pear"},
  };
  for (const Case& c : cases) {
    const json::Value doc = ParseOrDie(c.text);
    std::string error;
    json::ObjectReader r(doc, "basket", &error);
    Fruit fruit = Fruit::kApple;
    int64_t count = 0;
    double weight = 0.0;
    r.Enum("fruit", &fruit);
    r.Int("count", 0, 10, &count);
    r.Number("weight", &weight);
    EXPECT_FALSE(r.Finish()) << c.text;
    EXPECT_EQ(error, c.expected_error) << c.text;
  }
}

TEST(JsonObjectReaderTest, FirstFailureWinsAndLaterReadsAreNoOps) {
  const json::Value doc = ParseOrDie(R"({"a": "x", "b": 2})");
  std::string error;
  json::ObjectReader r(doc, "doc", &error, ".");
  int64_t a = 7;
  int64_t b = 7;
  EXPECT_FALSE(r.Int("a", 0, 5, &a));
  EXPECT_FALSE(r.Int("b", 0, 5, &b));
  EXPECT_FALSE(r.Require("missing"));
  EXPECT_FALSE(r.Finish());
  EXPECT_EQ(error, "doc.a must be an integer in [0, 5]");
  EXPECT_EQ(a, 7);
  EXPECT_EQ(b, 7);
}

TEST(JsonObjectReaderTest, RequireNamesAMissingMember) {
  const json::Value doc = ParseOrDie(R"({})");
  json::ObjectReader r(doc, "doc", nullptr);  // a null error is allowed
  EXPECT_FALSE(r.Require("seed"));
  std::string error;
  json::ObjectReader named(doc, "doc", &error);
  EXPECT_FALSE(named.Require("seed"));
  EXPECT_EQ(error, "doc: seed is missing");
}

TEST(NamesTest, AsciiLowerFoldsOnlyAsciiLetters) {
  EXPECT_EQ(names::AsciiLower("Power-Of-TWO_9"), "power-of-two_9");
  EXPECT_EQ(names::AsciiLower("\xC3\x89"), "\xC3\x89");
}

TEST(JsonReadIntTest, AcceptsIntegralValuesInRange) {
  int64_t out = 0;
  std::string error;
  EXPECT_TRUE(json::ReadInt(json::Value::Number(-1), "x", -1, 5, &out, &error));
  EXPECT_EQ(out, -1);
  uint32_t narrow = 0;
  EXPECT_TRUE(json::ReadInt(json::Value::Number(4294967295.0), "x", 0, 4294967295, &narrow,
                            &error));
  EXPECT_EQ(narrow, 4294967295u);
}

TEST(JsonReadIntTest, RejectsFractionsRangeAndNonNumbers) {
  // 2^63 is one past int64; casting it unchecked is undefined.
  std::vector<json::Value> bad = {json::Value::Str("3"), json::Value::Null()};
  for (double d : {1.5, 6.0, -2.0, 1e19, -1e19, 9223372036854775808.0}) {
    bad.push_back(json::Value::Number(d));
  }
  for (const json::Value& v : bad) {
    int64_t out = 42;
    std::string error;
    EXPECT_FALSE(json::ReadInt(v, "field", -1, 5, &out, &error));
    EXPECT_EQ(out, 42);  // untouched
    EXPECT_EQ(error, "field must be an integer in [-1, 5]");
  }
  int64_t out = 0;
  std::string error;
  EXPECT_FALSE(json::ReadInt(json::Value::Number(0.5), "t", std::numeric_limits<int64_t>::min(),
                             std::numeric_limits<int64_t>::max(), &out, &error));
  EXPECT_EQ(error, "t must be an integer");  // the full range goes unsaid
}

TEST(JsonReadIntTest, AsIntRangeChecksBeforeCasting) {
  EXPECT_EQ(json::Value::Number(-9223372036854775808.0).AsInt(),
            std::numeric_limits<int64_t>::min());
  EXPECT_THROW(json::Value::Number(9223372036854775808.0).AsInt(), CheckFailure);
  EXPECT_THROW(json::Value::Number(1e19).AsInt(), CheckFailure);
  EXPECT_THROW(json::Value::Number(2.5).AsInt(), CheckFailure);
}

}  // namespace
}  // namespace draconis
