// The shared numeric text helpers (util/text.hpp): every finite double
// survives append_json_number -> parse_number bit for bit, the parser
// accepts whole tokens only, and instances round-trip through their
// text format.
#include "mmlp/util/text.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "mmlp/core/instance.hpp"
#include "mmlp/gen/random_instance.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/rng.hpp"

namespace mmlp {
namespace {

/// Encode, parse back and compare the bit patterns.
void expect_round_trip(double value) {
  std::string text;
  append_json_number(text, value);
  const std::optional<double> parsed = parse_number<double>(text);
  ASSERT_TRUE(parsed.has_value()) << text;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(*parsed),
            std::bit_cast<std::uint64_t>(value))
      << text;
}

TEST(Text, NumbersRoundTripBitwise) {
  const double specials[] = {0.0,
                             -0.0,
                             4.9e-324,  // smallest subnormal
                             -4.9e-324,
                             2.2250738585072014e-308,  // smallest normal
                             2.2250738585072009e-308,  // largest subnormal
                             1e-300,
                             0.1,
                             1.0 / 3.0,
                             1e16,
                             DBL_MAX,
                             -DBL_MAX};
  for (const double value : specials) {
    expect_round_trip(value);
  }
  Rng rng(0x7e57);
  int tested = 0;
  while (tested < 1000000) {
    const double value = std::bit_cast<double>(rng.next_u64());
    if (std::isfinite(value)) {
      expect_round_trip(value);
      ++tested;
    }
  }
}

TEST(Text, ShortestFormKeepsLiteralSpellings) {
  const auto encode = [](double value) {
    std::string text;
    append_json_number(text, value);
    return text;
  };
  EXPECT_EQ(encode(0.1), "0.1");
  EXPECT_EQ(encode(0.75), "0.75");
  EXPECT_EQ(encode(2048.0), "2048");
  EXPECT_EQ(encode(-0.0), "-0");
  std::string ints;
  append_text(ints, std::int64_t{-7}, ' ', std::size_t{42}, ' ', true);
  EXPECT_EQ(ints, "-7 42 true");
}

TEST(Text, NonFiniteNumbersDoNotEncode) {
  const double inf = std::numeric_limits<double>::infinity();
  std::string text;
  EXPECT_THROW(append_json_number(text, inf), CheckError);
  EXPECT_THROW(append_json_number(text, -inf), CheckError);
  EXPECT_THROW(append_json_number(text, std::nan("")), CheckError);
}

TEST(Text, ParserTakesWholeFiniteTokensOnly) {
  EXPECT_EQ(parse_number<double>("+1.5"), 1.5);
  EXPECT_EQ(parse_number<double>("-2e3"), -2000.0);
  EXPECT_EQ(parse_number<std::int32_t>("+7"), 7);
  EXPECT_EQ(parse_number<std::int32_t>("-7"), -7);
  EXPECT_EQ(parse_number<std::int64_t>("99999999999"), 99999999999);
  const std::vector<std::string> bad_doubles = {
      "", "+", "-", "++1", "+-1", "1.0x", "1,5", "0x1p0", "1e", " 1", "1 ",
      "inf", "-inf", "nan", "infinity", "1e400", "-1e400", "1e-400"};
  for (const std::string& token : bad_doubles) {
    EXPECT_FALSE(parse_number<double>(token).has_value()) << token;
  }
  const std::vector<std::string> bad_ints = {"1.5", "1e3", "99999999999",
                                             "-2147483649", "a0", ""};
  for (const std::string& token : bad_ints) {
    EXPECT_FALSE(parse_number<std::int32_t>(token).has_value()) << token;
  }
}

TEST(Text, RandomInstanceRoundTripsThroughItsText) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Instance instance = make_random_instance(
        {.num_agents = 500, .coef_lo = 1e-3, .coef_hi = 1e3, .seed = seed});
    const std::string text = instance.serialize();
    const Instance restored = Instance::deserialize(text);
    EXPECT_TRUE(restored == instance) << "seed " << seed;
    EXPECT_EQ(restored.serialize(), text);
  }
}

}  // namespace
}  // namespace mmlp
