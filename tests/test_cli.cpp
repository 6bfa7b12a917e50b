#include "mmlp/util/cli.hpp"

#include <gtest/gtest.h>

#include "mmlp/util/check.hpp"

namespace mmlp {
namespace {

ArgParser make_parser() {
  ArgParser parser("test program");
  parser.add_flag("n", "a count", "10");
  parser.add_flag("rate", "a rate", "0.5");
  parser.add_flag("name", "a label", "default");
  parser.add_switch("verbose", "more output");
  return parser;
}

TEST(ArgParser, DefaultsApplyWithoutArguments) {
  auto parser = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(parser.parse(1, argv));
  EXPECT_EQ(parser.get_int("n"), 10);
  EXPECT_DOUBLE_EQ(parser.get_double("rate"), 0.5);
  EXPECT_EQ(parser.get_string("name"), "default");
  EXPECT_FALSE(parser.get_bool("verbose"));
}

TEST(ArgParser, SpaceSeparatedValues) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--n", "42", "--name", "hello"};
  ASSERT_TRUE(parser.parse(5, argv));
  EXPECT_EQ(parser.get_int("n"), 42);
  EXPECT_EQ(parser.get_string("name"), "hello");
}

TEST(ArgParser, EqualsSeparatedValues) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--rate=0.25", "--verbose"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_DOUBLE_EQ(parser.get_double("rate"), 0.25);
  EXPECT_TRUE(parser.get_bool("verbose"));
}

TEST(ArgParser, UnknownFlagFailsParse) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_FALSE(parser.parse(3, argv));
}

TEST(ArgParser, MissingValueFailsParse) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--n"};
  EXPECT_FALSE(parser.parse(2, argv));
}

TEST(ArgParser, PositionalArgumentFailsParse) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "stray"};
  EXPECT_FALSE(parser.parse(2, argv));
}

TEST(ArgParser, HelpReturnsFalse) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(parser.parse(2, argv));
}

TEST(ArgParser, NonNumericValueThrowsOnTypedGet) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--n", "abc"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_THROW(parser.get_int("n"), CheckError);
}

TEST(ArgParser, OutOfRangeIntegerThrowsOnTypedGet) {
  // strtoll clamps to LLONG_MAX / LLONG_MIN; the parser must not hand
  // the clamped value on as if it had been typed.
  auto parser = make_parser();
  const char* argv[] = {"prog", "--n", "99999999999999999999"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_THROW(parser.get_int("n"), CheckError);
  const char* negative[] = {"prog", "--n", "-99999999999999999999"};
  ASSERT_TRUE(parser.parse(3, negative));
  EXPECT_THROW(parser.get_int("n"), CheckError);
}

TEST(ArgParser, UnregisteredGetThrows) {
  auto parser = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(parser.parse(1, argv));
  EXPECT_THROW(parser.get_string("nope"), CheckError);
}

TEST(ArgParser, DuplicateRegistrationThrows) {
  ArgParser parser("p");
  parser.add_flag("x", "h", "1");
  EXPECT_THROW(parser.add_flag("x", "again", "2"), CheckError);
}

TEST(ArgParser, HelpTextMentionsFlagsAndDefaults) {
  auto parser = make_parser();
  const std::string help = parser.help_text();
  EXPECT_NE(help.find("--n"), std::string::npos);
  EXPECT_NE(help.find("default: 10"), std::string::npos);
  EXPECT_NE(help.find("test program"), std::string::npos);
}

}  // namespace
}  // namespace mmlp
