#include "cli_args.hpp"

#include <gtest/gtest.h>

namespace paradyn::tools {
namespace {

// --alpha and --beta take values; --flag is a switch.
CliArgs parse(std::vector<const char*> argv, std::size_t max_positionals = 0) {
  argv.insert(argv.begin(), "prog");
  return CliArgs(static_cast<int>(argv.size()), argv.data(), {"alpha", "beta"}, {"flag"},
                 max_positionals);
}

TEST(CliArgs, SpaceSeparatedValues) {
  const auto args = parse({"--alpha", "42", "--beta", "hello"});
  EXPECT_EQ(args.get_long("alpha", 0), 42);
  EXPECT_EQ(args.get_string("beta", ""), "hello");
}

TEST(CliArgs, EqualsSeparatedValues) {
  const auto args = parse({"--alpha=3.5"});
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 3.5);
}

TEST(CliArgs, BareSwitchIsTrue) {
  const auto args = parse({"--flag"});
  EXPECT_TRUE(args.get_bool("flag"));
  EXPECT_TRUE(args.has("flag"));
  EXPECT_FALSE(args.has("alpha"));
}

TEST(CliArgs, FallbacksWhenAbsent) {
  const auto args = parse({});
  EXPECT_EQ(args.get_long("alpha", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 2.5), 2.5);
  EXPECT_EQ(args.get_string("beta", "dflt"), "dflt");
  EXPECT_FALSE(args.get_bool("flag", false));
  EXPECT_TRUE(args.get_bool("flag", true));
}

TEST(CliArgs, BooleanSpellings) {
  EXPECT_TRUE(parse({"--flag=yes"}).get_bool("flag"));
  EXPECT_TRUE(parse({"--flag=1"}).get_bool("flag"));
  EXPECT_FALSE(parse({"--flag=no"}).get_bool("flag"));
  EXPECT_FALSE(parse({"--flag=false"}).get_bool("flag"));
  EXPECT_THROW((void)parse({"--flag=maybe"}).get_bool("flag"), std::invalid_argument);
}

TEST(CliArgs, RejectsUnknownFlagAndPositionals) {
  EXPECT_THROW(parse({"--bogus", "1"}), std::invalid_argument);
  EXPECT_THROW(parse({"stray"}), std::invalid_argument);
}

TEST(CliArgs, SuggestsCloseFlagOnTypo) {
  // "--alpa" is one edit from "--alpha"; a mistyped flag must fail loudly
  // with a hint, never silently change the run.
  try {
    parse({"--alpa", "1"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown flag: --alpa"), std::string::npos) << what;
    EXPECT_NE(what.find("did you mean --alpha?"), std::string::npos) << what;
  }
}

TEST(CliArgs, NoSuggestionWhenNothingIsClose) {
  try {
    parse({"--zzqqxx"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).find("did you mean"), std::string::npos);
  }
}

TEST(CliArgs, PositionalsAcceptedUpToLimit) {
  const auto args = parse({"in.json", "--flag=true", "out.json"}, /*max_positionals=*/2);
  ASSERT_EQ(args.positionals().size(), 2u);
  EXPECT_EQ(args.positionals()[0], "in.json");
  EXPECT_EQ(args.positionals()[1], "out.json");
  EXPECT_TRUE(args.get_bool("flag"));
}

TEST(CliArgs, PositionalBeyondLimitRejected) {
  EXPECT_THROW(parse({"a", "b"}, /*max_positionals=*/1), std::invalid_argument);
}

TEST(CliArgs, ValueFlagWithoutValueFails) {
  // Given last, or followed by another flag, a value flag has no value: it
  // must fail, not read "true" (roccprof t.json --json wrote ./true).
  for (const auto& argv : {std::vector<const char*>{"--alpha"},
                           std::vector<const char*>{"--alpha", "--flag"},
                           std::vector<const char*>{"--alpha", "--beta", "x"}}) {
    try {
      (void)parse(argv);
      ADD_FAILURE() << "accepted a bare --alpha";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "flag --alpha needs a value");
    }
  }
  EXPECT_EQ(parse({"--alpha="}).get_string("alpha", "dflt"), "");  // explicit empty value
  EXPECT_EQ(parse({"--alpha", "-3"}).get_long("alpha", 0), -3);    // one dash is a value
}

TEST(CliArgs, SwitchNeverTakesTheNextArgument) {
  // roccprof --hypotheses t.json: the file is the positional, not the
  // switch's value.
  const auto args = parse({"--flag", "t.json"}, /*max_positionals=*/1);
  EXPECT_TRUE(args.get_bool("flag"));
  ASSERT_EQ(args.positionals().size(), 1u);
  EXPECT_EQ(args.positionals()[0], "t.json");
  try {
    (void)parse({"--flag", "7"});  // no positionals allowed
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "unexpected positional argument: 7 (--flag is a switch; a value goes as "
                 "--flag=7)");
  }
  // An explicit value still reaches a switch (--adaptive-sampling=X).
  EXPECT_EQ(parse({"--flag=0.5"}).get_string("flag", ""), "0.5");
}

TEST(CliArgs, RejectsMalformedNumbers) {
  const auto args = parse({"--alpha", "12abc"});
  EXPECT_THROW((void)args.get_long("alpha", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("alpha", 0.0), std::invalid_argument);
}

TEST(CliArgs, BoundedIntegersRejectOverflowAndRange) {
  // strtol saturates on overflow; the read must not pass LONG_MAX on, and
  // a value outside the caller's bounds must not wrap into its field.
  EXPECT_THROW((void)parse({"--alpha=99999999999999999999999"}).get_long("alpha", 0),
               std::invalid_argument);
  EXPECT_THROW((void)parse({"--alpha=4294967298"}).get_long("alpha", 0, kInt32Min, kCountMax),
               std::invalid_argument);
  EXPECT_THROW((void)parse({"--alpha=-1"}).get_long("alpha", 1, 1, kCountMax),
               std::invalid_argument);
  try {
    (void)parse({"--alpha=0"}).get_long("alpha", 1, 1, 10);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--alpha"), std::string::npos) << e.what();
  }
  EXPECT_EQ(parse({"--alpha=2147483647"}).get_long("alpha", 0, kInt32Min, kCountMax), kCountMax);
  EXPECT_EQ(parse({}).get_long("alpha", 7, 1, 5), 7);  // the fallback is the caller's
}

TEST(CliArgs, NegativeValuesViaEquals) {
  // A negative space-separated value would look like a flag; the = form
  // carries it through.
  const auto args = parse({"--alpha=-5"});
  EXPECT_EQ(args.get_long("alpha", 0), -5);
}

}  // namespace
}  // namespace paradyn::tools
