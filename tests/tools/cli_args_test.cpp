#include "cli_args.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

namespace paradyn::tools {
namespace {

// --alpha takes an integer, --beta text, --gamma a number, --file text
// without a default, --count an integer in [1, 10] and --int32 one in the
// int32 range; --flag is a switch and --budget a switch with an optional
// =X.
const std::vector<Flag> kRows = {
    {"alpha", Kind::Integer, "N", "7", "an integer"},
    {"beta", Kind::Text, "TEXT", "dflt", "a string"},
    {"gamma", Kind::Number, "X", "2.5", "a number"},
    {"file", Kind::Text, "FILE", "", "a path\nwithout a default"},
    {"count", Kind::Integer, "N", "1", "a bounded count", 1, 10},
    {"int32", Kind::Integer, "N", "0", "an int32 field", kInt32Min, kCountMax},
    {"flag", Kind::Switch, "", "", "a switch"},
    {"budget", Kind::Number, "[=X]", "5", "a switch with an optional value"},
    kHelp,
};

CliArgs parse(std::vector<const char*> argv, Flag operand = {}) {
  argv.insert(argv.begin(), "prog");
  return CliArgs(static_cast<int>(argv.size()), argv.data(), kRows, operand);
}

std::string parse_error(std::vector<const char*> argv, Flag operand = {}) {
  try {
    (void)parse(std::move(argv), operand);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected std::invalid_argument";
  return {};
}

constexpr Flag kOperand{"FILE", Kind::Text, "", "", "the input"};

TEST(CliArgs, SpaceSeparatedValues) {
  const auto args = parse({"--alpha", "42", "--beta", "hello"});
  EXPECT_EQ(args.get_long("alpha"), 42);
  EXPECT_EQ(args.get_string("beta"), "hello");
}

TEST(CliArgs, EqualsSeparatedValues) {
  const auto args = parse({"--gamma=3.5"});
  EXPECT_DOUBLE_EQ(args.get_double("gamma"), 3.5);
}

TEST(CliArgs, BareSwitchIsTrue) {
  const auto args = parse({"--flag"});
  EXPECT_TRUE(args.get_bool("flag"));
  EXPECT_TRUE(args.has("flag"));
  EXPECT_FALSE(args.has("alpha"));
}

TEST(CliArgs, FallbacksWhenAbsent) {
  // A row's default is what a read returns when the flag is absent.
  const auto args = parse({});
  EXPECT_EQ(args.get_long("alpha"), 7);
  EXPECT_DOUBLE_EQ(args.get_double("gamma"), 2.5);
  EXPECT_EQ(args.get_string("beta"), "dflt");
  EXPECT_EQ(args.get_string("file"), "");
  EXPECT_FALSE(args.get_bool("flag"));
  EXPECT_FALSE(args.has("alpha"));
  // A bare optional-value switch reads its default; =X sets it.
  EXPECT_DOUBLE_EQ(parse({"--budget"}).get_double("budget"), 5.0);
  EXPECT_DOUBLE_EQ(parse({"--budget=0.5"}).get_double("budget"), 0.5);
  // A read the rows cannot answer is a programming error, not a user one.
  EXPECT_THROW((void)args.get_long("file"), std::logic_error);
  EXPECT_THROW((void)args.get_long("undeclared"), std::logic_error);
  EXPECT_THROW((void)args.get_double("alpha"), std::logic_error);
}

TEST(CliArgs, BooleanSpellings) {
  EXPECT_TRUE(parse({"--flag=yes"}).get_bool("flag"));
  EXPECT_TRUE(parse({"--flag=1"}).get_bool("flag"));
  EXPECT_FALSE(parse({"--flag=no"}).get_bool("flag"));
  EXPECT_FALSE(parse({"--flag=false"}).get_bool("flag"));
  EXPECT_EQ(parse_error({"--flag=maybe"}), "flag --flag: not a boolean: maybe");
}

TEST(CliArgs, RejectsUnknownFlagAndPositionals) {
  EXPECT_THROW(parse({"--bogus", "1"}), std::invalid_argument);
  EXPECT_THROW(parse({"stray"}), std::invalid_argument);
}

TEST(CliArgs, SuggestsCloseFlagOnTypo) {
  // "--alpa" is one edit from "--alpha"; a mistyped flag must fail loudly
  // with a hint, never silently change the run.
  const std::string what = parse_error({"--alpa", "1"});
  EXPECT_NE(what.find("unknown flag: --alpa"), std::string::npos) << what;
  EXPECT_NE(what.find("did you mean --alpha?"), std::string::npos) << what;
  EXPECT_NE(what.find("; see --help"), std::string::npos) << what;
}

TEST(CliArgs, NoSuggestionWhenNothingIsClose) {
  EXPECT_EQ(parse_error({"--zzqqxx"}).find("did you mean"), std::string::npos);
}

TEST(CliArgs, PositionalsAcceptedUpToLimit) {
  const auto args = parse({"--flag=true", "in.json", "--alpha", "3"}, kOperand);
  ASSERT_EQ(args.positionals().size(), 1u);
  EXPECT_EQ(args.positionals()[0], "in.json");
  EXPECT_TRUE(args.get_bool("flag"));
  EXPECT_EQ(args.get_long("alpha"), 3);
  EXPECT_TRUE(parse({}, kOperand).positionals().empty());
}

TEST(CliArgs, PositionalBeyondLimitRejected) {
  EXPECT_EQ(parse_error({"a", "b"}, kOperand), "unexpected positional argument: b");
}

TEST(CliArgs, ValueFlagWithoutValueFails) {
  // Given last, or followed by another flag, a value flag has no value: it
  // must fail, not read "true" (roccprof t.json --json wrote ./true).
  for (const auto& argv : {std::vector<const char*>{"--alpha"},
                           std::vector<const char*>{"--alpha", "--flag"},
                           std::vector<const char*>{"--alpha", "--beta", "x"}}) {
    EXPECT_EQ(parse_error(argv), "flag --alpha needs a value");
  }
  EXPECT_EQ(parse({"--file="}).get_string("file"), "");  // explicit empty value
  EXPECT_TRUE(parse({"--file="}).has("file"));
  EXPECT_EQ(parse({"--alpha", "-3"}).get_long("alpha"), -3);  // one dash is a value
}

TEST(CliArgs, SwitchNeverTakesTheNextArgument) {
  // roccprof --hypotheses t.json: the file is the positional, not the
  // switch's value.
  const auto args = parse({"--flag", "t.json"}, kOperand);
  EXPECT_TRUE(args.get_bool("flag"));
  ASSERT_EQ(args.positionals().size(), 1u);
  EXPECT_EQ(args.positionals()[0], "t.json");
  EXPECT_EQ(parse_error({"--flag", "7"}),  // no positionals allowed
            "unexpected positional argument: 7 (--flag is a switch; a value goes as "
            "--flag=7)");
  // An optional value goes only with = (--adaptive-sampling=X).
  EXPECT_EQ(parse_error({"--budget", "0.5"}),
            "unexpected positional argument: 0.5 (--budget is a switch; a value goes as "
            "--budget=0.5)");
}

TEST(CliArgs, RejectsMalformedNumbers) {
  // Typed rows check their values at parse time, before any read.
  EXPECT_EQ(parse_error({"--alpha", "12abc"}), "flag --alpha: not an integer: 12abc");
  EXPECT_EQ(parse_error({"--gamma", "12abc"}), "flag --gamma: not a number: 12abc");
  EXPECT_EQ(parse_error({"--budget=yes"}), "flag --budget: not a number: yes");
  EXPECT_EQ(parse({"--beta", "12abc"}).get_string("beta"), "12abc");  // text is text
}

TEST(CliArgs, BoundedIntegersRejectOverflowAndRange) {
  // strtol saturates on overflow; the parse must not pass LONG_MAX on, and
  // a value outside the row's bounds must not wrap into its field.
  EXPECT_THROW(parse({"--alpha=99999999999999999999999"}), std::invalid_argument);
  EXPECT_THROW(parse({"--int32=4294967298"}), std::invalid_argument);
  EXPECT_THROW(parse({"--count=-1"}), std::invalid_argument);
  EXPECT_EQ(parse_error({"--count=0"}), "flag --count: out of range [1, 10]: 0");
  EXPECT_EQ(parse({"--int32=2147483647"}).get_long("int32"), kCountMax);
  EXPECT_EQ(parse({"--count=10"}).get_long("count"), 10);
}

TEST(CliArgs, RowBoundsRejectAtParseTime) {
  // A bad value fails even when nothing reads it, so --help cannot hide it.
  EXPECT_EQ(parse_error({"--count=11", "--help"}), "flag --count: out of range [1, 10]: 11");
  EXPECT_EQ(parse_error({"--help", "--gamma", "abc"}), "flag --gamma: not a number: abc");
}

TEST(CliArgs, NegativeValuesViaEquals) {
  // A negative space-separated value would look like a flag; the = form
  // carries it through.
  const auto args = parse({"--alpha=-5"});
  EXPECT_EQ(args.get_long("alpha"), -5);
}

TEST(CliArgs, HelpListsEveryRowOnceWithPlaceholderAndDefault) {
  const auto args = parse({}, kOperand);
  std::fflush(stdout);
  testing::internal::CaptureStdout();
  args.print_help("prog — a test tool");
  const std::string help = testing::internal::GetCapturedStdout();
  EXPECT_EQ(help,
            "prog — a test tool\n"
            "\n"
            "  FILE         the input\n"
            "  --alpha N    an integer; default 7\n"
            "  --beta TEXT  a string; default dflt\n"
            "  --gamma X    a number; default 2.5\n"
            "  --file FILE  a path\n"
            "               without a default\n"
            "  --count N    a bounded count; default 1\n"
            "  --int32 N    an int32 field; default 0\n"
            "  --flag       a switch\n"
            "  --budget[=X] a switch with an optional value; default 5\n"
            "  --help       this text\n");
}

TEST(CliArgs, UnknownFlagWithoutHelpRowSkipsTheHint) {
  // Benches list only --jobs and --bench-json: no --help to point at.
  const std::vector<Flag> rows = {{"jobs", Kind::Integer, "N", "0", "", 0, kCountMax}};
  const char* argv[] = {"bench", "--job", "1"};
  try {
    (void)CliArgs(3, argv, rows);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown flag: --job (did you mean --jobs?)");
  }
}

}  // namespace
}  // namespace paradyn::tools
