#include "pob/exp/cli.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace pob {
namespace {

Args make_args(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return Args(static_cast<int>(v.size()), v.data());
}

TEST(Cli, ParsesEqualsAndSpaceForms) {
  const Args args = make_args({"prog", "--n=100", "--k", "50", "--quick"});
  EXPECT_EQ(args.program(), "prog");
  EXPECT_TRUE(args.has("n"));
  EXPECT_TRUE(args.has("quick"));
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get_int("n", 0), 100);
  EXPECT_EQ(args.get_int("k", 0), 50);
  EXPECT_EQ(args.get_int("missing", 7), 7);
}

TEST(Cli, BareFlagBeforeAnotherFlag) {
  const Args args = make_args({"prog", "--full", "--runs=3"});
  EXPECT_TRUE(args.has("full"));
  EXPECT_EQ(args.get_int("runs", 0), 3);
  EXPECT_EQ(args.get_int("full", 9), 9);  // bare flag has no value
}

TEST(Cli, DoubleAndStringValues) {
  const Args args = make_args({"prog", "--rate=2.5", "--policy=rarest"});
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 2.5);
  EXPECT_EQ(args.get_string("policy", "random"), "rarest");
  EXPECT_EQ(args.get_string("other", "fallback"), "fallback");
}

TEST(Cli, ParsePolicyAcceptsTheThreeSpellingsAndRejectsTheRest) {
  EXPECT_EQ(parse_policy(make_args({"prog"})), BlockPolicy::kRandom);
  EXPECT_EQ(parse_policy(make_args({"prog", "--policy=random"})), BlockPolicy::kRandom);
  EXPECT_EQ(parse_policy(make_args({"prog", "--policy=rarest"})),
            BlockPolicy::kRarestFirst);
  EXPECT_EQ(parse_policy(make_args({"prog", "--policy=rarest-first"})),
            BlockPolicy::kRarestFirst);
  EXPECT_THROW(parse_policy(make_args({"prog", "--policy=rarset"})),
               std::invalid_argument);
  EXPECT_THROW(parse_policy(make_args({"prog", "--policy="})), std::invalid_argument);
  EXPECT_THROW(parse_policy(make_args({"prog", "--policy=Random"})),
               std::invalid_argument);
}

TEST(Cli, IntListParsing) {
  const Args args = make_args({"prog", "--degrees=10,20,40"});
  EXPECT_EQ(args.get_int_list("degrees", {}), (std::vector<std::int64_t>{10, 20, 40}));
  EXPECT_EQ(args.get_int_list("none", {1, 2}), (std::vector<std::int64_t>{1, 2}));
}

TEST(Cli, RejectUnknownNamesTheFirstFlagNoGetterRead) {
  const Args args = make_args({"prog", "--n=5", "--degre=4", "--json=x"});
  EXPECT_EQ(args.get_int("n", 0), 5);
  EXPECT_EQ(args.get_u32("degree", 20), 20u);  // the typo is not "degree"
  try {
    args.reject_unknown({"json"});
    FAIL() << "--degre passed";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown flag --degre");
  }
  EXPECT_EQ(args.get_int("degre", 0), 4);  // read now, so it is known
  EXPECT_NO_THROW(args.reject_unknown({"json"}));
  EXPECT_THROW(args.reject_unknown(), std::invalid_argument);  // --json unread
}

TEST(Cli, IntegerFlagsAreRangeCheckedNotWrapped) {
  const Args args = make_args({"prog", "--degree=-1", "--big=4294967296",
                               "--max=4294967295", "--junk=12abc", "--seed=-1"});
  try {
    args.get_u32("degree", 0);
    FAIL() << "--degree=-1 wrapped";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--degree=-1"), std::string::npos);
  }
  EXPECT_THROW(args.get_u32("big", 0), std::invalid_argument);
  EXPECT_EQ(args.get_u32("max", 0), 4294967295u);
  EXPECT_THROW(args.get_int("junk", 0), std::invalid_argument);
  EXPECT_THROW(args.get_u64("seed", 0), std::invalid_argument);
  EXPECT_EQ(args.get_u32("absent", 7), 7u);
}

TEST(Cli, BoolFlags) {
  const Args args = make_args({"prog", "--a", "--b=false", "--c=1", "--d=yes"});
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
  EXPECT_THROW(args.get_bool("d", false), std::invalid_argument);
  EXPECT_TRUE(args.get_bool("absent", true));
}

TEST(Cli, RejectsPositionalArguments) {
  EXPECT_THROW(make_args({"prog", "oops"}), std::invalid_argument);
}

}  // namespace
}  // namespace pob
