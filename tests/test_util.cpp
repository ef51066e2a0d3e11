#include <gtest/gtest.h>

#include <stdexcept>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace detcol {
namespace {

TEST(Check, ThrowsWithMessage) {
  try {
    DC_CHECK(1 == 2, "one is not ", 2);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("one is not 2"), std::string::npos);
  }
}

TEST(Check, PassesSilently) { DC_CHECK(true, "never shown"); }

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
  EXPECT_EQ(ceil_div(7, 1), 7u);
}

TEST(Math, FractionalPowers) {
  EXPECT_DOUBLE_EQ(fpow(100.0, 0.5), 10.0);
  EXPECT_EQ(ipow_floor(100.0, 0.5), 10u);
  EXPECT_EQ(ipow_floor(2.0, 0.1, 2), 2u);  // lower clamp
  EXPECT_THROW(fpow(-1.0, 0.5), CheckError);
}

TEST(Rng, SplitMixDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(sub_seed(1, 0), sub_seed(1, 1));
  EXPECT_EQ(sub_seed(7, 3), sub_seed(7, 3));
}

TEST(Rng, XoshiroBounds) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, XoshiroRoughlyUniform) {
  Xoshiro256 rng(3);
  int counts[10] = {};
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[rng.next_below(10)];
  for (const int c : counts) {
    EXPECT_NEAR(c, trials / 10, trials / 100);
  }
}

TEST(Table, RendersAlignedCells) {
  Table t({"a", "bb"});
  t.row().cell(std::uint64_t{1}).cell("x");
  t.row().cell(std::uint64_t{22}).cell("yy");
  const std::string s = t.str();
  EXPECT_NE(s.find("| a "), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, TooManyCellsThrows) {
  Table t({"only"});
  t.row().cell("1");
  EXPECT_THROW(t.cell("2"), CheckError);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
}

TEST(Cli, ParsesFlagsAndPositional) {
  const char* argv[] = {"prog", "--n=100",   "--p=0.5", "--name=abc",
                        "pos",  "--verbose", "--list=1,2,3"};
  ArgParser args(7, argv);
  EXPECT_EQ(args.get_uint("n", 0), 100u);
  EXPECT_DOUBLE_EQ(args.get_double("p", 0.0), 0.5);
  EXPECT_EQ(args.get_string("name", ""), "abc");
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_FALSE(args.get_bool("quiet", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos");
  const auto list = args.get_uint_list("list", {});
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[2], 3u);
}

TEST(Cli, BareFlagTrackingLastOneWins) {
  const char* argv[] = {"prog", "--out", "--out=file.txt", "--quiet"};
  ArgParser args(4, argv);
  // A later --name=value overrides an earlier bare --name, bare-ness
  // included; a flag that stays bare reads as "true" and reports was_bare.
  EXPECT_FALSE(args.was_bare("out"));
  EXPECT_EQ(args.get_string("out", ""), "file.txt");
  EXPECT_TRUE(args.was_bare("quiet"));
  EXPECT_EQ(args.get_string("quiet", ""), "true");
  EXPECT_FALSE(args.was_bare("missing"));

  const char* argv2[] = {"prog", "--out=file.txt", "--out"};
  ArgParser args2(3, argv2);
  EXPECT_TRUE(args2.was_bare("out"));
  EXPECT_EQ(args2.get_string("out", ""), "true");

  const auto names = args.flag_names();
  EXPECT_EQ(names.size(), 2u);  // out, quiet (map-deduplicated)
}

}  // namespace
}  // namespace detcol
