//===- tests/support_test.cpp - Support library tests ---------------------===//

#include "support/CommandLine.h"
#include "support/Histogram.h"
#include "support/Rng.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

using namespace allocsim;

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicForSameSeed) {
  Rng A(42), B(42);
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 100; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 3);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng R(7);
  for (uint64_t Bound : {1ull, 2ull, 3ull, 17ull, 1000ull, 1ull << 40}) {
    for (int I = 0; I < 200; ++I)
      EXPECT_LT(R.nextBelow(Bound), Bound);
  }
}

TEST(RngTest, NextBelowCoversSmallRange) {
  Rng R(9);
  bool Seen[5] = {};
  for (int I = 0; I < 500; ++I)
    Seen[R.nextBelow(5)] = true;
  for (bool S : Seen)
    EXPECT_TRUE(S);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng R(11);
  double Sum = 0;
  for (int I = 0; I < 10000; ++I) {
    double V = R.nextDouble();
    ASSERT_GE(V, 0.0);
    ASSERT_LT(V, 1.0);
    Sum += V;
  }
  EXPECT_NEAR(Sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng R(13);
  double Sum = 0;
  constexpr int N = 20000;
  for (int I = 0; I < N; ++I)
    Sum += R.nextExponential(8.0);
  EXPECT_NEAR(Sum / N, 8.0, 0.3);
}

TEST(RngTest, BoolProbability) {
  Rng R(17);
  int True = 0;
  for (int I = 0; I < 10000; ++I)
    True += R.nextBool(0.3);
  EXPECT_NEAR(True / 10000.0, 0.3, 0.02);
}

//===----------------------------------------------------------------------===//
// DiscreteDistribution
//===----------------------------------------------------------------------===//

TEST(DiscreteDistributionTest, MatchesWeights) {
  DiscreteDistribution Dist({1.0, 3.0, 6.0});
  Rng R(23);
  int Counts[3] = {};
  constexpr int N = 60000;
  for (int I = 0; I < N; ++I)
    ++Counts[Dist.sample(R)];
  EXPECT_NEAR(Counts[0] / double(N), 0.1, 0.01);
  EXPECT_NEAR(Counts[1] / double(N), 0.3, 0.015);
  EXPECT_NEAR(Counts[2] / double(N), 0.6, 0.015);
}

TEST(DiscreteDistributionTest, SingleBucket) {
  DiscreteDistribution Dist({5.0});
  Rng R(1);
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(Dist.sample(R), 0u);
}

TEST(DiscreteDistributionTest, ZeroWeightNeverSampled) {
  DiscreteDistribution Dist({1.0, 0.0, 1.0});
  Rng R(3);
  for (int I = 0; I < 2000; ++I)
    EXPECT_NE(Dist.sample(R), 1u);
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST(HistogramTest, CountsAndTotal) {
  Histogram H;
  H.add(8, 3);
  H.add(16);
  H.add(8);
  EXPECT_EQ(H.count(8), 4u);
  EXPECT_EQ(H.count(16), 1u);
  EXPECT_EQ(H.count(99), 0u);
  EXPECT_EQ(H.total(), 5u);
  EXPECT_EQ(H.distinct(), 2u);
}

TEST(HistogramTest, TopKeysOrdersByFrequencyThenKey) {
  Histogram H;
  H.add(24, 10);
  H.add(8, 10);
  H.add(16, 30);
  H.add(32, 1);
  std::vector<uint64_t> Top = H.topKeys(3);
  ASSERT_EQ(Top.size(), 3u);
  EXPECT_EQ(Top[0], 16u);
  EXPECT_EQ(Top[1], 8u);  // ties break toward smaller keys
  EXPECT_EQ(Top[2], 24u);
}

TEST(HistogramTest, TopKeysClampsToDistinct) {
  Histogram H;
  H.add(1);
  EXPECT_EQ(H.topKeys(10).size(), 1u);
}

TEST(HistogramTest, QuantileKey) {
  Histogram H;
  H.add(10, 50);
  H.add(20, 40);
  H.add(30, 10);
  EXPECT_EQ(H.quantileKey(0.5), 10u);
  EXPECT_EQ(H.quantileKey(0.9), 20u);
  EXPECT_EQ(H.quantileKey(1.0), 30u);
}

TEST(HistogramTest, IterationIsSortedByKey) {
  Histogram H;
  H.add(30);
  H.add(10);
  H.add(20);
  uint64_t Prev = 0;
  for (const auto &[Key, Count] : H) {
    EXPECT_GT(Key, Prev);
    Prev = Key;
  }
}

//===----------------------------------------------------------------------===//
// Table
//===----------------------------------------------------------------------===//

TEST(TableTest, RendersAlignedText) {
  Table T({"name", "value"});
  T.beginRow();
  T.cell("a");
  T.num(uint64_t(42));
  T.beginRow();
  T.cell("longer");
  T.num(3.14159, 2);
  std::ostringstream OS;
  T.renderText(OS, "title");
  std::string Out = OS.str();
  EXPECT_NE(Out.find("title"), std::string::npos);
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("42"), std::string::npos);
  EXPECT_NE(Out.find("3.14"), std::string::npos);
}

TEST(TableTest, RendersCsv) {
  Table T({"a", "b"});
  T.beginRow();
  T.num(uint64_t(1));
  T.num(uint64_t(2));
  std::ostringstream OS;
  T.renderCsv(OS);
  EXPECT_EQ(OS.str(), "a,b\n1,2\n");
}

TEST(TableTest, FormatDouble) {
  EXPECT_EQ(formatDouble(1.25, 1), "1.2");
  EXPECT_EQ(formatDouble(0.5, 3), "0.500");
}

//===----------------------------------------------------------------------===//
// CommandLine
//===----------------------------------------------------------------------===//

TEST(CommandLineTest, ParsesFlagsAndPositional) {
  CommandLine Cli;
  Cli.addFlag("alpha", "1", "");
  Cli.addFlag("beta", "x", "");
  const char *Argv[] = {"prog", "--alpha=7", "pos1", "--beta", "hello"};
  ASSERT_TRUE(Cli.parse(5, Argv));
  EXPECT_EQ(Cli.getInt("alpha"), 7);
  EXPECT_EQ(Cli.getString("beta"), "hello");
  ASSERT_EQ(Cli.positional().size(), 1u);
  EXPECT_EQ(Cli.positional()[0], "pos1");
}

TEST(CommandLineTest, DefaultsApply) {
  CommandLine Cli;
  Cli.addFlag("gamma", "2.5", "");
  const char *Argv[] = {"prog"};
  ASSERT_TRUE(Cli.parse(1, Argv));
  EXPECT_DOUBLE_EQ(Cli.getDouble("gamma"), 2.5);
}

TEST(CommandLineTest, UnknownFlagFails) {
  CommandLine Cli;
  Cli.addFlag("known", "", "");
  const char *Argv[] = {"prog", "--unknown=1"};
  EXPECT_FALSE(Cli.parse(2, Argv));
}

TEST(CommandLineTest, BoolParsing) {
  CommandLine Cli;
  Cli.addFlag("flag", "false", "");
  const char *Argv[] = {"prog", "--flag=true"};
  ASSERT_TRUE(Cli.parse(2, Argv));
  EXPECT_TRUE(Cli.getBool("flag"));
}

TEST(CommandLineTest, BoolFlagRejectsNonBooleanValue) {
  // A flag registered with a boolean default takes only a boolean: a typo,
  // or the next flag swallowed as the value, fails the parse instead of
  // aborting later in getBool.
  for (std::vector<const char *> Argv :
       {std::vector<const char *>{"prog", "--flag=bogus"},
        std::vector<const char *>{"prog", "--flag", "--other", "x"}}) {
    CommandLine Cli;
    Cli.addFlag("flag", "false", "");
    Cli.addFlag("other", "", "");
    EXPECT_FALSE(Cli.parse(static_cast<int>(Argv.size()), Argv.data()))
        << Argv[1];
  }
  CommandLine Cli;
  Cli.addFlag("flag", "true", "");
  Cli.addFlag("count", "0", "");
  const char *Argv[] = {"prog", "--flag", "no", "--count=abc"};
  ASSERT_TRUE(Cli.parse(4, Argv)) << "only boolean defaults are checked";
  EXPECT_FALSE(Cli.getBool("flag"));
}

TEST(CommandLineTest, HelpReturnsFalse) {
  CommandLine Cli;
  const char *Argv[] = {"prog", "--help"};
  EXPECT_FALSE(Cli.parse(2, Argv));
}
