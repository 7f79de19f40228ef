#include <gtest/gtest.h>

#include <set>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "common/table_printer.h"

namespace sc {
namespace {

TEST(BytesTest, FormatPlainBytes) {
  EXPECT_EQ(FormatBytes(0), "0B");
  EXPECT_EQ(FormatBytes(999), "999B");
}

TEST(BytesTest, FormatDecimalUnits) {
  EXPECT_EQ(FormatBytes(1600 * kMB), "1.60GB");
  EXPECT_EQ(FormatBytes(1 * kKB), "1.00KB");
  EXPECT_EQ(FormatBytes(25 * kMB), "25.00MB");
}

TEST(BytesTest, FormatNegative) {
  EXPECT_EQ(FormatBytes(-2 * kGB), "-2.00GB");
}

TEST(BytesTest, ParseRoundTrip) {
  EXPECT_EQ(ParseBytes("123"), 123);
  EXPECT_EQ(ParseBytes("1.6GB"), 1600 * kMB);
  EXPECT_EQ(ParseBytes("512MB"), 512 * kMB);
  EXPECT_EQ(ParseBytes("4KiB"), 4 * kKiB);
  EXPECT_EQ(ParseBytes("2g"), 2 * kGB);
}

TEST(BytesTest, ParseRejectsGarbage) {
  EXPECT_EQ(ParseBytes(""), -1);
  EXPECT_EQ(ParseBytes("abc"), -1);
  EXPECT_EQ(ParseBytes("12XB"), -1);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(1);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, ZipfBoundsAndSkew) {
  Rng rng(3);
  std::int64_t ones = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.Zipf(100, 1.1);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 100);
    if (v == 1) ++ones;
  }
  // Skewed: rank 1 should appear far more often than uniform (20/2000).
  EXPECT_GT(ones, 100);
}

TEST(RngTest, WeightedIndexHonoursZeroWeights) {
  Rng rng(5);
  const std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.WeightedIndex(weights), 1u);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(11);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto copy = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(copy.begin(), copy.end());
  EXPECT_EQ(a, b);
}

TEST(StrUtilTest, SplitKeepsEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StrUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StrUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("store_sales", "store"));
  EXPECT_FALSE(StartsWith("ss", "store"));
}

TEST(StrUtilTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter printer({"name", "value"});
  printer.AddRow({"a", "1"});
  printer.AddRow({"long-name", "22"});
  const std::string out = printer.ToString();
  EXPECT_NE(out.find("| name      | value |"), std::string::npos);
  EXPECT_NE(out.find("| long-name | 22    |"), std::string::npos);
}

TEST(TablePrinterTest, PadsShortRows) {
  TablePrinter printer({"a", "b", "c"});
  printer.AddRow({"only"});
  const std::string out = printer.ToString();
  EXPECT_NE(out.find("only"), std::string::npos);
}

TEST(TablePrinterTest, SeparatorAddsRule) {
  TablePrinter printer({"h"});
  printer.AddRow({"x"});
  printer.AddSeparator();
  printer.AddRow({"y"});
  const std::string out = printer.ToString();
  // 5 rules: top, after header, mid separator, bottom... count '+--' lines.
  int rules = 0;
  for (std::size_t pos = 0; (pos = out.find("+-", pos)) != std::string::npos;
       ++pos) {
    ++rules;
  }
  EXPECT_GE(rules, 4);
}

}  // namespace
}  // namespace sc
