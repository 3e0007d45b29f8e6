#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/math_util.hpp"

namespace swatop {
namespace {

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0);
  EXPECT_EQ(ceil_div(1, 4), 1);
  EXPECT_EQ(ceil_div(4, 4), 1);
  EXPECT_EQ(ceil_div(5, 4), 2);
  EXPECT_EQ(ceil_div(8, 4), 2);
  EXPECT_THROW(ceil_div(4, 0), CheckError);
  EXPECT_THROW(ceil_div(-1, 4), CheckError);
}

TEST(MathUtil, AlignUpDown) {
  EXPECT_EQ(align_up(0, 32), 0);
  EXPECT_EQ(align_up(1, 32), 32);
  EXPECT_EQ(align_up(32, 32), 32);
  EXPECT_EQ(align_up(33, 32), 64);
  EXPECT_EQ(align_down(33, 32), 32);
  EXPECT_EQ(align_down(31, 32), 0);
}

TEST(MathUtil, Divisors) {
  EXPECT_EQ(divisors(1), (std::vector<std::int64_t>{1}));
  EXPECT_EQ(divisors(12), (std::vector<std::int64_t>{1, 2, 3, 4, 6, 12}));
  EXPECT_EQ(divisors(16), (std::vector<std::int64_t>{1, 2, 4, 8, 16}));
  EXPECT_THROW(divisors(0), CheckError);
}

TEST(MathUtil, SplitFactors) {
  const auto fs = split_factors(12);
  // Divisors of 12 plus powers of two up to 12, deduped, sorted.
  EXPECT_EQ(fs, (std::vector<std::int64_t>{1, 2, 3, 4, 6, 8, 12}));
  const auto capped = split_factors(12, 4);
  EXPECT_EQ(capped, (std::vector<std::int64_t>{1, 2, 3, 4}));
}

TEST(MathUtil, Gcd) {
  EXPECT_EQ(gcd(12, 18), 6);
  EXPECT_EQ(gcd(7, 13), 1);
  EXPECT_EQ(gcd(0, 5), 5);
}

TEST(MathUtil, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
  EXPECT_FALSE(is_pow2(-4));
}

TEST(Check, ThrowsWithMessage) {
  try {
    SWATOP_CHECK(1 == 2) << "context " << 42;
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

}  // namespace
}  // namespace swatop
