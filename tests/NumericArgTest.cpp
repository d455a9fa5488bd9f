//===- tests/NumericArgTest.cpp - Strict numeric flag values --------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/NumericArg.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

using namespace mgc;

namespace {

TEST(NumericArg, AcceptsPlainDecimalsInRange) {
  uint64_t V = 7;
  EXPECT_TRUE(support::parseDecimal("0", 0, 10, V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(support::parseDecimal("0042", 0, 100, V));
  EXPECT_EQ(V, 42u);
  EXPECT_TRUE(support::parseDecimal("100", 1, 100, V));
  EXPECT_EQ(V, 100u);
  EXPECT_TRUE(support::parseDecimal("18446744073709551615", 0, UINT64_MAX, V));
  EXPECT_EQ(V, UINT64_MAX);
}

TEST(NumericArg, RejectsEverythingElse) {
  uint64_t V = 7;
  for (const char *Bad : {"", "64k", "abc", "-1", "+5", " 5", "5 ", "0x10",
                          "1e3", "18446744073709551616",
                          "99999999999999999999999"})
    EXPECT_FALSE(support::parseDecimal(Bad, 0, UINT64_MAX, V)) << Bad;
  EXPECT_FALSE(support::parseDecimal("0", 1, 100, V));
  EXPECT_FALSE(support::parseDecimal("101", 1, 100, V));
  EXPECT_FALSE(support::parseDecimal("5", 0, 1, V));
  EXPECT_FALSE(support::parseDecimal(nullptr, 0, 1, V));
  EXPECT_EQ(V, 7u) << "a rejected value must leave the output alone";
}

TEST(NumericArg, RangeDefaultsToTheDestinationType) {
  uint32_t W = 3;
  EXPECT_FALSE(support::parseNumericArg("t", "--w", "4294967297", W));
  EXPECT_EQ(W, 3u);
  EXPECT_TRUE(support::parseNumericArg("t", "--w", "4294967295", W));
  EXPECT_EQ(W, UINT32_MAX);
  size_t Top = 0;
  EXPECT_FALSE(support::parseNumericArg("t", "--top", "0", Top, /*Min=*/1));
  EXPECT_TRUE(support::parseNumericArg("t", "--top", "1", Top, /*Min=*/1));
  EXPECT_EQ(Top, 1u);
}

} // namespace
