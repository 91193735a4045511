// PairTable, the per-tick pair-key set behind the scale merge's admission,
// the core engine's duplicate-delivery check and the barter mechanisms'
// per-pair netting.

#include "pob/core/pair_table.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace pob {
namespace {

std::uint64_t pair_key(std::uint32_t a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

TEST(PairTable, RejectsADuplicateInsertWithinATick) {
  PairTable table;
  table.begin_tick(4);
  EXPECT_TRUE(table.insert(pair_key(3, 7)));
  EXPECT_TRUE(table.insert(pair_key(7, 3)));
  EXPECT_TRUE(table.insert(0));
  EXPECT_FALSE(table.insert(pair_key(3, 7)));
  EXPECT_FALSE(table.insert(0));
}

TEST(PairTable, BeginTickEmptiesTheTable) {
  PairTable table;
  table.begin_tick(4);
  ASSERT_TRUE(table.insert(pair_key(1, 2)));
  table.value(pair_key(2, 1)) = 5;
  table.begin_tick(4);
  EXPECT_TRUE(table.insert(pair_key(1, 2)));
  EXPECT_EQ(table.value(pair_key(2, 1)), 0u);
}

TEST(PairTable, ValueStartsAtZeroAndSharesTheKeyWithInsert) {
  PairTable table;
  table.begin_tick(2);
  EXPECT_EQ(table.value(pair_key(4, 9)), 0u);
  table.value(pair_key(4, 9)) += 3;
  EXPECT_EQ(table.value(pair_key(4, 9)), 3u);
  EXPECT_FALSE(table.insert(pair_key(4, 9)));
  EXPECT_TRUE(table.insert(pair_key(9, 4)));
  EXPECT_EQ(table.value(pair_key(9, 4)), 0u);
}

TEST(PairTable, GrowsBetweenTicksAndNeverShrinks) {
  PairTable table;
  table.begin_tick(3);
  const std::uint64_t small = table.memory_bytes();
  for (std::uint32_t i = 0; i < 3; ++i) ASSERT_TRUE(table.insert(pair_key(i, i + 1)));

  // A tick of 1000 keys: every distinct key goes in once, at load <= 1/2.
  table.begin_tick(1000);
  const std::uint64_t large = table.memory_bytes();
  EXPECT_GT(large, small);
  for (std::uint32_t i = 0; i < 1000; ++i) ASSERT_TRUE(table.insert(pair_key(i, 7 * i)));
  for (std::uint32_t i = 0; i < 1000; ++i) EXPECT_FALSE(table.insert(pair_key(i, 7 * i)));

  // Back to a small tick: the slots stay, and nothing of the last tick does.
  table.begin_tick(3);
  EXPECT_EQ(table.memory_bytes(), large);
  for (std::uint32_t i = 0; i < 1000; ++i) EXPECT_TRUE(table.insert(pair_key(i, 7 * i)));
}

}  // namespace
}  // namespace pob
