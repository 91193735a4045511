#include <gtest/gtest.h>

#include "pob/mech/barter.h"

namespace pob {
namespace {

SwarmState seeded_state() {
  // 5 nodes, 4 blocks; clients 1..4 each hold one distinct block.
  SwarmState s(5, 4);
  for (NodeId c = 1; c <= 4; ++c) s.add_block(c, c - 1, 1);
  return s;
}

TEST(StrictBarter, ServerGivesFreely) {
  StrictBarter mech;
  const SwarmState s = seeded_state();
  const std::vector<Transfer> tick = {{kServer, 1, 3}, {kServer, 2, 3}};
  EXPECT_EQ(mech.check_tick(2, tick, s), std::nullopt);
}

TEST(StrictBarter, PairedExchangeIsLegal) {
  StrictBarter mech;
  const SwarmState s = seeded_state();
  const std::vector<Transfer> tick = {{1, 2, 0}, {2, 1, 1}, {3, 4, 2}, {4, 3, 3}};
  EXPECT_EQ(mech.check_tick(2, tick, s), std::nullopt);
}

TEST(StrictBarter, UnreciprocatedTransferIsIllegal) {
  StrictBarter mech;
  const SwarmState s = seeded_state();
  const std::vector<Transfer> tick = {{1, 2, 0}};
  EXPECT_TRUE(mech.check_tick(2, tick, s).has_value());
}

TEST(StrictBarter, ChainIsNotBarter) {
  // 1 -> 2 -> 3 -> 1 is a triangle, not pairwise barter.
  StrictBarter mech;
  const SwarmState s = seeded_state();
  const std::vector<Transfer> tick = {{1, 2, 0}, {2, 3, 1}, {3, 1, 2}};
  EXPECT_TRUE(mech.check_tick(2, tick, s).has_value());
}

TEST(StrictBarter, UploadToServerIsIllegal) {
  StrictBarter mech;
  const SwarmState s = seeded_state();
  const std::vector<Transfer> tick = {{1, kServer, 0}};
  EXPECT_TRUE(mech.check_tick(2, tick, s).has_value());
}

TEST(StrictBarter, MixedServerAndPairs) {
  StrictBarter mech;
  const SwarmState s = seeded_state();
  const std::vector<Transfer> tick = {{kServer, 1, 3}, {2, 3, 1}, {3, 2, 2}};
  EXPECT_EQ(mech.check_tick(2, tick, s), std::nullopt);
}

TEST(StrictBarter, ReportsTheLowestUnbalancedPair) {
  StrictBarter mech;
  const SwarmState s = seeded_state();
  // {3, 4} is unbalanced and comes first; {1, 2} is unbalanced and lower.
  const std::vector<Transfer> tick = {{4, 3, 3}, {1, 2, 0}, {2, 1, 1}, {2, 1, 2}};
  EXPECT_EQ(mech.check_tick(2, tick, s), "unreciprocated exchange between clients 1 and 2");
}

TEST(StrictBarter, NamesPairsAboveTwoToTheThirtyOne) {
  // check_tick reads only the transfers, so ids past the state's size are
  // fine here; they exercise every bit of the pair key.
  StrictBarter mech;
  const SwarmState s = seeded_state();
  const NodeId big = 0x80000001u;
  const std::vector<Transfer> balanced = {{big, big + 1, 0}, {big + 1, big, 1}};
  EXPECT_EQ(mech.check_tick(2, balanced, s), std::nullopt);
  const std::vector<Transfer> tick = {{big + 1, big, 0}};
  EXPECT_EQ(mech.check_tick(3, tick, s), "unreciprocated exchange between clients " +
                                             std::to_string(big) + " and " +
                                             std::to_string(big + 1));
}

TEST(StrictBarter, SmallTickAfterALargeOneSeesNoStalePair) {
  StrictBarter mech;
  const SwarmState s = seeded_state();
  std::vector<Transfer> large;
  for (NodeId u = 1; u <= 40; ++u) {
    large.push_back({u, u + 1, 0});
    large.push_back({u + 1, u, 1});
  }
  EXPECT_EQ(mech.check_tick(2, large, s), std::nullopt);
  const std::vector<Transfer> small = {{3, 4, 2}};
  EXPECT_EQ(mech.check_tick(3, small, s), "unreciprocated exchange between clients 3 and 4");
}

TEST(StrictBarter, EmptyTickIsLegal) {
  StrictBarter mech;
  const SwarmState s = seeded_state();
  EXPECT_EQ(mech.check_tick(1, {}, s), std::nullopt);
}

}  // namespace
}  // namespace pob
