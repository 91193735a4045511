#include <gtest/gtest.h>

#include "pob/mech/barter.h"

namespace pob {
namespace {

SwarmState rich_state() {
  // 4 nodes, 6 blocks; clients hold plenty to send.
  SwarmState s(4, 6);
  for (NodeId c = 1; c <= 3; ++c) {
    for (BlockId b = 0; b < 4; ++b) s.add_block(c, (b + c) % 6, 1);
  }
  return s;
}

TEST(CreditLedger, SignConventionAndSymmetry) {
  CreditLedger ledger;
  EXPECT_EQ(ledger.net(1, 2), 0);
  ledger.record(1, 2);
  EXPECT_EQ(ledger.net(1, 2), 1);
  EXPECT_EQ(ledger.net(2, 1), -1);
  ledger.record(2, 1);
  EXPECT_EQ(ledger.net(1, 2), 0);
  ledger.record(5, 3);  // higher id sends to lower
  EXPECT_EQ(ledger.net(5, 3), 1);
  EXPECT_EQ(ledger.net(3, 5), -1);
}

TEST(CreditLimited, RequiresPositiveLimit) {
  EXPECT_THROW(CreditLimited(0), std::invalid_argument);
}

TEST(CreditLimited, OneFreeBlockThenBlocked) {
  CreditLimited mech(1);
  const SwarmState s = rich_state();
  const std::vector<Transfer> first = {{1, 2, 1}};
  ASSERT_EQ(mech.check_tick(2, first, s), std::nullopt);
  mech.commit_tick(2, first, s);
  EXPECT_EQ(mech.ledger().net(1, 2), 1);
  EXPECT_FALSE(mech.may_upload(1, 2));
  EXPECT_TRUE(mech.may_upload(2, 1));  // the debtor can repay

  const std::vector<Transfer> second = {{1, 2, 2}};
  EXPECT_TRUE(mech.check_tick(3, second, s).has_value());
}

TEST(CreditLimited, SimultaneousExchangeKeepsNetFlat) {
  CreditLimited mech(1);
  const SwarmState s = rich_state();
  // u->v and v->u in the same tick: net stays 0, always legal.
  const std::vector<Transfer> tick = {{1, 2, 1}, {2, 1, 5}};
  for (Tick t = 2; t < 10; ++t) {
    ASSERT_EQ(mech.check_tick(t, tick, s), std::nullopt) << t;
    mech.commit_tick(t, tick, s);
  }
  EXPECT_EQ(mech.ledger().net(1, 2), 0);
}

TEST(CreditLimited, HigherLimitAllowsDeeperDebt) {
  CreditLimited mech(3);
  const SwarmState s = rich_state();
  for (const BlockId b : {1u, 2u, 3u}) {
    const std::vector<Transfer> tick = {{1, 2, b}};
    ASSERT_EQ(mech.check_tick(b + 1, tick, s), std::nullopt);
    mech.commit_tick(b + 1, tick, s);
  }
  EXPECT_EQ(mech.ledger().net(1, 2), 3);
  EXPECT_FALSE(mech.may_upload(1, 2));
  const std::vector<Transfer> over = {{1, 2, 4}};
  EXPECT_TRUE(mech.check_tick(9, over, s).has_value());
}

TEST(CreditLimited, ServerIsExemptBothWays) {
  CreditLimited mech(1);
  const SwarmState s = rich_state();
  const std::vector<Transfer> server_sends = {{kServer, 1, 5}, {kServer, 2, 5}};
  EXPECT_EQ(mech.check_tick(2, server_sends, s), std::nullopt);
  EXPECT_TRUE(mech.may_upload(kServer, 1));
  EXPECT_FALSE(mech.may_upload(1, kServer));
  const std::vector<Transfer> to_server = {{1, kServer, 1}};
  EXPECT_TRUE(mech.check_tick(2, to_server, s).has_value());
}

TEST(CreditLimited, ChecksWholeTickNet) {
  CreditLimited mech(1);
  const SwarmState s = rich_state();
  // Two u->v transfers in one tick overdraw a limit of 1 even from zero.
  const std::vector<Transfer> tick = {{1, 2, 1}, {1, 2, 2}};
  EXPECT_TRUE(mech.check_tick(2, tick, s).has_value());
}

TEST(CreditLimited, ReportsTheLowestViolatingPair) {
  CreditLimited mech(1);
  const SwarmState s = rich_state();
  // Pairs {2, 3} and {1, 2} both overdraw; the report names {1, 2} however
  // the tick lists them.
  const std::vector<Transfer> high_first = {{2, 3, 1}, {2, 3, 2}, {2, 1, 3}, {2, 1, 4}};
  const std::vector<Transfer> low_first = {{2, 1, 3}, {2, 1, 4}, {2, 3, 1}, {2, 3, 2}};
  for (const auto& tick : {high_first, low_first}) {
    EXPECT_EQ(mech.check_tick(2, tick, s),
              "credit limit 1 exceeded between clients 1 and 2 (end-of-tick net -2)");
  }
}

TEST(CreditLimited, ReportsTheLowestPairWhenItsDebtIsOld) {
  CreditLimited mech(1);
  const SwarmState s = rich_state();
  const std::vector<Transfer> debt = {{1, 3, 1}};
  ASSERT_EQ(mech.check_tick(2, debt, s), std::nullopt);
  mech.commit_tick(2, debt, s);
  // {2, 3} overdraws within the tick and comes first; {1, 3} overdraws only
  // through its ledger debt, yet as the lower pair it is the one reported.
  const std::vector<Transfer> tick = {{2, 3, 1}, {2, 3, 2}, {1, 3, 2}};
  EXPECT_EQ(mech.check_tick(3, tick, s),
            "credit limit 1 exceeded between clients 1 and 3 (end-of-tick net 2)");
}

TEST(CreditLimited, AcceptsAReciprocalExchangeAtTheLimit) {
  CreditLimited mech(1);
  const SwarmState s = rich_state();
  const std::vector<Transfer> debt = {{1, 2, 1}};
  ASSERT_EQ(mech.check_tick(2, debt, s), std::nullopt);
  mech.commit_tick(2, debt, s);
  ASSERT_FALSE(mech.may_upload(1, 2));  // at the limit
  // Another 1 -> 2 block is legal when 2 -> 1 returns one in the same tick.
  const std::vector<Transfer> exchange = {{1, 2, 2}, {2, 1, 5}};
  EXPECT_EQ(mech.check_tick(3, exchange, s), std::nullopt);
  mech.commit_tick(3, exchange, s);
  EXPECT_EQ(mech.ledger().net(1, 2), 1);
}

TEST(CreditLimited, SmallTickAfterALargeOneSeesNoStalePair) {
  CreditLimited mech(1);
  const SwarmState s(64, 2);  // check_tick reads transfers and the ledger only
  // 40 distinct pairs at net 1 plus an overdrawn {1, 2}: the scratch grows.
  std::vector<Transfer> large;
  for (NodeId u = 1; u <= 40; ++u) large.push_back({u, u + 1, 0});
  large.push_back({1, 2, 1});
  EXPECT_EQ(mech.check_tick(2, large, s),
            "credit limit 1 exceeded between clients 1 and 2 (end-of-tick net 2)");
  const std::vector<Transfer> small = {{5, 9, 0}};
  EXPECT_EQ(mech.check_tick(2, small, s), std::nullopt);
  const std::vector<Transfer> small_over = {{7, 3, 0}, {7, 3, 1}};
  EXPECT_EQ(mech.check_tick(2, small_over, s),
            "credit limit 1 exceeded between clients 3 and 7 (end-of-tick net -2)");
}

}  // namespace
}  // namespace pob
