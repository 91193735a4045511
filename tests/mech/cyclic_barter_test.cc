#include <gtest/gtest.h>

#include "pob/mech/barter.h"

namespace pob {
namespace {

SwarmState seeded_state() {
  SwarmState s(6, 6);
  for (NodeId c = 1; c <= 5; ++c) s.add_block(c, c, 1);
  return s;
}

TEST(CyclicBarter, RejectsTrivialCycleLength) {
  EXPECT_THROW(CyclicBarter(1, 1), std::invalid_argument);
}

TEST(CyclicBarter, TriangleClearsUnderTriangular) {
  CyclicBarter mech = make_triangular_barter(1);
  const SwarmState s = seeded_state();
  const std::vector<Transfer> tri = {{1, 2, 1}, {2, 3, 2}, {3, 1, 3}};
  ASSERT_EQ(mech.check_tick(2, tri, s), std::nullopt);
  mech.commit_tick(2, tri, s);
  // Cleared cyclically: the ledger carries no debt.
  EXPECT_EQ(mech.ledger().net(1, 2), 0);
  EXPECT_EQ(mech.ledger().net(2, 3), 0);
}

TEST(CyclicBarter, PairClearsToo) {
  CyclicBarter mech = make_triangular_barter(1);
  const SwarmState s = seeded_state();
  const std::vector<Transfer> pair = {{1, 2, 1}, {2, 1, 2}};
  EXPECT_EQ(mech.check_tick(2, pair, s), std::nullopt);
}

TEST(CyclicBarter, FourCycleDoesNotClearUnderTriangular) {
  CyclicBarter mech = make_triangular_barter(1);
  const SwarmState s = seeded_state();
  const std::vector<Transfer> quad = {{1, 2, 1}, {2, 3, 2}, {3, 4, 3}, {4, 1, 4}};
  // Each edge falls back to credit; all within limit 1, so legal...
  ASSERT_EQ(mech.check_tick(2, quad, s), std::nullopt);
  mech.commit_tick(2, quad, s);
  // ...but the ledger now carries debt (unlike a cleared cycle).
  EXPECT_EQ(mech.ledger().net(1, 2), 1);
  // Re-running the same tick would overdraw the credit line.
  EXPECT_TRUE(mech.check_tick(3, quad, s).has_value());
}

TEST(CyclicBarter, FourCycleClearsWhenLengthAllowed) {
  CyclicBarter mech(4, 1);
  const SwarmState s = seeded_state();
  const std::vector<Transfer> quad = {{1, 2, 1}, {2, 3, 2}, {3, 4, 3}, {4, 1, 4}};
  for (Tick t = 2; t < 8; ++t) {
    ASSERT_EQ(mech.check_tick(t, quad, s), std::nullopt) << t;
    mech.commit_tick(t, quad, s);
  }
  EXPECT_EQ(mech.ledger().net(1, 2), 0);
}

TEST(CyclicBarter, LoneTransferUsesCredit) {
  CyclicBarter mech = make_triangular_barter(1);
  const SwarmState s = seeded_state();
  const std::vector<Transfer> lone = {{1, 2, 1}};
  ASSERT_EQ(mech.check_tick(2, lone, s), std::nullopt);
  mech.commit_tick(2, lone, s);
  EXPECT_FALSE(mech.may_upload(1, 2));
  EXPECT_TRUE(mech.check_tick(3, lone, s).has_value());
}

TEST(CyclicBarter, ReportsTheLowestViolatingPair) {
  CyclicBarter mech = make_triangular_barter(1);
  const SwarmState s = seeded_state();
  // No cycles: pairs {4, 5} and {1, 3} both overdraw; the report names
  // {1, 3} however the tick lists them.
  const std::vector<Transfer> high_first = {{4, 5, 4}, {4, 5, 1}, {1, 3, 1}, {1, 3, 2}};
  const std::vector<Transfer> low_first = {{1, 3, 1}, {1, 3, 2}, {4, 5, 4}, {4, 5, 1}};
  for (const auto& tick : {high_first, low_first}) {
    EXPECT_EQ(mech.check_tick(2, tick, s),
              "credit limit 1 exceeded between clients 1 and 3 outside barter cycles "
              "(end-of-tick net 2)");
  }
}

TEST(CyclicBarter, ServerExemptAndNoUploadsToServer) {
  CyclicBarter mech = make_triangular_barter(1);
  const SwarmState s = seeded_state();
  const std::vector<Transfer> from_server = {{kServer, 1, 0}};
  EXPECT_EQ(mech.check_tick(2, from_server, s), std::nullopt);
  const std::vector<Transfer> to_server = {{1, kServer, 1}};
  EXPECT_TRUE(mech.check_tick(2, to_server, s).has_value());
}

TEST(CyclicBarter, TriangleSharingANodeClears) {
  // Two triangles sharing node 1; out-degree stays 1 per node except node 1
  // which uploads twice (capacity 2 scenario).
  CyclicBarter mech = make_triangular_barter(1);
  const SwarmState s = seeded_state();
  const std::vector<Transfer> two_tris = {{1, 2, 1}, {2, 3, 2}, {3, 1, 3},
                                          {1, 4, 1}, {4, 5, 4}, {5, 1, 5}};
  ASSERT_EQ(mech.check_tick(2, two_tris, s), std::nullopt);
  mech.commit_tick(2, two_tris, s);
  EXPECT_EQ(mech.ledger().net(1, 4), 0);
}

}  // namespace
}  // namespace pob
