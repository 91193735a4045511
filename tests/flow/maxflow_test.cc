#include "pob/flow/maxflow.h"

#include <gtest/gtest.h>

#include <vector>

namespace pob::flow {
namespace {

TEST(MaxFlow, SingleArcCarriesItsCapacity) {
  FlowNetwork net(2);
  const std::uint32_t arc = net.add_arc(0, 1, 5);
  EXPECT_EQ(net.max_flow(0, 1), 5);
  EXPECT_EQ(net.arc_flow(arc), 5);
}

TEST(MaxFlow, DisconnectedSinkGetsZero) {
  FlowNetwork net(3);
  net.add_arc(0, 1, 5);
  EXPECT_EQ(net.max_flow(0, 2), 0);
}

TEST(MaxFlow, ClassicDiamondNeedsTheCrossArc) {
  // s=0, a=1, b=2, t=3: the cross arc a->b unlocks the third unit.
  FlowNetwork net(4);
  net.add_arc(0, 1, 2);
  net.add_arc(0, 2, 1);
  net.add_arc(1, 3, 1);
  net.add_arc(2, 3, 2);
  const std::uint32_t cross = net.add_arc(1, 2, 1);
  EXPECT_EQ(net.max_flow(0, 3), 3);
  EXPECT_EQ(net.arc_flow(cross), 1);
}

TEST(MaxFlow, BipartiteMatchingRoutesEveryUnit) {
  // Source 0, left {1,2,3}, right {4,5,6}, sink 7; a perfect matching exists.
  FlowNetwork net(8);
  for (std::uint32_t l = 1; l <= 3; ++l) net.add_arc(0, l, 1);
  for (std::uint32_t r = 4; r <= 6; ++r) net.add_arc(r, 7, 1);
  net.add_arc(1, 4, 1);
  net.add_arc(1, 5, 1);
  net.add_arc(2, 4, 1);
  net.add_arc(3, 6, 1);
  EXPECT_EQ(net.max_flow(0, 7), 3);
}

TEST(MaxFlow, LimitStopsEarly) {
  FlowNetwork net(2);
  net.add_arc(0, 1, 10);
  EXPECT_EQ(net.max_flow(0, 1, 4), 4);
  // The remaining capacity is still routable by a second call.
  EXPECT_EQ(net.max_flow(0, 1), 6);
}

TEST(MaxFlow, ResidualsAllowReroutingAcrossCalls) {
  // A long path graph exercises the iterative (non-recursive) augmenter.
  constexpr std::uint32_t kLen = 50'000;
  FlowNetwork net(kLen + 1);
  for (std::uint32_t i = 0; i < kLen; ++i) net.add_arc(i, i + 1, 2);
  EXPECT_EQ(net.max_flow(0, kLen), 2);
}

TEST(MaxFlow, AddNodeExtendsTheNetwork) {
  FlowNetwork net(1);
  const std::uint32_t mid = net.add_node();
  const std::uint32_t sink = net.add_node();
  EXPECT_EQ(net.num_nodes(), 3u);
  net.add_arc(0, mid, 3);
  net.add_arc(mid, sink, 2);
  EXPECT_EQ(net.max_flow(0, sink), 2);
  EXPECT_EQ(net.num_arcs(), 2u);
}

TEST(MinCostFlow, PrefersTheCheapPathFirst) {
  // Two disjoint unit paths, cost 1 and cost 3.
  FlowNetwork net(4);
  net.add_arc(0, 1, 1, 1);
  net.add_arc(1, 3, 1, 0);
  net.add_arc(0, 2, 1, 3);
  net.add_arc(2, 3, 1, 0);
  const auto one = net.min_cost_max_flow(0, 3, 1);
  EXPECT_EQ(one.flow, 1);
  EXPECT_EQ(one.cost, 1);
  const auto rest = net.min_cost_max_flow(0, 3);
  EXPECT_EQ(rest.flow, 1);
  EXPECT_EQ(rest.cost, 3);
}

TEST(MinCostFlow, ReroutesThroughResidualArcs) {
  // The classic case where the second augmentation must cancel flow on the
  // middle arc: s=0, a=1, b=2, t=3.
  FlowNetwork net(4);
  net.add_arc(0, 1, 1, 1);
  net.add_arc(0, 2, 1, 4);
  net.add_arc(1, 2, 1, 1);
  net.add_arc(1, 3, 1, 5);
  net.add_arc(2, 3, 1, 1);
  const auto result = net.min_cost_max_flow(0, 3);
  EXPECT_EQ(result.flow, 2);
  // Cheapest path 0->1->2->3 (cost 3) saturates 2->3; the second unit must
  // cancel 1->2 via its residual: 0->2->(1)->3 costs 4 - 1 + 5 = 8.
  EXPECT_EQ(result.cost, 11);
}

TEST(MinCostFlow, ReportsEachAugmentationInOrder) {
  // The residual case above, logged: each step's units and per-unit path
  // cost (the second cancels the middle arc), nondecreasing, summing to the
  // totals.
  FlowNetwork net(4);
  net.add_arc(0, 1, 1, 1);
  net.add_arc(0, 2, 1, 4);
  net.add_arc(1, 2, 1, 1);
  net.add_arc(1, 3, 1, 5);
  net.add_arc(2, 3, 1, 1);
  std::vector<FlowNetwork::Augmentation> steps;
  const auto result = net.min_cost_max_flow(0, 3, kInfCapacity, &steps);
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].flow, 1);
  EXPECT_EQ(steps[0].cost, 3);
  EXPECT_EQ(steps[1].flow, 1);
  EXPECT_EQ(steps[1].cost, 8);
  EXPECT_EQ(result.cost, steps[0].cost + steps[1].cost);
}

TEST(MinCostFlow, MatchesMaxFlowValue) {
  FlowNetwork a(4), b(4);
  for (FlowNetwork* net : {&a, &b}) {
    net->add_arc(0, 1, 2, 1);
    net->add_arc(0, 2, 1, 1);
    net->add_arc(1, 3, 1, 2);
    net->add_arc(2, 3, 2, 2);
    net->add_arc(1, 2, 1, 0);
  }
  EXPECT_EQ(b.min_cost_max_flow(0, 3).flow, a.max_flow(0, 3));
}

}  // namespace
}  // namespace pob::flow
