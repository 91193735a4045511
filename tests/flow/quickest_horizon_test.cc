// Differential pin for the certificate's flow component: quickest_horizon
// (one min-cost flow on the static overlay) must return exactly the least
// horizon that the time-expanded reference oracle, horizon_feasible, accepts
// in a linear scan — for every client of a seeded grid of overlays, capacity
// shapes and both mechanism families — and the certificate built on it must
// equal the bound that scan implies, the hi + 1 clamp included.

#include "pob/flow/certify.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "pob/core/rng.h"
#include "pob/overlay/builders.h"

namespace pob::flow {
namespace {

using scale::Topology;

enum class Shape { kUnit, kDown2Server2, kUp2Unlimited, kPerNode, kPerNodeServerZero };

EngineConfig shape_cfg(std::uint32_t n, std::uint32_t k, Shape shape, Rng& rng) {
  EngineConfig cfg;
  cfg.num_nodes = n;
  cfg.num_blocks = k;
  cfg.download_capacity = 1;
  switch (shape) {
    case Shape::kUnit:
      break;
    case Shape::kDown2Server2:
      cfg.download_capacity = 2;
      cfg.server_upload_capacity = 2;
      break;
    case Shape::kUp2Unlimited:
      cfg.upload_capacity = 2;
      cfg.download_capacity = kUnlimited;
      break;
    case Shape::kPerNode:
    case Shape::kPerNodeServerZero:
      for (std::uint32_t i = 0; i < n; ++i) {
        cfg.upload_capacities.push_back(rng.below(4));  // 0 included
        const std::uint32_t down = rng.below(4);
        cfg.download_capacities.push_back(down == 0 ? kUnlimited : down);
      }
      if (shape == Shape::kPerNodeServerZero) cfg.upload_capacities[kServer] = 0;
      break;
  }
  return cfg;
}

/// The reference answer: the least feasible horizon by linear scan. A
/// client with any route finishes by n + k - 2 (a path of at most n - 1
/// hops moving one block per tick), so a scan to n + k that finds nothing
/// proves "never".
std::uint64_t scan_least_horizon(const CapacityShape& shape, const Topology& topo,
                                 NodeId v, BarterModel model) {
  for (Tick t = 0; t <= shape.n + shape.k; ++t) {
    if (horizon_feasible(shape, topo, t, v, model)) return t;
  }
  return kNeverFeasible;
}

Tick counting_bound(const CompletionCertificate& c) {
  return std::max({c.ramp_bound, c.last_block_bound, c.pipe_bound, c.seed_bound,
                   c.strict_ramp_bound});
}

/// What a grid exercised: sinks compared, sinks no horizon serves, and
/// certificates the flow component raised above the counting bound (by
/// the hi + 1 clamp, or by a finite horizon).
struct Coverage {
  std::uint32_t sinks = 0;
  std::uint32_t never = 0;
  std::uint32_t clamped = 0;
  std::uint32_t raised = 0;
};

/// Checks every client of one scenario under both models: quickest_horizon
/// against the scan, and the certificate (all clients as sinks) against the
/// bound the scan implies.
void check_scenario(const EngineConfig& cfg, const Topology& topo, const std::string& what,
                    Coverage& seen) {
  const CapacityShape shape = CapacityShape::from_config(cfg);
  for (const BarterModel model : {BarterModel::kCooperative, BarterModel::kStrictBarter}) {
    const std::string label =
        what + (model == BarterModel::kStrictBarter ? " strict" : " cooperative");
    std::vector<std::uint64_t> least(shape.n, 0);
    for (NodeId v = 1; v < shape.n; ++v) {
      least[v] = scan_least_horizon(shape, topo, v, model);
      ASSERT_EQ(quickest_horizon(shape, topo, v, model), least[v]) << label << " sink " << v;
      ++seen.sinks;
      if (least[v] == kNeverFeasible) ++seen.never;
    }

    CertifyOptions opts;
    opts.max_flow_sinks = shape.n;
    const CompletionCertificate cert = certify_completion_bound(cfg, topo, model, opts);
    const Tick counting = counting_bound(cert);
    if (counting >= opts.horizon_cap) {
      EXPECT_FALSE(cert.flow_evaluated) << label;
      EXPECT_EQ(cert.lower_bound, counting) << label;
      continue;
    }
    ASSERT_TRUE(cert.flow_evaluated) << label;
    const std::uint64_t hi = static_cast<std::uint64_t>(counting) + shape.k + shape.n;
    std::uint64_t flow = counting;
    for (NodeId v = 1; v < shape.n; ++v) {
      // Finite answers sit below hi, so the clamp only ever sees "never".
      flow = std::max(flow, least[v] == kNeverFeasible ? hi + 1 : least[v]);
    }
    EXPECT_EQ(cert.lower_bound, flow) << label;
    EXPECT_EQ(cert.flow_bound, flow > counting ? flow : 0) << label;
    if (flow == hi + 1) ++seen.clamped;
    if (flow > counting && flow <= hi) ++seen.raised;
  }
}

TEST(QuickestHorizon, MatchesTheTimeExpandedScanOverASeededGrid) {
  Rng rng(0x51c0ffee);
  Coverage seen;
  for (const std::uint32_t n : {5u, 8u, 13u, 18u}) {
    const std::vector<std::pair<std::string, Graph>> overlays = {
        {"ring", make_ring(n)},
        {"binary tree", make_kary_tree(n, 2)},
        {"ternary tree", make_kary_tree(n, 3)},
        {"regular", make_random_regular(n, n % 2 == 0 ? 3 : 4, rng)}};
    for (const auto& [name, graph] : overlays) {
      const Topology topo = Topology::from_graph(graph);
      for (const std::uint32_t k : {1u, 4u, 9u}) {
        for (const Shape shape : {Shape::kUnit, Shape::kDown2Server2, Shape::kUp2Unlimited,
                                  Shape::kPerNode, Shape::kPerNodeServerZero}) {
          check_scenario(shape_cfg(n, k, shape, rng), topo,
                         name + " n=" + std::to_string(n) + " k=" + std::to_string(k) +
                             " shape=" + std::to_string(static_cast<int>(shape)),
                         seen);
        }
      }
    }
  }
  // The grid is not vacuous: it compares thousands of sinks, reaches
  // unserved ones, and moves the certificate both ways the flow can.
  EXPECT_EQ(seen.sinks, 4800u);
  EXPECT_GT(seen.never, 0u);
  EXPECT_GT(seen.clamped, 0u);
  EXPECT_GT(seen.raised, 0u);
}

TEST(QuickestHorizon, UnreachableSinkCertifiesOnePastTheSearchCeiling) {
  // Chain 0-1-2-3 whose client 1 cannot upload: the counting components
  // stay finite (they see clients 2 and 3 at distance with upload
  // neighbours), but no flow ever reaches them, so the certificate is the
  // search ceiling hi = counting + k + n, plus one.
  constexpr std::uint32_t n = 4, k = 3;
  EngineConfig cfg;
  cfg.num_nodes = n;
  cfg.num_blocks = k;
  cfg.download_capacity = 1;
  cfg.upload_capacities = {1, 0, 1, 1};
  const Topology chain = Topology::from_graph(make_kary_tree(n, 1));
  const CapacityShape shape = CapacityShape::from_config(cfg);
  EXPECT_EQ(quickest_horizon(shape, chain, 3, BarterModel::kCooperative), kNeverFeasible);
  EXPECT_EQ(quickest_horizon(shape, chain, 1, BarterModel::kCooperative), k);

  const CompletionCertificate cert =
      certify_completion_bound(cfg, chain, BarterModel::kCooperative);
  const Tick counting = counting_bound(cert);
  ASSERT_TRUE(cert.flow_evaluated);
  const Tick hi = counting + k + n;
  EXPECT_FALSE(horizon_feasible(shape, chain, hi, cert.flow_client,
                                BarterModel::kCooperative));
  EXPECT_EQ(cert.flow_bound, hi + 1);
  EXPECT_EQ(cert.lower_bound, hi + 1);
  EXPECT_TRUE(cert.flow_client == 2 || cert.flow_client == 3);
}

}  // namespace
}  // namespace pob::flow
