// Closed-form pins for the deterministic scale schedulers (binomial
// pipeline, triangular barter, riffle pipeline), on the same code paths the
// million-node runs use:
//
//  - Theorem 1: the binomial pipeline finishes at exactly k - 1 + log2 n on
//    every power-of-two swarm, and the triangular-barter variant (identical
//    schedule under a live 3-cycle ledger) matches it tick for tick.
//  - Theorem 2 / 3: the riffle pipeline matches the core scheduler's
//    schedule length, which is the strict-barter optimum n + k - 2 whenever
//    the last cycle is full ((n - 1) | k).
//  - The per-tick transfer *sets* equal the core schedulers' (order within
//    a tick is irrelevant in the simultaneous-tick model).
//  - RunResults are bit-identical across --jobs, and the mirrored core run
//    (MirrorScheduler + the real mechanisms) reproduces them exactly.
//  - Configs the closed forms were not derived for are rejected with
//    distinct EngineViolation messages.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "pob/analysis/bounds.h"
#include "pob/check/oracle.h"
#include "pob/core/engine.h"
#include "pob/core/swarm_state.h"
#include "pob/mech/barter.h"
#include "pob/overlay/builders.h"
#include "pob/sched/binomial_pipeline.h"
#include "pob/sched/riffle_pipeline.h"
#include "pob/scale/engine.h"
#include "pob/scale/mirror.h"
#include "pob/scale/sched_riffle.h"

namespace pob::scale {
namespace {

EngineConfig det_cfg(std::uint32_t n, std::uint32_t k, std::uint32_t down) {
  EngineConfig cfg;
  cfg.num_nodes = n;
  cfg.num_blocks = k;
  cfg.download_capacity = down;
  return cfg;
}

RunResult run_det(const EngineConfig& cfg, SchedKind kind, unsigned jobs) {
  ScaleOptions opt;
  opt.scheduler = kind;
  if (kind == SchedKind::kTriangularBarter) opt.credit_limit = 1;
  auto topo = std::make_shared<Topology>(Topology::complete(cfg.num_nodes));
  Engine engine(cfg, std::move(topo), opt, 1);
  return engine.run(jobs);
}

// --- The (n, k) grid: every power of two up to 4096 crossed with block
// counts that straddle the 64-bit possession-word boundary. ---

class ScaleClosedForm
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {};

TEST_P(ScaleClosedForm, BinomialAchievesTheoremOneBitIdenticallyAcrossJobs) {
  const auto [n, k] = GetParam();
  const EngineConfig cfg = det_cfg(n, k, kUnlimited);
  const RunResult r = run_det(cfg, SchedKind::kBinomialPipeline, 1);
  const Tick want = cooperative_lower_bound(n, k);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.completion_tick, want);
  // Every client downloads every block exactly once.
  EXPECT_EQ(r.total_transfers, static_cast<Count>(n - 1) * k);
  EXPECT_EQ(check::run_result_digest(run_det(cfg, SchedKind::kBinomialPipeline, 4)),
            check::run_result_digest(r));
}

TEST_P(ScaleClosedForm, TriangularBarterRunsTheSameScheduleUnderTheLedger) {
  const auto [n, k] = GetParam();
  const EngineConfig cfg = det_cfg(n, k, kUnlimited);
  const RunResult r = run_det(cfg, SchedKind::kTriangularBarter, 1);
  ASSERT_TRUE(r.completed);
  // §3.3: the price of triangular barter is 1 — the cooperative optimum
  // survives the 3-cycle constraint unchanged.
  EXPECT_EQ(r.completion_tick, cooperative_lower_bound(n, k));
  EXPECT_EQ(check::run_result_digest(r),
            check::run_result_digest(run_det(cfg, SchedKind::kBinomialPipeline, 1)));
}

TEST_P(ScaleClosedForm, RiffleMatchesTheCoreScheduleLength) {
  const auto [n, k] = GetParam();
  const EngineConfig cfg = det_cfg(n, k, 2);
  const RunResult r = run_det(cfg, SchedKind::kRifflePipeline, 1);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.total_transfers, static_cast<Count>(n - 1) * k);
  // Strict barter can never beat Theorem 2's n + k - 2.
  EXPECT_GE(r.completion_tick, strict_barter_lower_bound_equal_bw(n, k));
  if (n <= 512) {
    // The core scheduler materializes O(n k) meetings — only affordable at
    // small n, but the schedule arithmetic being compared is the same one
    // the million-node runs execute.
    EXPECT_EQ(r.completion_tick,
              RifflePipelineScheduler(n, k, 1, 2).schedule_length());
  }
  if (k % (n - 1) == 0) {
    // Theorem 3: full cycles meet Theorem 2's strict-barter bound exactly.
    EXPECT_EQ(r.completion_tick,
              RifflePipelineScheduler::ideal_completion_time(n, k));
    EXPECT_EQ(r.completion_tick, strict_barter_lower_bound_equal_bw(n, k));
  }
  EXPECT_EQ(check::run_result_digest(run_det(cfg, SchedKind::kRifflePipeline, 4)),
            check::run_result_digest(r));
}

INSTANTIATE_TEST_SUITE_P(
    PowersOfTwo, ScaleClosedForm,
    ::testing::Combine(::testing::Values(2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u,
                                         512u, 1024u, 2048u, 4096u),
                       ::testing::Values(1u, 63u, 64u, 65u, 512u)),
    [](const auto& param_info) {
      return "n" + std::to_string(std::get<0>(param_info.param)) + "k" +
             std::to_string(std::get<1>(param_info.param));
    });

// --- Per-tick set equality against the core schedulers. ---

using TickSet = std::vector<Transfer>;

std::vector<TickSet> sorted_trace(const RunResult& r) {
  std::vector<TickSet> out(r.trace.begin(), r.trace.end());
  const auto key = [](const Transfer& t) {
    return std::make_tuple(t.from, t.to, t.block);
  };
  for (TickSet& tick : out) {
    std::sort(tick.begin(), tick.end(),
              [&](const Transfer& a, const Transfer& b) { return key(a) < key(b); });
  }
  return out;
}

TEST(ScaleClosedFormTrace, BinomialPerTickSetsEqualTheCoreScheduler) {
  for (const auto& [n, k] : {std::pair{16u, 21u}, {256u, 65u}, {1024u, 1u}}) {
    EngineConfig cfg = det_cfg(n, k, kUnlimited);
    cfg.record_trace = true;
    const RunResult scale_r = run_det(cfg, SchedKind::kBinomialPipeline, 1);
    BinomialPipelineScheduler core_sched(n, k);
    const RunResult core_r = run(cfg, core_sched);
    ASSERT_TRUE(scale_r.completed && core_r.completed);
    ASSERT_EQ(scale_r.completion_tick, core_r.completion_tick) << "n=" << n;
    EXPECT_EQ(sorted_trace(scale_r), sorted_trace(core_r)) << "n=" << n << " k=" << k;
  }
}

TEST(ScaleClosedFormTrace, RifflePerTickSetsEqualTheCoreScheduler) {
  // Full cycles (k = 3(n-1)), a single full cycle (k = n-1), a partial tail
  // (15 ∤ 21), and the subgroup recursion (k < n - 1).
  for (const auto& [n, k] : {std::pair{8u, 21u}, {64u, 63u}, {16u, 21u}, {128u, 40u}}) {
    EngineConfig cfg = det_cfg(n, k, 2);
    cfg.record_trace = true;
    const RunResult scale_r = run_det(cfg, SchedKind::kRifflePipeline, 1);
    RifflePipelineScheduler core_sched(n, k, 1, 2);
    const RunResult core_r = run(cfg, core_sched);
    ASSERT_TRUE(scale_r.completed && core_r.completed);
    ASSERT_EQ(scale_r.completion_tick, core_r.completion_tick) << "n=" << n;
    EXPECT_EQ(sorted_trace(scale_r), sorted_trace(core_r)) << "n=" << n << " k=" << k;
  }
}

// --- Emission order: the riffle emits each tick ascending by sender with no
// sort, so the raw trace must already be the core tick sorted by sender. ---

class ScaleRiffleOrder : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ScaleRiffleOrder, RawTraceAscendsBySenderAndIsTheSortedCoreTick) {
  const std::uint32_t n = GetParam();
  // Full cycles (k >= n - 1), remainders and the subgroup recursion.
  for (const std::uint32_t k :
       {1u, 2u, 3u, 7u, 21u, 63u, 64u, 65u, 127u, 300u, 1000u, 3000u}) {
    EngineConfig cfg = det_cfg(n, k, 2);
    cfg.record_trace = true;
    // Core's legalizer keeps hash-map entries per transfer (18 s and 1.6 GB
    // at 4096 x 3000), so it is the reference up to n * k = 2^21; above that
    // the raw order, transfer count and job invariance are checked.
    std::unique_ptr<RifflePipelineScheduler> core;
    if (std::uint64_t{n} * k <= (std::uint64_t{1} << 21)) {
      core = std::make_unique<RifflePipelineScheduler>(n, k, 1, 2);
    }
    const SwarmState state(n, k);
    std::vector<Transfer> want;
    std::uint64_t digest_j1 = 0;
    for (const unsigned jobs : {1u, 4u}) {
      const RunResult r = run_det(cfg, SchedKind::kRifflePipeline, jobs);
      ASSERT_TRUE(r.completed);
      ASSERT_EQ(r.total_transfers, static_cast<Count>(n - 1) * k);
      // The digest covers the raw trace, so jobs 4 must replay jobs 1 exactly.
      if (jobs == 1) digest_j1 = check::run_result_digest(r);
      ASSERT_EQ(check::run_result_digest(r), digest_j1) << "n=" << n << " k=" << k;
      if (core) {
        ASSERT_EQ(r.trace.size(), core->schedule_length());
      }
      for (std::size_t t = 0; t < r.trace.size(); ++t) {
        const TickSet& got = r.trace[t];
        const auto where = "n=" + std::to_string(n) + " k=" + std::to_string(k) +
                           " jobs=" + std::to_string(jobs) +
                           " tick=" + std::to_string(t + 1);
        ASSERT_EQ(std::adjacent_find(got.begin(), got.end(),
                                     [](const Transfer& a, const Transfer& b) {
                                       return a.from >= b.from;
                                     }),
                  got.end())
            << where;
        if (!core) continue;
        want.clear();
        core->plan_tick(static_cast<Tick>(t + 1), state, want);
        std::sort(want.begin(), want.end(),
                  [](const Transfer& a, const Transfer& b) { return a.from < b.from; });
        ASSERT_EQ(got, want) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, ScaleRiffleOrder,
                         ::testing::Values(2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u,
                                           512u, 1024u, 2048u, 4096u),
                         [](const auto& param_info) {
                           return "n" + std::to_string(param_info.param);
                         });

// --- The riffle's generate() contract holds in Release builds too. ---

std::string logic_error_for(const std::function<void()>& call) {
  try {
    call();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

TEST(ScaleRiffleContract, GenerateRejectsAMissingBeginTickAndAPartialRange) {
  ScaleOptions opt;
  opt.scheduler = SchedKind::kRifflePipeline;
  const Engine engine(det_cfg(16, 21, 2),
                      std::make_shared<Topology>(Topology::complete(16)), opt, 1);
  RiffleScheduler sched(engine);
  std::vector<Transfer> out;
  EXPECT_EQ(logic_error_for([&] { sched.generate(1, 0, 0, 16, out); }),
            "scale riffle: generate(tick 1) without begin_tick of that tick");
  ASSERT_TRUE(sched.begin_tick(1));
  EXPECT_EQ(logic_error_for([&] { sched.generate(2, 0, 0, 16, out); }),
            "scale riffle: generate(tick 2) without begin_tick of that tick");
  EXPECT_EQ(logic_error_for([&] { sched.generate(1, 0, 0, 8, out); }),
            "scale riffle: generate over senders [0, 8); a riffle tick is one "
            "slice over [0, 16)");
  EXPECT_EQ(logic_error_for([&] { sched.generate(1, 1, 8, 16, out); }),
            "scale riffle: generate over senders [8, 16); a riffle tick is one "
            "slice over [0, 16)");
  EXPECT_TRUE(out.empty());
  sched.generate(1, 0, 0, 16, out);
  EXPECT_EQ(out, (std::vector<Transfer>{{kServer, 1, 0}}));
}

TEST(ScaleRiffleContract, NoTickAfterTheFirstGrowsABuffer) {
  // Full cycles whose tails overlap the remainder subgroups (the merging
  // ticks), the pure subgroup recursion, and barter-det's shape scaled down.
  for (const auto& [n, k] :
       {std::pair{16u, 21u}, {64u, 65u}, {128u, 300u}, {4096u, 256u}, {1024u, 3000u}}) {
    ScaleOptions opt;
    opt.scheduler = SchedKind::kRifflePipeline;
    const Engine engine(det_cfg(n, k, 2),
                        std::make_shared<Topology>(Topology::complete(n)), opt, 1);
    RiffleScheduler sched(engine);
    std::vector<Transfer> out;
    std::size_t capacity = 0;
    std::uint64_t scratch = 0;
    for (Tick t = 1; t <= sched.last_tick(); ++t) {
      out.clear();
      ASSERT_TRUE(sched.begin_tick(t));
      sched.generate(t, 0, 0, n, out);
      if (t == 1) {
        capacity = out.capacity();
        scratch = sched.memory_bytes();
      }
      const auto where = "n=" + std::to_string(n) + " k=" + std::to_string(k) +
                         " tick=" + std::to_string(t);
      ASSERT_EQ(out.capacity(), capacity) << where;
      ASSERT_EQ(sched.memory_bytes(), scratch) << where;
    }
  }
}

// --- Mirror equivalence: the scale stream, replayed through core::Engine
// with the real mechanism attached, reproduces the identical RunResult. ---

TEST(ScaleClosedFormMirror, DeterministicStreamsSurviveTheCoreMechanisms) {
  for (const auto& [n, k] : {std::pair{8u, 7u}, {64u, 65u}, {256u, 12u}}) {
    {
      ScaleOptions opt;
      opt.scheduler = SchedKind::kRifflePipeline;
      auto topo = std::make_shared<Topology>(Topology::complete(n));
      const EngineConfig cfg = det_cfg(n, k, 2);
      Engine direct(cfg, topo, opt, 1);
      const RunResult direct_r = direct.run(1);
      MirrorScheduler mirror(std::make_unique<Engine>(cfg, topo, opt, 1));
      StrictBarter strict;
      EXPECT_EQ(check::run_result_digest(run(cfg, mirror, &strict)),
                check::run_result_digest(direct_r))
          << "riffle n=" << n << " k=" << k;
    }
    {
      ScaleOptions opt;
      opt.scheduler = SchedKind::kTriangularBarter;
      opt.credit_limit = 1;
      auto topo = std::make_shared<Topology>(Topology::complete(n));
      const EngineConfig cfg = det_cfg(n, k, kUnlimited);
      Engine direct(cfg, topo, opt, 1);
      const RunResult direct_r = direct.run(1);
      MirrorScheduler mirror(std::make_unique<Engine>(cfg, topo, opt, 1));
      CyclicBarter tri(3, 1);
      EXPECT_EQ(check::run_result_digest(run(cfg, mirror, &tri)),
                check::run_result_digest(direct_r))
          << "triangular n=" << n << " k=" << k;
    }
  }
}

// --- Hypercube overlays: the binomial family runs on the materialized
// hypercube too (the complete graph merely contains it). ---

TEST(ScaleClosedFormOverlay, BinomialFamilyAcceptsTheHypercubeOverlay) {
  constexpr std::uint32_t n = 64, k = 19;
  auto topo = std::make_shared<Topology>(
      Topology::from_graph(make_hypercube_overlay(n)));
  for (const SchedKind kind :
       {SchedKind::kBinomialPipeline, SchedKind::kTriangularBarter}) {
    ScaleOptions opt;
    opt.scheduler = kind;
    if (kind == SchedKind::kTriangularBarter) opt.credit_limit = 1;
    Engine engine(det_cfg(n, k, kUnlimited), topo, opt, 1);
    const RunResult r = engine.run(1);
    ASSERT_TRUE(r.completed) << sched_kind_name(kind);
    EXPECT_EQ(r.completion_tick, cooperative_lower_bound(n, k));
  }
}

// --- Guard rails: distinct EngineViolation messages per rejected rule. ---

std::string violation_for(const EngineConfig& cfg,
                          std::shared_ptr<const Topology> topo,
                          const ScaleOptions& opt) {
  try {
    Engine engine(cfg, std::move(topo), opt, 1);
  } catch (const EngineViolation& v) {
    return v.what();
  }
  return "";
}

TEST(ScaleClosedFormGuards, EachIllegalConfigGetsItsOwnMessage) {
  ScaleOptions binomial;
  binomial.scheduler = SchedKind::kBinomialPipeline;
  ScaleOptions riffle;
  riffle.scheduler = SchedKind::kRifflePipeline;
  ScaleOptions triangular;
  triangular.scheduler = SchedKind::kTriangularBarter;
  triangular.credit_limit = 1;
  const auto complete = [](std::uint32_t n) {
    return std::make_shared<Topology>(Topology::complete(n));
  };

  EXPECT_EQ(violation_for(det_cfg(6, 4, kUnlimited), complete(6), binomial),
            "scale: binomial-pipeline requires power-of-two num_nodes (got 6)");
  {
    EngineConfig cfg = det_cfg(8, 4, kUnlimited);
    cfg.download_capacities.assign(8, 2);
    EXPECT_EQ(violation_for(cfg, complete(8), binomial),
              "scale: binomial-pipeline requires uniform capacities (per-node "
              "capacity vectors are not supported)");
  }
  {
    EngineConfig cfg = det_cfg(8, 4, kUnlimited);
    cfg.upload_capacity = 2;
    cfg.download_capacity = 2;
    EXPECT_EQ(violation_for(cfg, complete(8), binomial),
              "scale: binomial-pipeline requires unit upload capacity "
              "(upload_capacity 1, server_upload_capacity <= 1)");
  }
  {
    EngineConfig cfg = det_cfg(8, 4, kUnlimited);
    cfg.departures = {{2, 3}};
    cfg.drop_transfers_involving_inactive = true;
    EXPECT_EQ(violation_for(cfg, complete(8), riffle),
              "scale: riffle-pipeline does not support churn (departures / "
              "depart_on_complete)");
  }
  {
    auto hypercube = std::make_shared<Topology>(
        Topology::from_graph(make_hypercube_overlay(8)));
    EXPECT_EQ(violation_for(det_cfg(8, 4, 2), hypercube, riffle),
              "scale: riffle-pipeline requires the complete topology");
  }
  EXPECT_EQ(violation_for(det_cfg(8, 4, 1), complete(8), riffle),
            "scale: riffle-pipeline requires download capacity >= 2 (a server "
            "hand-off may land on a bartering client)");
  {
    ScaleOptions bad = riffle;
    bad.credit_limit = 1;
    EXPECT_EQ(violation_for(det_cfg(8, 4, 2), complete(8), bad),
              "scale: riffle-pipeline is strict barter; credit_limit must be 0");
  }
  {
    // A ring is missing hypercube edges; the message names the first one.
    auto ring = std::make_shared<Topology>(Topology::from_graph(make_ring(8)));
    EXPECT_EQ(violation_for(det_cfg(8, 4, kUnlimited), ring, binomial),
              "scale: binomial-pipeline requires the hypercube overlay: "
              "missing edge 0 <-> 2");
  }
  {
    ScaleOptions bad = binomial;
    bad.credit_limit = 1;
    EXPECT_EQ(violation_for(det_cfg(8, 4, kUnlimited), complete(8), bad),
              "scale: binomial-pipeline is cooperative; credit_limit must be 0");
  }
  {
    ScaleOptions bad = triangular;
    bad.credit_limit = 0;
    EXPECT_EQ(violation_for(det_cfg(8, 4, kUnlimited), complete(8), bad),
              "scale: triangular-barter requires credit_limit >= 1");
  }
  // And the legal baseline sails through.
  EXPECT_EQ(violation_for(det_cfg(8, 4, kUnlimited), complete(8), binomial), "");
}

}  // namespace
}  // namespace pob::scale
