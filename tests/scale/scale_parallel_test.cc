// Determinism pins for the fully parallel tick (receiver-sharded merge +
// sharded apply): a 200,000-node swarm that exercises every cross-node
// constraint the merge and commit phases enforce at once — config churn,
// depart-on-complete, the §3.2 credit ledger under rarest-first selection,
// and heterogeneous download caps — must produce bit-identical RunResults
// at jobs = 1, 4 and hardware_concurrency. The smaller companion case keeps
// record_trace on, so the full per-tick transfer stream (not just the
// aggregate bookkeeping) is digested too.
//
// The digests themselves are pinned to absolute constants (captured before
// the scheduler-interface refactor for the randomized family, at its
// introduction for the deterministic mechanisms), so a silent behavioral
// drift fails even if it drifts identically at every job count.

#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "pob/check/oracle.h"
#include "pob/overlay/builders.h"
#include "pob/scale/engine.h"

namespace pob::scale {
namespace {

// Captured from the pre-refactor engine (randomized planner inlined in
// generate); the ScaleScheduler extraction must not move a single bit.
constexpr std::uint64_t kCreditRarest200kDigest = 0x5157ee3c583eea14ULL;
constexpr std::uint64_t kTrace2500Digest = 0xf28c333e5835ab16ULL;
constexpr std::uint64_t kPureRandomized200kDigest = 0x72fa6ecfba949db6ULL;

// The deterministic mechanisms at 2^18 nodes, k = 64 (the power of two
// nearest the 200k randomized pins). Binomial and triangular share a digest
// by design: §3.3's result is that the triangular ledger admits the
// binomial schedule unchanged.
constexpr std::uint64_t kBinomial262kDigest = 0xce992a8dbb1d2100ULL;
constexpr std::uint64_t kTriangular262kDigest = kBinomial262kDigest;
constexpr std::uint64_t kRiffle262kDigest = 0x4842fc682201766dULL;

TEST(ScaleParallel, TwoHundredThousandNodesEveryPhaseSharded) {
  constexpr std::uint32_t kNodes = 200000;
  constexpr std::uint64_t kSeed = 29;

  EngineConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.num_blocks = 32;
  cfg.server_upload_capacity = 8;
  cfg.depart_on_complete = true;  // run()'s leaving queue, sharded by receiver
  cfg.departures = {{4, 777}, {11, 1234}, {25, 99999}};
  // Fixed horizon: with depart-on-complete on a sparse overlay, stragglers
  // whose whole neighborhood departed can never finish, and the digest at a
  // fixed tick is exactly as discriminating as one at completion.
  cfg.max_ticks = 64;
  // Heterogeneous download caps: every 7th client can take 3 blocks/tick,
  // the rest 2 — receiver shards must enforce exactly their own slice.
  cfg.download_capacities.assign(kNodes, 2);
  for (NodeId c = 1; c < kNodes; c += 7) cfg.download_capacities[c] = 3;

  ScaleOptions opt;
  opt.policy = BlockPolicy::kRarestFirst;
  opt.credit_limit = 3;

  const auto digest_at = [&](unsigned jobs) {
    Rng rng(kSeed);
    auto topo = std::make_shared<Topology>(
        Topology::from_graph(make_random_regular(kNodes, 16, rng)));
    Engine engine(cfg, std::move(topo), opt, kSeed);
    const RunResult r = engine.run(jobs);
    EXPECT_EQ(r.ticks_executed, 64u);
    EXPECT_GT(r.departed, 3u);  // the 3 config departures + depart-on-complete
    return check::run_result_digest(r);
  };

  const std::uint64_t serial = digest_at(1);
  EXPECT_EQ(serial, kCreditRarest200kDigest);
  EXPECT_EQ(digest_at(4), serial);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(digest_at(hw), serial);
}

TEST(ScaleParallel, PureRandomizedTwoHundredThousandNodesPinned) {
  constexpr std::uint32_t kNodes = 200000;
  EngineConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.num_blocks = 64;
  cfg.server_upload_capacity = 4;
  cfg.max_ticks = 48;

  ScaleOptions opt;  // defaults: cooperative randomized, no credit ledger

  const auto digest_at = [&](unsigned jobs) {
    Rng rng(11);
    auto topo = std::make_shared<Topology>(
        Topology::from_graph(make_random_regular(kNodes, 8, rng)));
    Engine engine(cfg, std::move(topo), opt, 11);
    return check::run_result_digest(engine.run(jobs));
  };

  const std::uint64_t serial = digest_at(1);
  EXPECT_EQ(serial, kPureRandomized200kDigest);
  EXPECT_EQ(digest_at(4), serial);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(digest_at(hw), serial);
}

TEST(ScaleParallel, DeterministicSchedulersQuarterMillionNodesPinned) {
  constexpr std::uint32_t kNodes = 262144;  // 2^18
  constexpr std::uint32_t kBlocks = 64;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  const auto digest_at = [&](SchedKind kind, unsigned jobs) {
    EngineConfig cfg;
    cfg.num_nodes = kNodes;
    cfg.num_blocks = kBlocks;
    if (kind == SchedKind::kRifflePipeline) cfg.download_capacity = 2;
    ScaleOptions opt;
    opt.scheduler = kind;
    if (kind == SchedKind::kTriangularBarter) opt.credit_limit = 1;
    auto topo = std::make_shared<Topology>(Topology::complete(kNodes));
    Engine engine(cfg, std::move(topo), opt, 7);
    const RunResult r = engine.run(jobs);
    EXPECT_TRUE(r.completed);
    // Every client downloads each block exactly once, whatever the mechanism.
    EXPECT_EQ(r.total_transfers, static_cast<Count>(kNodes - 1) * kBlocks);
    return check::run_result_digest(r);
  };

  for (const auto& [kind, pinned] :
       {std::pair{SchedKind::kBinomialPipeline, kBinomial262kDigest},
        {SchedKind::kTriangularBarter, kTriangular262kDigest},
        {SchedKind::kRifflePipeline, kRiffle262kDigest}}) {
    const std::uint64_t serial = digest_at(kind, 1);
    EXPECT_EQ(serial, pinned) << sched_kind_name(kind);
    EXPECT_EQ(digest_at(kind, 4), serial) << sched_kind_name(kind);
    EXPECT_EQ(digest_at(kind, hw), serial) << sched_kind_name(kind);
  }
}

TEST(ScaleParallel, TraceDigestStableAcrossJobsWithChurnAndCredit) {
  EngineConfig cfg;
  cfg.num_nodes = 2500;
  cfg.num_blocks = 65;  // tail word in play
  cfg.record_trace = true;
  cfg.depart_on_complete = true;
  cfg.departures = {{2, 17}, {6, 400}};
  cfg.download_capacities.assign(2500, 2);
  cfg.download_capacities[42] = 4;

  ScaleOptions opt;
  opt.policy = BlockPolicy::kRarestFirst;
  opt.credit_limit = 2;
  opt.shard_nodes = 97;  // many intent shards, boundaries mid-swarm

  const auto digest_at = [&](unsigned jobs) {
    Rng rng(3);
    auto topo = std::make_shared<Topology>(
        Topology::from_graph(make_random_regular(2500, 12, rng)));
    Engine engine(cfg, std::move(topo), opt, 3);
    return check::run_result_digest(engine.run(jobs));
  };

  const std::uint64_t serial = digest_at(1);
  EXPECT_EQ(serial, kTrace2500Digest);
  EXPECT_EQ(digest_at(2), serial);
  EXPECT_EQ(digest_at(4), serial);
  EXPECT_EQ(digest_at(16), serial);
}

}  // namespace
}  // namespace pob::scale
