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

#include <functional>
#include <memory>
#include <thread>

#include "pob/check/oracle.h"
#include "pob/overlay/builders.h"
#include "pob/scale/engine.h"
#include "pob/scale/stream/stream_engine.h"

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

// The sender-shard width decides only how the generate phase is cut into
// pool tasks: intents are a pure function of (seed, tick, node), admission
// is per receiver, and a materialized tick is one slice at any width. Four
// swarms, one per generate path — randomized cooperative, credit-limited
// (credit 1, Rarest-First), a Poisson stream with a playback window, and
// the riffle's materialized ticks — must each print one digest at the
// default width, at the old 4096 and at 97 (boundaries mid-swarm), on 1 and
// 4 workers. The digests were captured with the 4096-node default, before
// the width changed, so a drift shared by every width fails too.
TEST(ScaleParallel, ShardWidthDoesNotMoveTheStream) {
  constexpr std::uint32_t kNodes = 10000;
  Rng topo_rng(5);
  const auto regular = std::make_shared<Topology>(
      Topology::from_graph(make_random_regular(kNodes, 8, topo_rng)));
  const auto scale_run = [&](EngineConfig cfg, ScaleOptions opt,
                             std::shared_ptr<const Topology> topo, std::uint32_t width,
                             unsigned jobs) {
    opt.shard_nodes = width;
    Engine engine(cfg, std::move(topo), opt, 11);
    return check::run_result_digest(engine.run(jobs));
  };

  EngineConfig coop;
  coop.num_nodes = kNodes;
  coop.num_blocks = 64;
  coop.server_upload_capacity = 4;
  coop.record_trace = true;  // digest every tick's stream, not just totals

  EngineConfig credit = coop;
  credit.max_ticks = 150;
  ScaleOptions credit_opt;
  credit_opt.credit_limit = 1;
  credit_opt.policy = BlockPolicy::kRarestFirst;

  // 2^12 nodes, k = 2400: a third of the riffle's ticks carry more than
  // the sparse-tick threshold's 2048 intents (up to 2401), so they take
  // the sharded merge from a single slice.
  EngineConfig riffle;
  riffle.num_nodes = 4096;
  riffle.num_blocks = 2400;
  riffle.download_capacity = 2;
  ScaleOptions riffle_opt;
  riffle_opt.scheduler = SchedKind::kRifflePipeline;

  struct Swarm {
    const char* name;
    std::uint64_t pinned;
    std::function<std::uint64_t(std::uint32_t, unsigned)> digest;
  };
  const Swarm swarms[] = {
      {"randomized", 0x5006af50bbd0b39aULL,
       [&](std::uint32_t w, unsigned j) { return scale_run(coop, {}, regular, w, j); }},
      {"credit", 0xd6a25f31939c1267ULL,
       [&](std::uint32_t w, unsigned j) {
         return scale_run(credit, credit_opt, regular, w, j);
       }},
      {"stream", 0x4638f802133ef707ULL,
       [&](std::uint32_t w, unsigned j) {
         stream::StreamSpec spec;
         spec.config.num_nodes = kNodes;
         spec.config.num_blocks = 64;
         spec.config.server_upload_capacity = 8;
         spec.topology = regular;
         spec.options.shard_nodes = w;
         spec.seed = 13;
         spec.workload.arrivals = stream::ArrivalPattern::kPoisson;
         spec.workload.mean_gap16 = 2;
         spec.demand.window = 8;
         spec.demand.startup_blocks = 4;
         spec.demand.deadlines = true;
         stream::StreamEngine engine(std::move(spec));
         return check::run_result_digest(engine.run(j));
       }},
      {"riffle", 0x88ffd52b0b0187ebULL,
       [&](std::uint32_t w, unsigned j) {
         return scale_run(riffle, riffle_opt, std::make_shared<Topology>(Topology::complete(4096)),
                          w, j);
       }},
  };
  for (const Swarm& swarm : swarms) {
    for (const std::uint32_t width : {ScaleOptions{}.shard_nodes, 4096u, 97u}) {
      for (const unsigned jobs : {1u, 4u}) {
        EXPECT_EQ(swarm.digest(width, jobs), swarm.pinned)
            << swarm.name << " at width " << width << ", jobs " << jobs;
      }
    }
  }
}

}  // namespace
}  // namespace pob::scale
