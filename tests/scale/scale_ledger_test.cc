// The credit ledger the sharded apply commits must be exactly the ledger of
// the accepted stream. Under kTriangularBarter the schedule never reads the
// ledger, so a dropped or mis-sharded record would leave every digest pin
// unchanged; these tests replay each tick's accepted transfers into a
// std::map and require the engine's credit_net to match it for every pair,
// in both orientations, and the engine to hold exactly the replay's
// nonzero pairs (credit_pairs) — at jobs 1 and 4.
//
// Each swarm spans several receiver shards, and both halves of the sharded
// commit are exercised: transfers whose receiver is the lower id and
// transfers whose sender is. Early ticks of the binomial schedule carry few
// intents and commit serially (the sparse-tick path), later ones take the
// sharded path, so both commit paths are under the check. The sharded
// apply skips both halves of a reciprocal exchange whose two nodes took no
// other transfer that tick, and records every other pair; the audit counts
// both kinds of exchange on sharded ticks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <utility>

#include "pob/exp/parallel.h"
#include "pob/overlay/builders.h"
#include "pob/scale/engine.h"

namespace pob::scale {
namespace {

struct LedgerAudit {
  std::uint64_t ticks = 0;
  std::uint64_t pairs = 0;           // pairs that ever traded
  std::uint64_t nonzero_pairs = 0;   // pairs with a nonzero net at the end
  std::uint64_t lower_sender = 0;    // client transfers with from < to
  std::uint64_t lower_receiver = 0;  // client transfers with to < from
  // Client pairs that traded both ways in one sharded tick: those whose two
  // nodes received nothing else that tick (netted before the ledger), and
  // those where a side also received from a third node or the server.
  std::uint64_t netted_exchanges = 0;
  std::uint64_t crowded_exchanges = 0;
};

/// More accepted transfers than this means more intents than the engine's
/// sparse-tick threshold: the tick was merged and committed sharded.
constexpr std::size_t kShardedTickTransfers = 2048;

/// Counts the reciprocal client exchanges of one sharded tick.
void count_exchanges(std::span<const Transfer> accepted, LedgerAudit& audit) {
  if (accepted.size() <= kShardedTickTransfers) return;
  std::map<NodeId, std::uint32_t> received;
  std::set<std::pair<NodeId, NodeId>> sent;
  for (const Transfer& tr : accepted) {
    ++received[tr.to];
    if (tr.from != kServer) sent.insert({tr.from, tr.to});
  }
  for (const auto& [from, to] : sent) {
    if (from > to || !sent.contains({to, from})) continue;
    ++(received[from] == 1 && received[to] == 1 ? audit.netted_exchanges
                                                : audit.crowded_exchanges);
  }
}

/// An independent replay of the accepted stream: net lo -> hi per pair
/// {lo, hi} that ever traded, kept when it returns to 0.
class ReplayLedger {
 public:
  void record(NodeId from, NodeId to) {
    nets_[{std::min(from, to), std::max(from, to)}] += from < to ? 1 : -1;
  }
  std::int64_t net(NodeId from, NodeId to) const {
    const auto it = nets_.find({std::min(from, to), std::max(from, to)});
    if (it == nets_.end()) return 0;
    return from < to ? it->second : -it->second;
  }
  const std::map<std::pair<NodeId, NodeId>, std::int64_t>& nets() const { return nets_; }

 private:
  std::map<std::pair<NodeId, NodeId>, std::int64_t> nets_;
};

/// Requires the engine's ledger to equal `replay` on pair {a, b}, both ways.
::testing::AssertionResult pair_matches(const Engine& engine,
                                        const ReplayLedger& replay, NodeId a,
                                        NodeId b, std::uint64_t tick) {
  for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    if (engine.credit_net(from, to) != replay.net(from, to)) {
      return ::testing::AssertionFailure()
             << "credit_net(" << from << ", " << to << ") = "
             << engine.credit_net(from, to) << ", replay " << replay.net(from, to)
             << " after tick " << tick;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Steps `engine` on a pool of `jobs` workers until every node completes or
/// `max_ticks` pass, replaying each accepted transfer into a reference
/// ledger. After every tick the pairs that tick touched are compared; at
/// the end, every pair seen in the run, and the engine must hold exactly
/// the replay's nonzero pairs.
LedgerAudit audit_ledger(Engine& engine, unsigned jobs, Tick max_ticks) {
  ThreadPool pool(jobs);
  ReplayLedger replay;
  LedgerAudit audit;
  while (!engine.all_complete() && audit.ticks < max_ticks) {
    ++audit.ticks;
    const std::span<const Transfer> accepted = engine.step(&pool);
    count_exchanges(accepted, audit);
    for (const Transfer& tr : accepted) {
      if (tr.from == kServer) continue;  // the server is exempt
      replay.record(tr.from, tr.to);
      ++(tr.from < tr.to ? audit.lower_sender : audit.lower_receiver);
    }
    for (const Transfer& tr : accepted) {
      // Server uploads never touch the ledger; the replay holds 0 for them.
      EXPECT_TRUE(pair_matches(engine, replay, tr.from, tr.to, audit.ticks));
      if (::testing::Test::HasFailure()) return audit;
    }
  }
  for (const auto& [pair, net] : replay.nets()) {
    EXPECT_TRUE(pair_matches(engine, replay, pair.first, pair.second, audit.ticks));
    if (::testing::Test::HasFailure()) return audit;
    audit.nonzero_pairs += net != 0;
  }
  audit.pairs = replay.nets().size();
  EXPECT_EQ(engine.credit_pairs(), audit.nonzero_pairs) << "jobs=" << jobs;
  return audit;
}

TEST(ScaleLedger, TriangularLedgerMatchesReplayedStream) {
  // 4096 nodes = 4 receiver shards; the hypercube partners u ^ 2^j for
  // j >= 10 cross shard boundaries.
  EngineConfig cfg;
  cfg.num_nodes = 4096;
  cfg.num_blocks = 24;
  ScaleOptions opt;
  opt.scheduler = SchedKind::kTriangularBarter;
  opt.credit_limit = 1;
  const auto topo = std::make_shared<Topology>(Topology::complete(cfg.num_nodes));

  for (const unsigned jobs : {1u, 4u}) {
    Engine engine(cfg, topo, opt, 5);
    const LedgerAudit audit = audit_ledger(engine, jobs, 1000);
    ASSERT_FALSE(HasFailure()) << "jobs=" << jobs;
    EXPECT_TRUE(engine.all_complete()) << "jobs=" << jobs;
    EXPECT_EQ(audit.ticks, 24u - 1 + 12) << "jobs=" << jobs;  // Theorem 1
    EXPECT_GT(audit.pairs, 4096u) << "jobs=" << jobs;
    // Most hypercube exchanges settle within the tick: the ledger keeps far
    // fewer pairs than ever traded.
    EXPECT_GT(audit.nonzero_pairs, 0u) << "jobs=" << jobs;
    EXPECT_LT(2 * audit.nonzero_pairs, audit.pairs) << "jobs=" << jobs;
    EXPECT_GT(audit.lower_sender, 0u) << "jobs=" << jobs;
    EXPECT_GT(audit.lower_receiver, 0u) << "jobs=" << jobs;
  }
}

TEST(ScaleLedger, RandomizedCreditLedgerMatchesReplayedStream) {
  // 5000 nodes = 3 receiver shards on a random 8-regular overlay; credit 1
  // makes the schedule itself read the ledger every probe.
  EngineConfig cfg;
  cfg.num_nodes = 5000;
  cfg.num_blocks = 48;
  ScaleOptions opt;
  opt.credit_limit = 1;
  Rng rng(17);
  const auto topo = std::make_shared<Topology>(
      Topology::from_graph(make_random_regular(cfg.num_nodes, 8, rng)));

  for (const unsigned jobs : {1u, 4u}) {
    Engine engine(cfg, topo, opt, 17);
    const LedgerAudit audit = audit_ledger(engine, jobs, 300);
    ASSERT_FALSE(HasFailure()) << "jobs=" << jobs;
    EXPECT_GT(audit.pairs, 5000u) << "jobs=" << jobs;
    EXPECT_GT(audit.nonzero_pairs, 0u) << "jobs=" << jobs;
    EXPECT_GT(audit.lower_sender, 0u) << "jobs=" << jobs;
    EXPECT_GT(audit.lower_receiver, 0u) << "jobs=" << jobs;
  }
}

TEST(ScaleLedger, CrowdedExchangesRecordBothHalvesLikeReplay) {
  // Upload and download capacity 2 and a server that uploads 8 blocks a
  // tick: many reciprocal pairs have a side that also received from a third
  // client or the server that tick, so the sharded apply must record both
  // halves of those pairs, while exchanges with nothing else beside them
  // are netted. 5000 nodes = 3 receiver shards.
  EngineConfig cfg;
  cfg.num_nodes = 5000;
  cfg.num_blocks = 48;
  cfg.upload_capacity = 2;
  cfg.download_capacity = 2;
  cfg.server_upload_capacity = 8;
  ScaleOptions opt;
  opt.credit_limit = 1;
  Rng rng(23);
  const auto topo = std::make_shared<Topology>(
      Topology::from_graph(make_random_regular(cfg.num_nodes, 8, rng)));

  LedgerAudit first;
  for (const unsigned jobs : {1u, 4u}) {
    Engine engine(cfg, topo, opt, 23);
    const LedgerAudit audit = audit_ledger(engine, jobs, 300);
    ASSERT_FALSE(HasFailure()) << "jobs=" << jobs;
    EXPECT_GT(audit.netted_exchanges, 0u) << "jobs=" << jobs;
    EXPECT_GT(audit.crowded_exchanges, 0u) << "jobs=" << jobs;
    if (jobs == 1) {
      first = audit;
      continue;
    }
    EXPECT_EQ(audit.ticks, first.ticks);
    EXPECT_EQ(audit.nonzero_pairs, first.nonzero_pairs);
    EXPECT_EQ(audit.netted_exchanges, first.netted_exchanges);
    EXPECT_EQ(audit.crowded_exchanges, first.crowded_exchanges);
  }
}

}  // namespace
}  // namespace pob::scale
