// Trace replay against an independent reference validator: every algorithm's
// recorded transfer log is re-checked by a from-scratch reimplementation of
// the §2.1 model (no BlockSet, no engine code — plain std containers), so a
// bug would have to exist twice to slip through.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "pob/check/async_check.h"
#include "pob/check/corpus.h"
#include "pob/check/oracle.h"
#include "pob/core/engine.h"
#include "pob/exp/trace_io.h"
#include "pob/overlay/builders.h"
#include "pob/rand/randomized.h"
#include "pob/rand/tit_for_tat.h"
#include "pob/sched/binomial_pipeline.h"
#include "pob/sched/binomial_tree.h"
#include "pob/sched/multicast_tree.h"
#include "pob/sched/pipeline.h"
#include "pob/sched/riffle_pipeline.h"
#include "pob/sched/striped_trees.h"

namespace pob {
namespace {

/// Independent model checker: replays a trace tick by tick and verifies the
/// bandwidth and data-transfer rules with naive data structures.
struct ReferenceValidator {
  std::uint32_t n, k, up, down, server_up;
  std::vector<std::set<BlockId>> have;

  ReferenceValidator(std::uint32_t n_, std::uint32_t k_, std::uint32_t up_,
                     std::uint32_t down_, std::uint32_t server_up_)
      : n(n_), k(k_), up(up_), down(down_), server_up(server_up_), have(n_) {
    for (BlockId b = 0; b < k; ++b) have[0].insert(b);
  }

  /// Validates one tick; returns an error description or empty string.
  std::string check_and_apply(const std::vector<Transfer>& tick) {
    std::vector<std::uint32_t> ups(n, 0), downs(n, 0);
    std::set<std::pair<NodeId, BlockId>> deliveries;
    for (const Transfer& tr : tick) {
      if (tr.from >= n || tr.to >= n || tr.from == tr.to) return "bad endpoints";
      if (tr.block >= k) return "bad block";
      if (have[tr.from].count(tr.block) == 0) return "sender lacks block";
      if (have[tr.to].count(tr.block) != 0) return "receiver already has block";
      if (!deliveries.insert({tr.to, tr.block}).second) return "duplicate delivery";
      if (++ups[tr.from] > (tr.from == 0 ? server_up : up)) return "upload overflow";
      if (down != kUnlimited && ++downs[tr.to] > down) return "download overflow";
    }
    for (const Transfer& tr : tick) have[tr.to].insert(tr.block);
    return "";
  }

  bool all_complete() const {
    for (NodeId c = 1; c < n; ++c) {
      if (have[c].size() != k) return false;
    }
    return true;
  }
};

void replay_and_check(const EngineConfig& cfg, const RunResult& r) {
  ASSERT_TRUE(r.completed);
  const std::uint32_t server_up =
      cfg.server_upload_capacity != 0 ? cfg.server_upload_capacity : cfg.upload_capacity;
  ReferenceValidator ref(cfg.num_nodes, cfg.num_blocks, cfg.upload_capacity,
                         cfg.download_capacity, server_up);
  for (Tick t = 1; t <= r.trace.size(); ++t) {
    const std::string err = ref.check_and_apply(r.trace[t - 1]);
    ASSERT_EQ(err, "") << "tick " << t;
  }
  EXPECT_TRUE(ref.all_complete());
  // Every delivery is useful exactly once: total transfers = (n-1)*k.
  EXPECT_EQ(r.total_transfers,
            static_cast<std::uint64_t>(cfg.num_nodes - 1) * cfg.num_blocks);
}

EngineConfig traced(std::uint32_t n, std::uint32_t k, std::uint32_t down) {
  EngineConfig cfg;
  cfg.num_nodes = n;
  cfg.num_blocks = k;
  cfg.download_capacity = down;
  cfg.record_trace = true;
  return cfg;
}

TEST(TraceReplay, BinomialPipeline) {
  for (const std::uint32_t n : {9u, 16u, 33u}) {
    EngineConfig cfg = traced(n, 21, 1);
    BinomialPipelineScheduler sched(n, 21);
    replay_and_check(cfg, run(cfg, sched));
  }
}

TEST(TraceReplay, PipelineAndTrees) {
  {
    EngineConfig cfg = traced(12, 9, 1);
    PipelineScheduler sched(12, 9);
    replay_and_check(cfg, run(cfg, sched));
  }
  {
    EngineConfig cfg = traced(14, 9, 1);
    MulticastTreeScheduler sched(14, 9, 3);
    replay_and_check(cfg, run(cfg, sched));
  }
  {
    EngineConfig cfg = traced(19, 6, 1);
    BinomialTreeScheduler sched(19, 6);
    replay_and_check(cfg, run(cfg, sched));
  }
}

TEST(TraceReplay, RifflePipeline) {
  for (const std::uint32_t n : {7u, 20u}) {
    EngineConfig cfg = traced(n, 25, 2);
    RifflePipelineScheduler sched(n, 25, 1, 2);
    replay_and_check(cfg, run(cfg, sched));
  }
}

TEST(TraceReplay, StripedTrees) {
  EngineConfig cfg = traced(25, 24, 4);
  StripedTreesScheduler sched(25, 24, 4);
  replay_and_check(cfg, run(cfg, sched));
}

TEST(TraceReplay, RandomizedSwarmManySeeds) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    EngineConfig cfg = traced(40, 30, kUnlimited);
    RandomizedScheduler sched(std::make_shared<CompleteOverlay>(40), {}, Rng(seed));
    replay_and_check(cfg, run(cfg, sched));
  }
}

TEST(TraceReplay, RandomizedWithFiniteDownloadCapacity) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    EngineConfig cfg = traced(32, 24, 2);
    RandomizedOptions opt;
    opt.download_capacity = 2;
    RandomizedScheduler sched(std::make_shared<CompleteOverlay>(32), opt, Rng(seed));
    replay_and_check(cfg, run(cfg, sched));
  }
}

TEST(TraceReplay, TitForTat) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    EngineConfig cfg = traced(36, 18, kUnlimited);
    TitForTatScheduler sched(std::make_shared<CompleteOverlay>(36), {}, Rng(seed));
    replay_and_check(cfg, run(cfg, sched));
  }
}

// --- The golden corpus (tests/check/corpus/) ---
//
// Committed bytes are compared against a deterministic regeneration, so any
// behavioral drift in an engine or scheduler fails here first; the committed
// bytes are then replayed through the differential oracle. Regenerate on an
// intentional change with: pobfuzz --write-corpus=tests/check/corpus

std::string slurp(const std::string& filename) {
  std::ifstream is(std::string(POB_CORPUS_DIR) + "/" + filename, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

TEST(GoldenCorpus, CommittedTracesMatchTheirGenerators) {
  for (const check::CorpusEntry& entry : check::golden_corpus()) {
    const std::string committed = slurp(entry.filename);
    ASSERT_FALSE(committed.empty()) << entry.filename << " missing or empty";
    EXPECT_EQ(committed, check::render_corpus_entry(entry))
        << entry.filename << " drifted from its generator";
  }
}

TEST(GoldenCorpus, CommittedTracesReplayCleanThroughTheOracle) {
  for (const check::CorpusEntry& entry : check::golden_corpus()) {
    std::istringstream is(slurp(entry.filename));
    const LoadedTrace trace = read_trace(is);
    const check::OracleReport report =
        check::differential_replay(trace, check::mechanism_spec(entry.scenario.spec));
    EXPECT_TRUE(report.ok) << entry.filename << ": " << report.diagnosis;
    EXPECT_FALSE(report.violated)
        << entry.filename << ": " << report.violation_message;
    EXPECT_EQ(report.fast.completed, entry.completes) << entry.filename;
  }
}

TEST(GoldenCorpus, AsyncGoldenMatchesAndItsLogChecksOut) {
  const check::AsyncGolden golden = check::async_golden();
  EXPECT_EQ(slurp(golden.filename), golden.text)
      << golden.filename << " drifted from its generator";
  const auto error = check::check_async_log(golden.config, golden.result);
  EXPECT_FALSE(error.has_value()) << *error;
  EXPECT_TRUE(golden.result.completed);
}

TEST(TraceReplay, StrictBarterPairingVerifiedIndependently) {
  // Re-verify the riffle trace's strict-barter property with naive counting.
  EngineConfig cfg = traced(11, 30, 2);
  RifflePipelineScheduler sched(11, 30, 1, 2);
  const RunResult r = run(cfg, sched);
  ASSERT_TRUE(r.completed);
  for (const auto& tick : r.trace) {
    std::map<std::pair<NodeId, NodeId>, int> dir;
    for (const Transfer& tr : tick) {
      if (tr.from == kServer) continue;
      ++dir[{tr.from, tr.to}];
    }
    for (const auto& [pair, count] : dir) {
      const auto rev = dir.find({pair.second, pair.first});
      ASSERT_TRUE(rev != dir.end() && rev->second == count)
          << pair.first << "->" << pair.second;
    }
  }
}

}  // namespace
}  // namespace pob
