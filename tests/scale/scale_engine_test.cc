// scale::Engine earns trust by equivalence: every stream it plans must be
// accepted, tick for tick, by core::Engine and the reference oracle (via
// MirrorScheduler), and the RunResult it reports on its own must match the
// one the mirrored core run produces, field for field. These tests pin that
// contract on fixed scenarios spanning topology, policy, mechanism, churn,
// and block-count edge cases; the fuzzer explores the space around them.

#include "pob/scale/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "pob/check/oracle.h"
#include "pob/overlay/builders.h"
#include "pob/scale/mirror.h"

namespace pob::scale {
namespace {

using check::diff_run_results;
using check::differential_check;
using check::MechanismSpec;
using check::run_result_digest;

std::shared_ptr<const Topology> complete_topo(std::uint32_t n) {
  return std::make_shared<Topology>(Topology::complete(n));
}

std::shared_ptr<const Topology> regular_topo(std::uint32_t n, std::uint32_t degree,
                                             std::uint64_t seed) {
  Rng rng(seed);
  return std::make_shared<Topology>(
      Topology::from_graph(make_random_regular(n, degree, rng)));
}

/// Runs the scale engine standalone, then replays its exact stream through
/// core::Engine + reference oracle via the mirror, and requires the two
/// RunResults (traces included) to be identical.
void expect_matches_mirrored_core(const EngineConfig& cfg,
                                  std::shared_ptr<const Topology> topo,
                                  const ScaleOptions& opt, std::uint64_t seed) {
  MechanismSpec spec;
  if (opt.credit_limit != 0) {
    spec.kind = MechanismSpec::Kind::kCreditLimited;
    spec.credit_limit = opt.credit_limit;
  }
  MirrorScheduler mirror(std::make_unique<Engine>(cfg, topo, opt, seed));
  const check::OracleReport report = differential_check(cfg, mirror, spec);
  ASSERT_TRUE(report.ok) << report.diagnosis;
  ASSERT_FALSE(report.violated) << report.violation_message;

  EngineConfig traced = cfg;
  traced.record_trace = true;  // differential_check records; match it
  Engine engine(traced, std::move(topo), opt, seed);
  const RunResult r = engine.run(1);
  EXPECT_EQ(diff_run_results(r, report.fast), "");
}

TEST(ScaleEngine, CompleteSwarmMatchesMirroredCore) {
  EngineConfig cfg;
  cfg.num_nodes = 48;
  cfg.num_blocks = 33;  // not a word multiple: tail masking in play
  expect_matches_mirrored_core(cfg, complete_topo(48), {}, 7);
}

TEST(ScaleEngine, RegularOverlayRarestFirstMatchesMirroredCore) {
  EngineConfig cfg;
  cfg.num_nodes = 120;
  cfg.num_blocks = 64;
  cfg.download_capacity = 2;
  cfg.server_upload_capacity = 3;
  ScaleOptions opt;
  opt.policy = BlockPolicy::kRarestFirst;
  opt.shard_nodes = 17;  // force many shards
  expect_matches_mirrored_core(cfg, regular_topo(120, 8, 11), opt, 11);
}

TEST(ScaleEngine, CreditLimitedStreamAcceptedByMechanism) {
  EngineConfig cfg;
  cfg.num_nodes = 60;
  cfg.num_blocks = 40;
  cfg.download_capacity = 2;
  ScaleOptions opt;
  opt.credit_limit = 1;  // tightest barter constraint
  expect_matches_mirrored_core(cfg, complete_topo(60), opt, 3);
}

TEST(ScaleEngine, ChurnAndDepartOnCompleteMatchMirroredCore) {
  EngineConfig cfg;
  cfg.num_nodes = 80;
  cfg.num_blocks = 50;
  cfg.depart_on_complete = true;
  cfg.departures = {{3, 5}, {3, 6}, {9, 40}};
  expect_matches_mirrored_core(cfg, complete_topo(80), {}, 19);
}

TEST(ScaleEngine, HeterogeneousCapacitiesMatchMirroredCore) {
  EngineConfig cfg;
  cfg.num_nodes = 40;
  cfg.num_blocks = 24;
  cfg.upload_capacities.assign(40, 1);
  cfg.download_capacities.assign(40, 2);
  cfg.upload_capacities[0] = 4;    // beefy server
  cfg.upload_capacities[7] = 3;    // one fast client (model needs d >= u)
  cfg.download_capacities[7] = 3;
  cfg.download_capacities[9] = 1;
  expect_matches_mirrored_core(cfg, complete_topo(40), {}, 23);
}

TEST(ScaleEngine, BlockCountWordBoundaries) {
  for (const std::uint32_t k : {1u, 63u, 64u, 65u, 127u}) {
    EngineConfig cfg;
    cfg.num_nodes = 16;
    cfg.num_blocks = k;
    expect_matches_mirrored_core(cfg, complete_topo(16), {}, 100 + k);
  }
}

TEST(ScaleEngine, SummaryBitmapsTailMaskedAtWordBoundaries) {
  // The per-chunk summaries mirror the possession rows at every block-count
  // edge: the tail bits of both the last possession word and the last
  // summary word must never leak into "has" or survive in "missing".
  for (const std::uint32_t k : {1u, 63u, 64u, 65u, 127u}) {
    SCOPED_TRACE(k);
    EngineConfig cfg;
    cfg.num_nodes = 12;
    cfg.num_blocks = k;
    Engine engine(cfg, complete_topo(12), {}, 200 + k);

    const std::uint32_t stride = (k + 63) / 64;
    ASSERT_EQ(engine.summary_words_per_row(), (stride + 63) / 64);
    const auto pattern = [&](std::uint32_t g) {
      const bool partial = (g + 1 == engine.summary_words_per_row()) && (stride & 63) != 0;
      return partial ? (1ULL << (stride & 63)) - 1 : ~0ULL;
    };

    // Fresh swarm: the server has every chunk and misses none; clients are
    // the exact complement. No summary bit above chunk stride-1 anywhere.
    for (std::uint32_t g = 0; g < engine.summary_words_per_row(); ++g) {
      EXPECT_EQ(engine.summary_has_word(kServer, g), pattern(g));
      EXPECT_EQ(engine.summary_missing_word(kServer, g), 0u);
      EXPECT_EQ(engine.summary_has_word(3, g), 0u);
      EXPECT_EQ(engine.summary_missing_word(3, g), pattern(g));
    }
    EXPECT_EQ(engine.possession_version(3), 0u);

    const RunResult r = engine.run(1);
    ASSERT_TRUE(r.completed);
    // Every client ended with the full file: has == the tail-masked chunk
    // pattern (not ~0 — that would mean a tail bit escaped), missing == 0,
    // and the possession version counted exactly its k deliveries.
    for (NodeId u = 0; u < 12; ++u) {
      for (std::uint32_t g = 0; g < engine.summary_words_per_row(); ++g) {
        EXPECT_EQ(engine.summary_has_word(u, g), pattern(g));
        EXPECT_EQ(engine.summary_missing_word(u, g), 0u);
      }
      // The version is the delivered-block count: k for every client, and
      // constant k for the server (it was seeded, never delivered to).
      EXPECT_EQ(engine.possession_version(u), k);
    }
  }
}

TEST(ScaleEngine, DenseRowQueriesExactAcrossWordAndTailBoundaries) {
  // Hand-deliver a node block by block and interrogate every possession
  // query: has(), first_missing(), top_block(), the summaries, and
  // completion. The withheld set straddles the word boundary and the tail
  // (k = 65) on purpose.
  EngineConfig cfg;
  cfg.num_nodes = 4;
  cfg.num_blocks = 65;
  Engine engine(cfg, complete_topo(4), ScaleOptions{}, 1);

  const std::vector<BlockId> withheld = {0, 37, 63, 64};
  Tick t = 1;
  const auto deliver = [&](BlockId b) {
    const Transfer tr{kServer, 1, b};
    engine.apply(t++, {&tr, 1});
  };
  for (BlockId b = 0; b < 65; ++b) {
    if (std::find(withheld.begin(), withheld.end(), b) != withheld.end()) continue;
    deliver(b);
  }
  ASSERT_EQ(engine.blocks_held(1), 61u);
  for (BlockId b = 0; b < 65; ++b) {
    EXPECT_EQ(engine.has(1, b),
              std::find(withheld.begin(), withheld.end(), b) == withheld.end());
  }
  EXPECT_EQ(engine.first_missing(1), 0u);
  EXPECT_EQ(engine.top_block(1), 62u);  // 63 and 64 both missing
  // sum_stride = 1; word 0 (blocks 0..63) and word 1 (block 64) both still
  // miss something, and word 1 — whose only block is withheld — holds none.
  EXPECT_EQ(engine.summary_missing_word(1, 0), 0b11u);
  EXPECT_EQ(engine.summary_has_word(1, 0), 0b01u);

  deliver(0);  // missing {37, 63, 64}
  EXPECT_EQ(engine.first_missing(1), 37u);
  EXPECT_EQ(engine.top_block(1), 62u);
  deliver(64);  // missing {37, 63}: the tail word is now complete
  EXPECT_EQ(engine.top_block(1), 64u);
  EXPECT_EQ(engine.summary_missing_word(1, 0), 0b01u);
  EXPECT_EQ(engine.summary_has_word(1, 0), 0b11u);
  deliver(37);  // missing {63}
  EXPECT_EQ(engine.first_missing(1), 63u);
  deliver(63);  // complete
  EXPECT_TRUE(engine.is_complete(1));
  EXPECT_EQ(engine.first_missing(1), 65u);
  EXPECT_EQ(engine.top_block(1), 64u);
  EXPECT_EQ(engine.summary_missing_word(1, 0), 0u);
  for (BlockId b = 0; b < 65; ++b) EXPECT_TRUE(engine.has(1, b));
  EXPECT_EQ(engine.node_completion(1), t - 1);
}

TEST(ScaleEngine, ChurnOnNearCompleteAndCompleteNodesMatchesUnchurnedTwin) {
  // Two lockstep engines over the same swarm. Between ticks, `a` takes a
  // near-complete node and a complete node out and straight back in; `b`
  // never churns. The round trip must leave no trace, so both must plan
  // the identical stream every tick. Rarest-first makes the parity sharp:
  // deactivate/activate adjust the global block frequencies from the
  // node's row, and any miscount diverges the picks for the rest of the run.
  EngineConfig cfg;
  cfg.num_nodes = 600;
  cfg.num_blocks = 64;
  ScaleOptions opt;
  opt.policy = BlockPolicy::kRarestFirst;
  Engine a(cfg, regular_topo(600, 8, 9), opt, 9);
  Engine b(cfg, regular_topo(600, 8, 9), opt, 9);

  std::vector<Transfer> sa, sb;
  std::uint32_t near_round_trips = 0, complete_round_trips = 0;
  for (Tick t = 1; t <= 400 && !a.all_complete(); ++t) {
    sa.clear();
    sb.clear();
    a.plan(t, sa);
    b.plan(t, sb);
    ASSERT_EQ(sa.size(), sb.size()) << "tick " << t;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      ASSERT_TRUE(sa[i].from == sb[i].from && sa[i].to == sb[i].to &&
                  sa[i].block == sb[i].block)
          << "tick " << t << " intent " << i;
    }
    a.apply(t, sa);
    b.apply(t, sb);

    NodeId near = 0, complete = 0;  // 0 = none this tick
    for (NodeId v = 1; v < 600 && (near == 0 || complete == 0); ++v) {
      const std::uint32_t held = a.blocks_held(v);
      if (near == 0 && held < 64 && held >= 56) near = v;
      if (complete == 0 && a.is_complete(v)) complete = v;
    }
    for (const NodeId v : {near, complete}) {
      if (v != 0) a.deactivate(v);
    }
    for (const NodeId v : {near, complete}) {
      if (v != 0) a.activate(v);
    }
    near_round_trips += near != 0 ? 1 : 0;
    complete_round_trips += complete != 0 ? 1 : 0;
  }
  EXPECT_TRUE(a.all_complete());
  EXPECT_TRUE(b.all_complete());
  EXPECT_EQ(a.num_departed(), 0u);
  EXPECT_EQ(a.active_upload_slots(), b.active_upload_slots());
  EXPECT_GT(near_round_trips, 0u);
  EXPECT_GT(complete_round_trips, 0u);
}

TEST(ScaleEngine, BlockCountEdges) {
  // k = 1 and 63/64/65 put the possession rows and summaries against the
  // tail mask and the word boundary. record_trace makes the digest cover
  // every transfer of every tick; jobs and the scan kernel must not move it.
  for (const std::uint32_t k : {1u, 63u, 64u, 65u}) {
    SCOPED_TRACE(k);
    EngineConfig cfg;
    cfg.num_nodes = 40;
    cfg.num_blocks = k;
    cfg.record_trace = true;
    const auto digest_with = [&](ScanKernel kernel, unsigned jobs) {
      ScaleOptions opt;
      opt.scan_kernel = kernel;
      Engine engine(cfg, complete_topo(40), opt, 300 + k);
      const RunResult r = engine.run(jobs);
      EXPECT_TRUE(r.completed);
      return run_result_digest(r);
    };
    const std::uint64_t base = digest_with(ScanKernel::kAuto, 1);
    EXPECT_EQ(digest_with(ScanKernel::kAuto, 4), base);
    EXPECT_EQ(digest_with(ScanKernel::kScalar, 1), base);
  }
}

TEST(ScaleEngine, StateBytesCoversArenaAndSummariesAndNeverShrinks) {
  // The possession arena and both summaries must be inside the reported
  // figure from construction on, and the figure must not shrink over a run
  // (scratch persists at high-water capacity).
  EngineConfig cfg;
  cfg.num_nodes = 3000;
  cfg.num_blocks = 64;
  Engine engine(cfg, complete_topo(3000), ScaleOptions{}, 21);
  const std::uint64_t fresh = engine.state_bytes();
  // Floor: the arena (stride 1) and both summaries (sum_stride 1).
  EXPECT_GE(fresh, 3000u * 8 + 2u * 3000 * 8);

  const RunResult r = engine.run(1);
  ASSERT_TRUE(r.completed);
  EXPECT_GE(engine.state_bytes(), fresh);
}

TEST(ScaleEngine, RejectsConfigsWhoseTickCouldOverflowTheIntentIndex) {
  // 2^17 nodes on the complete overlay with 2^16 upload slots each: a tick
  // could carry 2^33 intents, past the 32-bit intent index of the merge.
  constexpr std::uint32_t kNodes = 1u << 17;
  EngineConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.num_blocks = 1;
  cfg.upload_capacity = 1u << 16;
  cfg.download_capacity = 1u << 16;
  EXPECT_THROW(Engine(cfg, complete_topo(kNodes), ScaleOptions{}, 1),
               EngineViolation);

  // Raising caps mid-run keeps the same bound.
  cfg.upload_capacity = 1;
  Engine engine(cfg, complete_topo(kNodes), ScaleOptions{}, 1);
  for (NodeId u = 0; u + 1 < 1u << 15; ++u) {
    engine.set_capacity(u, 1u << 16, kUnlimited);
  }
  EXPECT_THROW(
      {
        for (NodeId u = 1u << 15; u < kNodes; ++u) {
          engine.set_capacity(u, 1u << 16, kUnlimited);
        }
      },
      EngineViolation);
}

TEST(ScaleEngine, ProbeCacheSurvivesChurnAndPossessionChanges) {
  // Maximum cache pressure: one probe per slot means a single stale
  // "useless" verdict (after the target gained blocks, after a departure,
  // or after a depart-on-complete exit) would directly suppress an intent
  // the mirrored core run emits. Credit mode adds the unblock-via-ledger
  // path, which must invalidate through the receiver's version bump.
  EngineConfig cfg;
  cfg.num_nodes = 72;
  cfg.num_blocks = 65;  // tail word in play
  cfg.depart_on_complete = true;
  cfg.departures = {{2, 9}, {5, 33}, {5, 34}, {12, 60}};
  ScaleOptions opt;
  opt.max_probes = 1;
  opt.credit_limit = 1;
  opt.policy = BlockPolicy::kRarestFirst;
  opt.shard_nodes = 13;
  expect_matches_mirrored_core(cfg, regular_topo(72, 9, 31), opt, 31);
}

TEST(ScaleEngine, ResultIndependentOfJobCount) {
  EngineConfig cfg;
  cfg.num_nodes = 300;
  cfg.num_blocks = 96;
  cfg.record_trace = true;  // digest the full transfer stream too
  ScaleOptions opt;
  opt.shard_nodes = 29;
  const auto run_at = [&](unsigned jobs) {
    Engine engine(cfg, regular_topo(300, 10, 5), opt, 5);
    return run_result_digest(engine.run(jobs));
  };
  const std::uint64_t serial = run_at(1);
  EXPECT_EQ(run_at(2), serial);
  EXPECT_EQ(run_at(5), serial);
}

TEST(ScaleEngine, CompleteTopologyMatchesExplicitCsr) {
  // The arithmetic complete() fast path and a materialized complete graph
  // must be indistinguishable to the planner.
  const std::uint32_t n = 24;
  Graph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) g.add_edge(u, v);
  }
  g.finalize();
  EngineConfig cfg;
  cfg.num_nodes = n;
  cfg.num_blocks = 31;
  cfg.record_trace = true;
  const auto digest_with = [&](std::shared_ptr<const Topology> topo) {
    Engine engine(cfg, std::move(topo), {}, 13);
    return run_result_digest(engine.run(1));
  };
  EXPECT_EQ(digest_with(complete_topo(n)),
            digest_with(std::make_shared<Topology>(Topology::from_graph(g))));
}

TEST(ScaleEngine, ValidatesLikeCore) {
  EngineConfig good;
  good.num_nodes = 8;
  good.num_blocks = 4;

  EngineConfig cfg = good;
  cfg.num_nodes = 1;
  EXPECT_THROW(Engine(cfg, complete_topo(1), {}, 1), std::invalid_argument);

  cfg = good;
  cfg.num_blocks = 0;
  EXPECT_THROW(Engine(cfg, complete_topo(8), {}, 1), std::invalid_argument);

  // Topology size must match the config.
  EXPECT_THROW(Engine(good, complete_topo(9), {}, 1), std::invalid_argument);

  cfg = good;
  cfg.upload_capacities.assign(3, 1);  // wrong length
  EXPECT_THROW(Engine(cfg, complete_topo(8), {}, 1), EngineViolation);

  cfg = good;
  cfg.departures = {{2, 0}};  // the server cannot depart
  EXPECT_THROW(Engine(cfg, complete_topo(8), {}, 1), EngineViolation);

  ScaleOptions opt;
  opt.max_probes = 0;
  EXPECT_THROW(Engine(good, complete_topo(8), opt, 1), std::invalid_argument);
}

TEST(ScaleEngine, RunResumesInWindows) {
  // run() is windowed: driving the same swarm in max_ticks-sized slices
  // must reproduce the uncapped run transfer for transfer — tick numbering,
  // departures, depart-on-complete and the credit ledger all carry across
  // calls.
  EngineConfig cfg;
  cfg.num_nodes = 90;
  cfg.num_blocks = 50;
  cfg.depart_on_complete = true;
  cfg.departures = {{4, 11}, {7, 52}};
  ScaleOptions opt;
  opt.credit_limit = 2;

  Engine whole(cfg, complete_topo(90), opt, 41);
  const RunResult single = whole.run(1);
  ASSERT_TRUE(single.completed);

  EngineConfig windowed_cfg = cfg;
  windowed_cfg.max_ticks = 5;  // the per-call cap
  Engine windowed(windowed_cfg, complete_topo(90), opt, 41);
  Tick total_ticks = 0;
  Count total_transfers = 0;
  std::vector<Count> uploads_per_tick;
  RunResult last;
  for (int window = 0; window < 1000; ++window) {
    last = windowed.run(1);
    total_ticks += last.ticks_executed;
    total_transfers += last.total_transfers;
    uploads_per_tick.insert(uploads_per_tick.end(), last.uploads_per_tick.begin(),
                            last.uploads_per_tick.end());
    if (last.completed) break;
    ASSERT_EQ(last.ticks_executed, 5u);  // a non-final window uses its full cap
  }
  ASSERT_TRUE(last.completed);
  EXPECT_EQ(total_ticks, single.ticks_executed);
  EXPECT_EQ(total_transfers, single.total_transfers);
  EXPECT_EQ(uploads_per_tick, single.uploads_per_tick);
  EXPECT_EQ(last.client_completion, single.client_completion);
  EXPECT_EQ(last.uploads_per_node, single.uploads_per_node);
  EXPECT_EQ(last.departed, single.departed);

  // A further call on the completed swarm is a no-op window.
  const RunResult after = windowed.run(1);
  EXPECT_EQ(after.ticks_executed, 0u);
  EXPECT_TRUE(after.completed);
  EXPECT_EQ(after.total_transfers, 0u);
}

TEST(ScaleEngine, PhaseTimingsResetEveryRun) {
  // Regression: timings_ used to accumulate across run() calls, so a second
  // instrumented window reported the first window's seconds too. Each call
  // must report only its own ticks — and a zero-tick window exactly zero.
  EngineConfig cfg;
  cfg.num_nodes = 400;
  cfg.num_blocks = 48;
  cfg.max_ticks = 4;
  ScaleOptions opt;
  opt.collect_phase_timings = true;
  Engine engine(cfg, complete_topo(400), opt, 8);

  (void)engine.run(1);
  const PhaseTimings first = engine.phase_timings();
  EXPECT_GT(first.generate_seconds, 0.0);

  RunResult rest;
  do {
    rest = engine.run(1);
  } while (!rest.completed && rest.ticks_executed != 0);
  ASSERT_TRUE(rest.completed);

  // The swarm is done: a fresh window executes zero ticks, and its timings
  // must be exactly zero, not the accumulated history.
  (void)engine.run(1);
  const PhaseTimings idle = engine.phase_timings();
  EXPECT_EQ(idle.generate_seconds, 0.0);
  EXPECT_EQ(idle.merge_seconds, 0.0);
  EXPECT_EQ(idle.apply_seconds, 0.0);
}

TEST(ScaleEngine, RunRefusesLockstepEngines) {
  EngineConfig cfg;
  cfg.num_nodes = 8;
  cfg.num_blocks = 4;
  Engine engine(cfg, complete_topo(8), {}, 1);
  std::vector<Transfer> planned;
  engine.plan(1, planned);  // lockstep driving began: run() would desync
  EXPECT_THROW(engine.run(1), std::logic_error);
}

TEST(ScaleEngine, LockstepPlanApplyRoundTrip) {
  EngineConfig cfg;
  cfg.num_nodes = 6;
  cfg.num_blocks = 8;
  Engine engine(cfg, complete_topo(6), {}, 2);
  std::vector<Transfer> planned;
  engine.plan(1, planned);
  ASSERT_FALSE(planned.empty());
  for (const Transfer& t : planned) {
    EXPECT_EQ(t.from, kServer);  // tick 1: only the server holds blocks
    EXPECT_FALSE(engine.has(t.to, t.block));
  }
  engine.apply(1, planned);
  for (const Transfer& t : planned) EXPECT_TRUE(engine.has(t.to, t.block));

  engine.deactivate(3);
  EXPECT_FALSE(engine.is_active(3));
  engine.deactivate(3);  // idempotent
  EXPECT_THROW(engine.deactivate(kServer), std::invalid_argument);

  planned.clear();
  engine.plan(2, planned);
  for (const Transfer& t : planned) {
    EXPECT_NE(t.from, 3u);  // departed nodes neither send...
    EXPECT_NE(t.to, 3u);    // ...nor receive
  }
}

TEST(ScaleEngine, StateBytesCountsTickScratchAndLedger) {
  EngineConfig cfg;
  cfg.num_nodes = 64;
  cfg.num_blocks = 40;
  ScaleOptions opt;
  opt.credit_limit = 2;
  opt.shard_nodes = 16;
  Engine engine(cfg, complete_topo(64), opt, 9);

  // The construction-time figure must cover at least the possession arena
  // and its chunk summaries, the per-node arrays (seven uint32-sized —
  // counts (which double as possession versions), completion ticks,
  // capacities, download bookkeeping and sated stamps — one uint64 Count,
  // one byte), the per-block
  // frequency table, and the generate-phase scratch the constructor sizes
  // up front: per intent shard, a full-stride diff recording (word index +
  // word + popcount per entry) and a probe cache of at least 2x shard_nodes
  // 16-byte entries. Any future scratch must only push the real figure
  // further above this floor.
  const std::uint64_t fresh = engine.state_bytes();
  const std::uint64_t stride = (40 + 63) / 64;
  const std::uint64_t sum_stride = (stride + 63) / 64;
  const std::uint64_t shards = (64 + 16 - 1) / 16;  // n / shard_nodes
  const std::uint64_t floor =
      64 * stride * sizeof(std::uint64_t) +
      2 * 64 * sum_stride * sizeof(std::uint64_t) +  // has + missing summaries
      64 * (7 * sizeof(std::uint32_t) + sizeof(Count) + 1) +
      40 * sizeof(std::uint32_t) +
      shards * stride *
          (sizeof(std::uint64_t) + 2 * sizeof(std::uint32_t)) +  // diff scans
      shards * 2 * 16 *
          (sizeof(std::uint64_t) + 2 * sizeof(std::uint32_t));  // probe caches
  EXPECT_GE(fresh, floor);

  std::vector<Transfer> planned;
  engine.plan(1, planned);
  engine.apply(1, planned);
  ASSERT_FALSE(planned.empty());

  // Planning allocates the per-shard intent vectors, the receiver-shard
  // admission tables and the merge buckets; applying in credit mode
  // populates the ledger. All of that is engine state the old accounting
  // omitted — the figure must grow by at least the intents now buffered.
  const std::uint64_t planned_bytes = engine.state_bytes();
  EXPECT_GE(planned_bytes, fresh + planned.size() * sizeof(Transfer));
}

TEST(ScaleEngine, PhaseTimingsAccumulateOnlyWhenEnabled) {
  EngineConfig cfg;
  cfg.num_nodes = 600;
  cfg.num_blocks = 64;

  ScaleOptions timed;
  timed.collect_phase_timings = true;
  Engine on(cfg, complete_topo(600), timed, 5);
  const RunResult r = on.run(2);
  EXPECT_TRUE(r.completed);
  const PhaseTimings t = on.phase_timings();
  EXPECT_GT(t.generate_seconds, 0.0);
  EXPECT_GT(t.merge_seconds, 0.0);
  EXPECT_GT(t.apply_seconds, 0.0);

  Engine off(cfg, complete_topo(600), {}, 5);
  (void)off.run(2);
  const PhaseTimings z = off.phase_timings();
  EXPECT_EQ(z.generate_seconds, 0.0);
  EXPECT_EQ(z.merge_seconds, 0.0);
  EXPECT_EQ(z.apply_seconds, 0.0);
}

TEST(ScaleTopology, CompleteNeighborArithmetic) {
  const Topology topo = Topology::complete(5);
  EXPECT_EQ(topo.num_nodes(), 5u);
  EXPECT_EQ(topo.degree(2), 4u);
  // Ascending neighbor order with self skipped: 0, 1, 3, 4.
  EXPECT_EQ(topo.neighbor(2, 0), 0u);
  EXPECT_EQ(topo.neighbor(2, 1), 1u);
  EXPECT_EQ(topo.neighbor(2, 2), 3u);
  EXPECT_EQ(topo.neighbor(2, 3), 4u);
  EXPECT_EQ(topo.num_directed_edges(), 20u);
}

TEST(ScaleTopology, FromGraphKeepsSortedOrder) {
  Graph g(4);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  g.add_edge(2, 1);
  g.finalize();
  const Topology topo = Topology::from_graph(g);
  EXPECT_EQ(topo.degree(2), 3u);
  EXPECT_EQ(topo.neighbor(2, 0), 0u);
  EXPECT_EQ(topo.neighbor(2, 1), 1u);
  EXPECT_EQ(topo.neighbor(2, 2), 3u);
  EXPECT_EQ(topo.degree(0), 1u);
  EXPECT_EQ(topo.neighbor(0, 0), 2u);
  EXPECT_GT(topo.memory_bytes(), 0u);
}

}  // namespace
}  // namespace pob::scale
