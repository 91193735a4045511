// StreamEngine tests: the async mirror at small n (field-for-field,
// including bit-identical metric NaNs), the censored-startup convention on
// capped runs, in-order delivery under sequential window demand, the
// 200k-node variable-population determinism pin, and the state_bytes()
// floor covering the event queue and per-node deadline state.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>

#include "pob/check/oracle.h"
#include "pob/check/stream_check.h"
#include "pob/overlay/builders.h"
#include "pob/scale/engine.h"
#include "pob/scale/stream/stream_engine.h"

namespace pob::scale::stream {
namespace {

StreamSpec spec_for(std::uint32_t n, std::uint32_t k, std::uint64_t seed) {
  StreamSpec spec;
  spec.config.num_nodes = n;
  spec.config.num_blocks = k;
  spec.topology = std::make_shared<Topology>(Topology::complete(n));
  spec.seed = seed;
  return spec;
}

TEST(StreamEngine, FlashCrowdMirrorsAgainstAsync) {
  StreamSpec spec = spec_for(48, 10, 21);
  spec.workload.arrivals = ArrivalPattern::kFlashCrowd;
  spec.workload.flash_start = 4;
  spec.workload.flash_width = 3;
  spec.demand.startup_blocks = 2;

  const check::StreamMirrorReport report = check::stream_mirror_check(spec);
  EXPECT_TRUE(report.ok) << report.diagnosis;
  const RunResult& r = report.scale;
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.startup_latency.size(), 47u);
  EXPECT_EQ(r.never_started, 0u);
  for (const double lat : r.startup_latency) {
    EXPECT_FALSE(std::isnan(lat));
    EXPECT_GE(lat, 0.0);
  }
}

TEST(StreamEngine, VodWindowWithDeadlinesMirrorsAgainstAsync) {
  StreamSpec spec = spec_for(40, 12, 5);
  spec.workload.arrivals = ArrivalPattern::kPoisson;
  spec.workload.mean_gap16 = 8;
  spec.demand.window = 4;  // sequential in-order demand
  spec.demand.startup_blocks = 3;
  spec.demand.deadlines = true;

  const check::StreamMirrorReport report = check::stream_mirror_check(spec);
  EXPECT_TRUE(report.ok) << report.diagnosis;
  const RunResult& r = report.scale;
  ASSERT_TRUE(r.completed);
  // Every started client walks its whole deadline chain (or gets the rest
  // credited at completion): k - startup checks each.
  EXPECT_EQ(r.deadline_checks, std::uint64_t{39} * (12 - 3));
  EXPECT_LE(r.deadline_misses, r.deadline_checks);
}

TEST(StreamEngine, RateClassesAndChurnMirrorAgainstAsync) {
  StreamSpec spec = spec_for(32, 8, 99);
  spec.workload.arrivals = ArrivalPattern::kBurst;
  spec.workload.burst_size = 6;
  spec.workload.burst_period = 2;
  spec.workload.rate_classes = {{2, 1, kUnlimited}, {1, 2, 4}};
  spec.workload.rate_changes = 5;
  spec.workload.rate_change_horizon = 10;

  const check::StreamMirrorReport report = check::stream_mirror_check(spec);
  EXPECT_TRUE(report.ok) << report.diagnosis;
  EXPECT_TRUE(report.scale.completed);
}

// Satellite regression: a run capped before most of the flash crowd even
// arrives must NaN-mark exactly the never-started clients (the censored
// convention from the metrics layer) and keep them out of the rebuffering
// population — a never-started client cannot have stalled playback.
TEST(StreamEngine, CensorsNeverStartedClientsAsNaN) {
  StreamSpec spec = spec_for(32, 4, 13);
  // Burst cohorts of 8 every 30 ticks: clients 1-8 arrive at tick 1, the
  // other three cohorts (clients 9-31) arrive at ticks 31/61/91 — all past
  // the cap below, so they never even join, let alone start playback.
  spec.workload.arrivals = ArrivalPattern::kBurst;
  spec.workload.burst_size = 8;
  spec.workload.burst_period = 30;
  spec.demand.startup_blocks = 1;
  spec.config.max_ticks = 12;
  spec.config.stall_window = 0;

  StreamEngine engine(spec);
  const RunResult r = engine.run(1);
  EXPECT_FALSE(r.completed);

  std::uint32_t nans = 0;
  for (NodeId c = 1; c < 32; ++c) {
    if (std::isnan(r.startup_latency[c - 1])) {
      ++nans;
      // Censored clients are reported separately from rebuffering ones.
      EXPECT_EQ(r.rebuffer_ticks[c - 1], 0u) << c;
    }
  }
  EXPECT_EQ(r.never_started, nans);
  EXPECT_GE(nans, 23u);  // the three late cohorts are censored for sure
  EXPECT_LT(nans, 31u);  // the first cohort had 12 ticks to start
}

TEST(StreamEngine, StallWindowCountsOnlyTicksAfterTheLastArrival) {
  // One client every 20 ticks: each finishes the 2-block file long before
  // the next arrives, so the pre-arrival stretch carries zero transfers for
  // many windows. Those ticks are the workload, not a stall; once the last
  // client arrives at tick 41 the swarm finishes within the window.
  StreamSpec spec = spec_for(4, 2, 17);
  spec.workload.arrivals = ArrivalPattern::kBurst;
  spec.workload.burst_size = 1;
  spec.workload.burst_period = 20;
  spec.config.stall_window = 5;

  StreamEngine engine(spec);
  const RunResult r = engine.run(1);
  EXPECT_FALSE(r.stalled);
  ASSERT_TRUE(r.completed);
  EXPECT_GE(r.ticks_executed, 41u);
  EXPECT_EQ(r.uploads_per_tick[9], 0u);  // a quiet pre-arrival tick
}

TEST(StreamEngine, RejectsBlockCountWhoseWordCountWraps) {
  // (k + 63) / 64 wraps 32 bits from k = 2^32 - 63 on; the config check
  // rejects it before any k-sized row exists (n = 2 keeps the rest tiny).
  StreamSpec spec = spec_for(2, 4294967233u, 1);
  try {
    StreamEngine engine(spec);
    ADD_FAILURE() << "expected EngineViolation";
  } catch (const EngineViolation& e) {
    EXPECT_STREQ(e.what(),
                 "config: num_blocks 4294967233 exceeds 4294967232 (the "
                 "possession-row word count would wrap)");
  }
}

TEST(StreamEngine, SequentialWindowDeliversBlocksInOrder) {
  StreamSpec spec = spec_for(24, 8, 3);
  spec.config.record_trace = true;
  spec.demand.window = 1;  // W = 1: only the first missing block is viable

  StreamEngine engine(spec);
  const RunResult r = engine.run(1);
  ASSERT_TRUE(r.completed);
  std::vector<BlockId> next(24, 0);
  for (const auto& tick : r.trace) {
    for (const Transfer& tr : tick) {
      EXPECT_EQ(tr.block, next[tr.to]) << "out-of-order delivery to " << tr.to;
      ++next[tr.to];
    }
  }
}

// The mega-swarm pin for the stream layer: a 200k-node flash crowd with
// heterogeneous rate classes, mid-run rate churn and hard deadlines must
// produce a bit-identical RunResult (by digest, which covers the streaming
// metric fields too) at jobs = 1, 4 and the hardware count. Random-regular
// overlay, like the 50k engine pin — the arithmetic complete graph makes
// every randomized probe ring shoulder the whole swarm and is far too slow
// at this n to be a unit test.
TEST(StreamDeterminism, TwoHundredThousandNodeFlashCrowdAnyJobCount) {
  constexpr std::uint32_t kNodes = 200000;

  Rng topo_rng(77);
  const auto topology = std::make_shared<Topology>(
      Topology::from_graph(make_random_regular(kNodes, 16, topo_rng)));

  const auto digest_at = [&](unsigned jobs) {
    StreamSpec spec = spec_for(kNodes, 32, 1234);
    spec.topology = topology;
    spec.config.server_upload_capacity = 8;
    spec.workload.arrivals = ArrivalPattern::kFlashCrowd;
    spec.workload.flash_start = 8;
    spec.workload.flash_width = 6;
    spec.workload.rate_classes = {{3, 1, kUnlimited}, {2, 2, 4}, {1, 3, 6}};
    spec.workload.rate_changes = 64;
    spec.workload.rate_change_horizon = 32;
    spec.demand.startup_blocks = 4;
    spec.demand.deadlines = true;
    StreamEngine engine(std::move(spec));
    const RunResult r = engine.run(jobs);
    EXPECT_TRUE(r.completed);
    return check::run_result_digest(r);
  };

  const std::uint64_t serial = digest_at(1);
  EXPECT_EQ(digest_at(4), serial);
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  EXPECT_EQ(digest_at(hw), serial);
}

// state_bytes() must account for the stream layer's own state on top of the
// engine arena: the pending event calendar and the per-node playback /
// deadline tracking rows.
TEST(StreamEngine, StateBytesCoversEventQueueAndDeadlineState) {
  constexpr std::uint32_t kNodes = 4096;
  StreamSpec spec = spec_for(kNodes, 64, 7);
  spec.workload.arrivals = ArrivalPattern::kPoisson;
  spec.workload.mean_gap16 = 2;
  spec.demand.deadlines = true;

  StreamEngine engine(spec);  // not run: the calendar still holds every event
  const std::uint64_t event_bytes =
      engine.plan().events.size() * sizeof(StreamEvent);
  // Per node, at minimum: one possession word, the prefix cursor, arrival /
  // start / due ticks, the playhead, the rebuffer counter and the deadline
  // cursor.
  const std::uint64_t per_node =
      sizeof(std::uint64_t) + 2 * sizeof(std::uint32_t) + 3 * sizeof(Tick) +
      sizeof(Count) + sizeof(BlockId);
  EXPECT_GE(engine.state_bytes(),
            engine.engine().state_bytes() + event_bytes + kNodes * per_node);
}

}  // namespace
}  // namespace pob::scale::stream
