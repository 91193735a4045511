// The jobs sweep behind `pobsim --engine=scale|stream --sweep`: every point
// of a sweep reruns one transfer stream, so the points give one digest and
// one credit-ledger size, and that digest is the one a single engine built
// straight from the spec produces.

#include "pob/check/jobs_sweep.h"

#include <gtest/gtest.h>

#include "pob/check/oracle.h"

namespace pob::check {
namespace {

/// Run 0 of `spec` on one engine built from the RunSpec builders, at jobs 1.
std::uint64_t single_run_digest(const scale::RunSpec& spec) {
  const std::uint64_t seed = scale::run_seed(spec, 0);
  if (spec.engine == scale::RunEngine::kStream) {
    scale::stream::StreamEngine engine(scale::build_stream_spec(spec, seed));
    return run_result_digest(engine.run(1));
  }
  scale::Engine engine(scale::build_config(spec), scale::build_topology(spec, seed),
                       scale::build_scale_options(spec), seed);
  return run_result_digest(engine.run(1));
}

/// Sweeps `flags` at jobs {1, 2}; returns the one digest after checking
/// that the points agree with each other and with the single-run path.
std::uint64_t sweep_digest(const std::string& flags, std::uint64_t* ledger_pairs) {
  const scale::RunSpec spec = scale::parse_run_spec(flags);
  const JobsSweep sweep = run_sweep(spec, 0, {1, 2}, false);
  EXPECT_TRUE(sweep.topology != nullptr);
  EXPECT_EQ(sweep.points.size(), 2u);
  if (sweep.points.size() != 2) return 0;
  const SweepPoint& a = sweep.points[0];
  const SweepPoint& b = sweep.points[1];
  EXPECT_EQ(a.jobs, 1u);
  EXPECT_EQ(b.jobs, 2u);
  EXPECT_TRUE(a.result.completed);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.ledger_pairs, b.ledger_pairs);
  EXPECT_EQ(a.digest, run_result_digest(b.result));
  EXPECT_EQ(a.digest, single_run_digest(spec));
  *ledger_pairs = a.ledger_pairs;
  return a.digest;
}

TEST(JobsSweep, CappedCreditRunGivesOneDigestAndOneLedgerSize) {
  std::uint64_t ledger = 0;
  EXPECT_EQ(sweep_digest("--engine=scale --algo=credit-randomized --credit=1 "
                         "--policy=rarest --overlay=regular --degree=16 --n=2048 "
                         "--k=32 --cap=60",
                         &ledger),
            0x7224204f5eb0f082ULL);
  EXPECT_EQ(ledger, 10926u);
}

TEST(JobsSweep, StreamFlashCrowdGivesOneDigest) {
  std::uint64_t ledger = 1;
  EXPECT_EQ(sweep_digest("--engine=stream --overlay=regular --degree=16 --n=4096 "
                         "--k=32 --servers=8 --arrivals=flash --gap16=2 "
                         "--flash-width=16 --burst-size=15626 --classes=3 "
                         "--churn=64 --deadlines",
                         &ledger),
            0xdf1e86868cd9d280ULL);
  EXPECT_EQ(ledger, 0u);
}

TEST(JobsSweep, RefusesTheCoreEngine) {
  EXPECT_THROW(run_sweep(scale::RunSpec{}, 0, {1}, false), std::invalid_argument);
}

}  // namespace
}  // namespace pob::check
