// The report helpers carry real reporting semantics — most importantly
// which sweep point a speedup column normalizes against. pobsim's
// speedup_j<jobs> fields claim "vs the serial run"; jobs_from_flag can clamp
// or dedupe jobs=1 out of the effective list, and the baseline choice must
// degrade to the first point that actually ran, never to a fabricated one.

#include "pob/exp/report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "pob/exp/parallel.h"

namespace pob {
namespace {

TEST(BenchUtil, SweepBaselinePrefersTheSerialPoint) {
  // jobs=1 first: the common --sweep=1,2,4,8 shape.
  EXPECT_EQ(sweep_baseline_index({1u, 2u, 4u, 8u}), 0u);
  // jobs=1 present but not first: the baseline must follow it, not assume
  // points.front() is serial (the historical bug).
  EXPECT_EQ(sweep_baseline_index({8u, 4u, 1u}), 2u);
  EXPECT_EQ(sweep_baseline_index({16u, 1u, 2u}), 1u);
}

TEST(BenchUtil, SweepBaselineFallsBackToTheFirstPoint) {
  // No serial point ran (1 was clamped or never requested): normalize
  // against the first effective point rather than emitting garbage ratios.
  EXPECT_EQ(sweep_baseline_index({4u, 8u, 16u}), 0u);
  EXPECT_EQ(sweep_baseline_index({2u}), 0u);
  // jobs=0 means "all cores" — it is not serial and earns no preference.
  EXPECT_EQ(sweep_baseline_index({0u, 4u}), 0u);
}

TEST(BenchUtil, SweepBaselineHandlesSingletonSerial) {
  EXPECT_EQ(sweep_baseline_index({1u}), 0u);
}

TEST(BenchUtil, SweepJobsDedupesAfterClampingAndFallsBackToJobs) {
  // Both huge requests clamp to the same 4x-cores cap (>= 4): one run, not
  // two, and the repeated 1 collapses too.
  const char* sweep_argv[] = {"bench", "--sweep=1,2,1,100000,200000"};
  EXPECT_EQ(sweep_jobs(Args(2, sweep_argv)),
            (std::vector<unsigned>{1u, 2u, jobs_from_flag(100000)}));

  const char* jobs_argv[] = {"bench", "--jobs=3"};
  EXPECT_EQ(sweep_jobs(Args(2, jobs_argv)), std::vector<unsigned>{3u});
}

TEST(BenchUtil, JsonReportEmitsTheCertifiedPairUnderStableKeys) {
  // CI greps `certified_price` out of the archived BENCH_*.json files, so the
  // helper's key names are a contract, not a convenience.
  const std::string path = ::testing::TempDir() + "pob_report_certified.json";
  const char* argv[] = {"bench", "--json", path.c_str()};
  const Args args(3, argv);
  JsonReport json;
  json.str("bench", "t").certified(37, 1.5);
  ASSERT_TRUE(json.write(args));
  std::ifstream in(path);
  std::stringstream body;
  body << in.rdbuf();
  EXPECT_EQ(body.str(),
            "{\"bench\": \"t\", \"certified_lower_bound\": 37, "
            "\"certified_price\": 1.500000}\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pob
