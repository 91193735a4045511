#include <gtest/gtest.h>

#include "pob/check/corpus.h"
#include "pob/check/fuzzer.h"

namespace pob::check {
namespace {

TEST(SampleScenario, IsAPureFunctionOfSeedAndIndex) {
  for (std::uint32_t i = 0; i < 32; ++i) {
    EXPECT_EQ(sample_scenario(7, i).describe(), sample_scenario(7, i).describe());
  }
  // Different indices explore the space rather than repeating one scenario.
  EXPECT_NE(sample_scenario(7, 0).describe(), sample_scenario(7, 1).describe());
}

TEST(SampleScenario, SanitizeIsIdempotent) {
  for (std::uint32_t i = 0; i < 64; ++i) {
    Scenario sc = sample_scenario(11, i);
    const std::string before = sc.describe();
    sanitize(sc);
    EXPECT_EQ(sc.describe(), before) << "index " << i;
  }
}

TEST(SampleScenario, EverySampledRunIsPinned) {
  // The rendered trace of the first 2000 draws of seed 42: every core
  // schedule, the scale randomized, binomial and riffle runs and the stream
  // layer, header (describe()) and transfers alike. Stream draws with rate
  // classes hash apart, so a change to the class rule moves only that pin.
  std::uint64_t classes = 0xcbf29ce484222325ULL;
  std::uint64_t others = 0xcbf29ce484222325ULL;
  std::uint32_t class_draws = 0;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    const Scenario sc = sample_scenario(42, i);
    const bool with_classes =
        sc.spec.engine == scale::RunEngine::kStream && sc.spec.classes != 0;
    std::uint64_t& h = with_classes ? classes : others;
    class_draws += with_classes ? 1 : 0;
    for (const char c : render_corpus_entry({"x", sc, true})) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
  }
  EXPECT_EQ(class_draws, 12u);
  // Rate class i of N weighs N - i (build_stream_spec's rule).
  EXPECT_EQ(classes, 0xb901afe1540c7499ULL);
  EXPECT_EQ(others, 0xa2ab593f90d3df62ULL);
}

TEST(FuzzMany, CleanRunWithIdenticalStreamAtAnyJobCount) {
  const FuzzReport serial = fuzz_many(7, 60, 1);
  const FuzzReport parallel4 = fuzz_many(7, 60, 4);
  EXPECT_EQ(serial.failed, 0u)
      << (serial.failures.empty() ? "" : serial.failures.front().diagnosis);
  EXPECT_EQ(serial.stream_digest, parallel4.stream_digest);
  EXPECT_EQ(serial.stream_digest, 0xfbdaf73a7f6c7ec8ULL);
  EXPECT_EQ(parallel4.failed, 0u);
  // And reproducible across invocations.
  EXPECT_EQ(fuzz_many(7, 60, 2).stream_digest, serial.stream_digest);
  // A different seed explores a different stream.
  EXPECT_NE(fuzz_many(8, 60, 2).stream_digest, serial.stream_digest);
}

TEST(FuzzMany, InjectedSameTickForwardIsAlwaysCaught) {
  const FuzzReport report = fuzz_many(42, 8, 2, FaultKind::kSameTickForward);
  EXPECT_EQ(report.failed, report.budget);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_EQ(report.failures.front().index, 0u);
  EXPECT_FALSE(report.failures.front().diagnosis.empty());
}

TEST(Minimize, ShrinksAFaultyScenarioToAFewNodes) {
  const FuzzReport report = fuzz_many(42, 1, 1, FaultKind::kSameTickForward);
  ASSERT_EQ(report.failures.size(), 1u);
  const MinimizedScenario min = minimize(report.failures.front().scenario);
  EXPECT_LE(min.scenario.spec.n, 8u);
  EXPECT_LE(min.scenario.spec.k, 4u);
  EXPECT_FALSE(min.diagnosis.empty());
  // The minimized repro still fails, and its gtest emitter mentions the seed.
  EXPECT_FALSE(run_scenario(min.scenario).ok);
  const std::string test_case = min.scenario.to_gtest(min.diagnosis);
  EXPECT_NE(test_case.find("FaultKind::kSameTickForward"), std::string::npos);
  EXPECT_NE(test_case.find("run_scenario"), std::string::npos);
  // Its one flag string parses back to the minimized spec.
  const std::string open = "parse_run_spec(\"";
  const std::size_t from = test_case.find(open);
  ASSERT_NE(from, std::string::npos);
  const std::size_t begin = from + open.size();
  const std::string flags = test_case.substr(begin, test_case.find('"', begin) - begin);
  EXPECT_EQ(scale::parse_run_spec(flags), min.scenario.spec);
}

}  // namespace
}  // namespace pob::check
