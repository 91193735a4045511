// Deterministic scenario fuzzing: sample `budget` scenarios as pure
// functions of a base seed, run each through the differential oracle on a
// thread pool, and report failures plus a digest of the whole scenario
// stream. Everything is index-addressed, so the failures, the digest, and
// the order they are reported in are bit-identical at any --jobs value.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pob/check/scenario.h"

namespace pob::check {

struct FuzzFailure {
  std::uint32_t index = 0;
  Scenario scenario;
  std::string diagnosis;
};

struct FuzzReport {
  std::uint32_t budget = 0;
  std::uint32_t failed = 0;
  /// FNV-1a over every scenario's description and outcome, in index order —
  /// two runs with the same (seed, budget) must produce the same digest at
  /// any job count.
  std::uint64_t stream_digest = 0;
  std::vector<FuzzFailure> failures;  ///< capped at 32, lowest indices first
};

/// Runs `budget` scenarios sampled from `base_seed`. `fault` is injected
/// into every scenario (kNone for a clean run). `jobs` as in
/// repeat_trials_parallel: 0 = all cores, results independent of the value.
/// `engine` unset keeps the sampler's natural mix (roughly 1 in 4 scenarios
/// on the scale engine, a third of those on the stream layer); set, it
/// forces every scenario onto that engine for targeted smoke runs. Forcing
/// re-sanitizes, so a scenario sampled for one engine lands in the other's
/// legal space; kStream forces the hybrid tick+event layer (arrivals, rate
/// churn, playback demand) on every draw.
FuzzReport fuzz_many(std::uint64_t base_seed, std::uint32_t budget, unsigned jobs,
                     FaultKind fault = FaultKind::kNone,
                     std::optional<scale::RunEngine> engine = std::nullopt);

/// Greedily shrinks a failing scenario: tries halving/decrementing the node
/// and block counts, dropping churn, heterogeneity, mechanisms, and overlay
/// structure, keeping each mutation only if the scenario still fails. The
/// result is a (locally) minimal repro with the final diagnosis attached.
struct MinimizedScenario {
  Scenario scenario;
  std::string diagnosis;
  std::uint32_t steps_tried = 0;
};

MinimizedScenario minimize(const Scenario& failing);

}  // namespace pob::check
