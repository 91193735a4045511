// Deterministic scenario space for the fuzzer: a Scenario is plain data
// sampled as a pure function of (base seed, index), buildable into a
// (config, scheduler, mechanism) triple, runnable through the differential
// oracle, and shrinkable by the minimizer. Sampling is legal-by-construction
// — every sampled scenario is one the engines must agree on and complete (or
// honestly stall); any violation or disagreement is a bug.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pob/check/oracle.h"
#include "pob/core/engine.h"
#include "pob/core/scheduler.h"
#include "pob/overlay/builders.h"
#include "pob/overlay/overlay.h"
#include "pob/scale/engine.h"
#include "pob/scale/stream/stream_engine.h"

namespace pob::check {

enum class SchedulerKind : std::uint8_t {
  kPipeline,
  kMulticastTree,
  kBinomialTree,
  kBinomialPipeline,
  kRiffle,
  kStripedTrees,
  kMultiServer,
  kRandomized,
  kCreditRandomized,
  kRotating,
  kTitForTat,
};

enum class FaultKind : std::uint8_t {
  kNone,
  /// Off-by-one forwarding: after the first planned transfer s -> r, append
  /// r forwarding the same block onward in the *same* tick — illegal under
  /// §2.1 ("a node cannot begin transmitting a block until it has received
  /// that block in its entirety"), and exactly the bug class the oracle must
  /// catch.
  kSameTickForward,
};

/// Which engine runs the scenario. kCore is the classic path (scheduler +
/// core::Engine + reference oracle). kScale runs the mega-swarm engine three
/// ways — serial, multi-threaded, and mirrored through core::Engine + the
/// reference oracle via scale::MirrorScheduler — and requires bit-identical
/// results from all of them. Scale scenarios may use node counts well above
/// the core sampler's cap (the SoA engine exists for exactly that).
enum class EngineKind : std::uint8_t { kCore, kScale };

const char* to_string(SchedulerKind kind);
const char* to_string(EngineKind kind);

struct Scenario {
  std::uint64_t seed = 0;  ///< scheduler / overlay randomness
  EngineKind engine = EngineKind::kCore;
  SchedulerKind scheduler = SchedulerKind::kRandomized;
  OverlayKind overlay = OverlayKind::kComplete;
  MechanismSpec mechanism;
  std::uint32_t n = 8;
  std::uint32_t k = 4;
  std::uint32_t upload = 1;
  std::uint32_t download = kUnlimited;  ///< d in {u, 2u, unlimited}
  std::uint32_t server_upload = 0;      ///< 0 = same as upload
  std::uint32_t arity = 2;              ///< multicast tree
  std::uint32_t stripes = 2;            ///< striped trees
  std::uint32_t servers = 2;            ///< multi-server m
  std::uint32_t degree = 6;             ///< regular overlay / rotation
  Tick period = 8;                      ///< rotation period
  std::vector<std::uint32_t> upload_caps;    ///< heterogeneous (randomized only)
  std::vector<std::uint32_t> download_caps;  ///< heterogeneous (randomized only)
  std::vector<std::pair<Tick, NodeId>> departures;
  bool drop_on_churn = false;
  bool depart_on_complete = false;
  FaultKind fault = FaultKind::kNone;

  // --- Stream axis (pob/scale/stream; kScale + kRandomized only) -------
  // A stream scenario runs the hybrid tick+event driver twice (serial and
  // jobs=4) and mirrors it through pob/async; arrivals replace config
  // departures, rate classes replace the static hetero caps.
  bool stream = false;
  scale::stream::ArrivalPattern arrival_pattern =
      scale::stream::ArrivalPattern::kFlashCrowd;
  std::uint32_t rate_class_count = 0;  ///< 0 = uniform capacities
  std::uint32_t rate_changes = 0;      ///< mid-run kRate events (needs classes)
  std::uint32_t playback_window = 0;   ///< 0 = random demand, else window W
  std::uint32_t startup_blocks = 2;
  Tick playback_interval = 1;
  bool hard_deadlines = false;

  EngineConfig to_config() const;
  std::string describe() const;
  /// Ready-to-paste gtest case reproducing this scenario.
  std::string to_gtest(const std::string& diagnosis) const;
};

/// Pure function of (base, index): the same pair always yields the same
/// scenario, at any job count, on any platform.
Scenario sample_scenario(std::uint64_t base_seed, std::uint32_t index);

/// Clamps a (possibly mutated) scenario back into the legal space the
/// sampler guarantees; the minimizer calls this after every shrink step.
void sanitize(Scenario& sc);

/// A built scenario: the config plus live scheduler/mechanism objects. The
/// scheduler may hold a precheck pointer into `mechanism`, so keep both
/// alive together and use each build for exactly one run (schedulers and
/// ledgers are stateful).
struct BuiltScenario {
  EngineConfig config;
  std::shared_ptr<const Overlay> overlay;  // kept alive for the scheduler
  std::unique_ptr<Mechanism> mechanism;    // fast-side instance (may be null)
  std::unique_ptr<Scheduler> scheduler;
};

BuiltScenario build_scenario(const Scenario& sc);

/// Scale-engine builders for a kScale scenario, shared between the fuzzer
/// runner and the golden-corpus renderer: the CSR topology (the same
/// make_overlay_graph draw build_scenario makes, on the same seed-derived
/// rng stream) and the ScaleOptions — including the SchedKind mapping:
/// kBinomialPipeline → binomial-pipeline, kBinomialPipeline + CyclicBarter
/// → triangular-barter, kRiffle → riffle-pipeline, anything else →
/// randomized (credit-limited when the mechanism is CreditLimited).
std::shared_ptr<const scale::Topology> make_scale_topology(const Scenario& sc);
scale::ScaleOptions make_scale_options(const Scenario& sc);

/// The StreamSpec a stream scenario (sc.stream) runs: config + topology +
/// options as above, workload pattern parameters derived from the scenario
/// seed, and the demand model from the playback fields. Shared between the
/// fuzzer runner, the golden-corpus renderer and the repro tests.
scale::stream::StreamSpec make_stream_spec(const Scenario& sc);

struct ScenarioOutcome {
  bool ok = true;
  std::string diagnosis;  ///< first failed check (empty when ok)
};

/// Runs the scenario through the differential oracle and asserts the paper
/// invariants on the fast result: Theorem 1 is never beaten, deterministic
/// schedules hit their closed forms, and no violation occurs at all (the
/// sampler only emits legal scenarios — so with fault injection on, the
/// injected bug surfaces here as a failure).
ScenarioOutcome run_scenario(const Scenario& sc);

}  // namespace pob::check
