// Deterministic scenario space for the fuzzer: a Scenario is plain data
// sampled as a pure function of (base seed, index), buildable into a
// (config, scheduler, mechanism) triple, runnable through the differential
// oracle, and shrinkable by the minimizer. Sampling is legal-by-construction
// — every sampled scenario is one the engines must agree on and complete (or
// honestly stall); any violation or disagreement is a bug.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "pob/check/oracle.h"
#include "pob/core/engine.h"
#include "pob/scale/run_spec.h"

namespace pob::check {

enum class FaultKind : std::uint8_t {
  kNone,
  /// Off-by-one forwarding: after the first planned transfer s -> r, append
  /// r forwarding the same block onward in the *same* tick — illegal under
  /// §2.1 ("a node cannot begin transmitting a block until it has received
  /// that block in its entirety"), and exactly the bug class the oracle must
  /// catch.
  kSameTickForward,
};

/// A fuzz run: the RunSpec any driver runs (spec.seed is the run seed) plus
/// the fuzz-only fields that have no flag. spec.engine picks the check:
/// core runs the scheduler through core::Engine and the reference oracle;
/// scale runs the mega-swarm engine three ways — serial, multi-threaded, and
/// mirrored through core::Engine + the reference oracle via
/// scale::MirrorScheduler — and requires bit-identical results from all of
/// them, at node counts well above the core sampler's cap; stream runs the
/// hybrid tick+event driver twice (serial and jobs=4) and mirrors it through
/// pob/async, with arrivals in place of departures and rate classes in place
/// of the cap vectors.
struct Scenario {
  scale::RunSpec spec;
  std::vector<std::uint32_t> upload_caps;    ///< heterogeneous (randomized only)
  std::vector<std::uint32_t> download_caps;  ///< heterogeneous (randomized only)
  std::vector<std::pair<Tick, NodeId>> departures;
  bool drop_on_churn = false;
  bool depart_on_complete = false;
  FaultKind fault = FaultKind::kNone;

  std::string describe() const;
  /// Ready-to-paste gtest case reproducing this scenario: the spec as one
  /// to_flags string, then the fuzz-only fields.
  std::string to_gtest(const std::string& diagnosis) const;
};

/// The reference oracle's independent description of the mechanism the
/// spec's run is checked under.
MechanismSpec mechanism_spec(const scale::RunSpec& spec);

/// Pure function of (base, index): the same pair always yields the same
/// scenario, at any job count, on any platform.
Scenario sample_scenario(std::uint64_t base_seed, std::uint32_t index);

/// Clamps a (possibly mutated) scenario back into the legal space the
/// sampler guarantees, and writes the run knobs the sampler does not draw
/// (policy, probes, stream pattern parameters, horizon, stall window) into
/// the spec as pure functions of spec.seed; the minimizer calls this after
/// every shrink step.
void sanitize(Scenario& sc);

/// A built core scenario: build_config(spec) plus the fuzz-only fields, and
/// the spec's scheduler and mechanism from scale::build_scheduler. Use each
/// build for exactly one run (schedulers and ledgers are stateful).
struct BuiltScenario {
  EngineConfig config;
  scale::BuiltScheduler run;
};

BuiltScenario build_scenario(const Scenario& sc);

/// A scale or stream scenario's engine inputs, shared between the fuzzer
/// runner and the golden-corpus renderer: the config as above; the sampled
/// overlay in CSR form (scale::make_topology on the seed rule's overlay
/// stream, so a scale binomial run keeps its hypercube); build_scale_options
/// with seed-derived shard size and phase timing; and, for a stream
/// scenario, build_stream_spec's workload and demand.
scale::stream::StreamSpec build_scale_scenario(const Scenario& sc);

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
