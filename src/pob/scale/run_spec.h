// RunSpec: one run of any engine, as plain data.
//
// pobsim and the fuzzer's check::Scenario describe a run as a RunSpec.
// pobsim parses its flags into one, prints it as `# spec: <to_flags>`, and
// builds config, topology, options and stream workload from it with the
// builders below. parse_run_spec(to_flags(s)) == s, so a printed spec
// reruns through pobsim, and a fuzz repro names its run by the same flags.
//
// Seed rule: run i has seed run_seed(spec, i) = trial_seed(spec.seed, i).
// Its overlay draws from Rng(run seed).split(0), a core randomized
// scheduler from Rng(run seed).split(1), and the scale and stream engines
// take the run seed as their engine seed — so one spec walks the same
// overlay on the core and scale engines.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "pob/core/engine.h"
#include "pob/core/scheduler.h"
#include "pob/exp/cli.h"
#include "pob/mech/barter.h"
#include "pob/overlay/builders.h"
#include "pob/scale/engine.h"
#include "pob/scale/stream/stream_engine.h"
#include "pob/scale/topology.h"

namespace pob::scale {

/// --engine: core::Engine (validated; --runs trials in parallel),
/// scale::Engine (--jobs inside one run) or the stream layer over it.
enum class RunEngine : std::uint8_t { kCore, kScale, kStream };

/// --algo: every core schedule.
enum class Algo : std::uint8_t {
  kPipeline, kTree, kBinomialTree, kBinomialPipeline, kMultiServer, kRiffle,
  kRandomized, kCreditRandomized, kRotating, kTitForTat, kStripedTrees,
};

/// --mechanism: the barter rule the core engine enforces on every tick. On
/// the scale engine binomial-pipeline + triangular is §3.3's triangular
/// barter (the binomial schedule with the CyclicBarter(3, credit) ledger
/// live), and credit is the randomized schedules' §3.2 credit limit.
enum class MechanismKind : std::uint8_t { kNone, kStrict, kCredit, kTriangular, kCyclic };

/// The flag spellings; to_string(ArrivalPattern) is batch|poisson|flash|burst.
const char* to_string(RunEngine engine);
const char* to_string(Algo algo);
const char* to_string(MechanismKind mechanism);
const char* to_string(stream::ArrivalPattern arrivals);

/// True for the schedules that sample neighbors from --overlay; every other
/// schedule may pair any two nodes and runs on the complete graph.
bool overlay_bound(Algo algo);

/// One field per run flag, named after it. The member defaults are pobsim's.
struct RunSpec {
  RunEngine engine = RunEngine::kCore;
  Algo algo = Algo::kRandomized;
  OverlayKind overlay = OverlayKind::kComplete;
  std::uint32_t degree = 20;  ///< regular overlay; rotation graph degree
  std::uint32_t arity = 2;    ///< karytree overlay; multicast tree
  MechanismKind mechanism = MechanismKind::kNone;
  std::uint32_t credit = 1;  ///< credit / triangular / cyclic limit
  std::uint32_t cycle_len = 4;
  std::uint32_t n = 64;
  std::uint32_t k = 32;
  std::uint32_t upload = 1;
  std::uint32_t download = kUnlimited;  ///< spelled "unlimited"
  std::uint32_t servers = 0;            ///< server upload (multi-server m)
  Tick cap = 0;
  Tick stall_window = 0;
  double leave_pct = 0.0;  ///< % of clients departing in the first half
  std::uint32_t stripes = 4;
  Tick period = 16;  ///< rotation period
  BlockPolicy policy = BlockPolicy::kRandom;
  std::uint32_t probes = 16;  ///< scale probes per upload slot
  // The stream workload and demand (StreamWorkload, StreamDemand).
  stream::ArrivalPattern arrivals = stream::ArrivalPattern::kAllAtStart;
  std::uint32_t gap16 = 16;
  Tick flash_start = 8;
  std::uint32_t flash_width = 4;
  std::uint32_t flash_pct = 90;
  std::uint32_t burst_size = 64;
  std::uint32_t burst_period = 4;
  std::uint32_t classes = 0;  ///< heterogeneous rate classes
  std::uint32_t churn = 0;    ///< mid-run rate changes
  Tick horizon = 64;
  std::uint32_t window = 0;
  std::uint32_t startup = 4;
  Tick interval = 1;
  bool deadlines = false;
  Tick slack = 2;
  std::uint64_t seed = 1;
  std::uint32_t runs = 1;

  bool operator==(const RunSpec&) const = default;
};

/// The only run-flag parser: each field from its flag, else RunSpec's
/// default. Throws std::invalid_argument on an unknown value, an integer out
/// of range, n < 2, k < 1 or runs < 1 — before anything is allocated.
RunSpec parse_run_spec(const Args& args);

/// The same for a space-separated flag string such as to_flags prints; an
/// unknown flag throws too.
RunSpec parse_run_spec(std::string_view flags);

/// Every field as an explicit flag.
std::string to_flags(const RunSpec& spec);

std::uint64_t run_seed(const RunSpec& spec, std::uint32_t run);

/// The engine config, with the --leave-pct departures drawn from spec.seed.
/// Riffle runs Theorem 3's d = 2u when download is unlimited; multi-server
/// runs m = 2 when --servers is 0.
EngineConfig build_config(const RunSpec& spec);

/// The core mechanism of --mechanism (nullptr for none).
std::unique_ptr<Mechanism> build_mechanism(const RunSpec& spec);

/// A core run's scheduler and the mechanism the engine enforces (nullptr
/// for none). The scheduler may hold a precheck pointer into the mechanism,
/// which is declared first so that it outlives the scheduler.
struct BuiltScheduler {
  std::unique_ptr<Mechanism> mechanism;
  std::unique_ptr<Scheduler> scheduler;
};

/// The core scheduler of --algo for run `seed`, with the capacities (and
/// any per-node capacity vectors) of `cfg`. credit-randomized and rotating
/// precheck the --mechanism they run under (credit-randomized falls back to
/// credit when it is none) and throw for strict; every other algo runs under
/// build_mechanism's instance.
BuiltScheduler build_scheduler(const RunSpec& spec, const EngineConfig& cfg,
                               std::uint64_t seed);

/// Run `seed`'s overlay, for the core engine's overlay-bound schedules.
std::shared_ptr<const Overlay> build_overlay(const RunSpec& spec, std::uint64_t seed);

/// The same graph in CSR form for the scale engine; the complete graph for
/// a schedule that is not overlay-bound.
std::shared_ptr<const Topology> build_topology(const RunSpec& spec, std::uint64_t seed);

/// Throws for an algo or mechanism the scale engine does not run.
ScaleOptions build_scale_options(const RunSpec& spec);

/// The stream layer's spec for run `seed` (--algo=randomized under
/// --mechanism=none or credit).
stream::StreamSpec build_stream_spec(const RunSpec& spec, std::uint64_t seed);

}  // namespace pob::scale
