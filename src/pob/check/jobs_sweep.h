// One run of a RunSpec at several job counts: the sweep behind
// `pobsim --engine=scale|stream [--sweep=1,2,4]`, where a plain run is a
// one-point sweep at --jobs.
//
// The run's topology (on the stream engine its whole StreamSpec) is built
// once and shared by every point; each point builds a fresh engine, times
// its construction apart from its run, and records the run's digest and
// final credit-ledger size. Every point must reproduce one transfer
// stream, so the sweep is also a determinism check (print_digests).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pob/core/engine.h"
#include "pob/exp/report.h"
#include "pob/exp/trace_io.h"
#include "pob/scale/run_spec.h"

namespace pob::check {

/// One point of a jobs sweep: a fresh engine for the run on `jobs` workers.
struct SweepPoint {
  unsigned jobs = 1;
  RunResult result;
  TraceEvents events;  ///< a stream run's arrivals and rate changes, when traced
  double build_seconds = 0.0;
  double run_seconds = 0.0;
  double node_ticks_per_sec = 0.0;
  double transfers_per_sec = 0.0;
  scale::PhaseTimings phases;         ///< the scale engine's; zeros on stream
  std::uint64_t state_bytes = 0;      ///< sampled before run()
  std::uint64_t state_bytes_end = 0;  ///< and after it: ledger and tick scratch grow
  std::uint64_t ledger_pairs = 0;     ///< nonzero credit pairs after the run
  std::uint64_t digest = 0;
};

struct JobsSweep {
  std::shared_ptr<const scale::Topology> topology;  ///< shared by every point
  double topology_seconds = 0.0;  ///< its build time (stream: the StreamSpec's)
  std::vector<SweepPoint> points;  ///< one per job count, in the order given
};

/// Runs run `run` of `spec` (--engine=scale or stream) once per entry of
/// `jobs` (0 = all cores), recording each point's trace when
/// `record_trace`. Throws like the RunSpec builders for a spec the engine
/// cannot run.
JobsSweep run_sweep(const scale::RunSpec& spec, std::uint32_t run,
                    const std::vector<unsigned>& jobs, bool record_trace);

/// Wall-clock speedup of `p` over `baseline`; 0 when either took no time.
double speedup(const SweepPoint& baseline, const SweepPoint& p);

/// The points' job counts, comma-separated: "1,2,4".
std::string jobs_list(const std::vector<SweepPoint>& points);

/// Prints `# digest <hex>` when every point gives one digest and one
/// ledger size, else one `# digest <hex> ledger <pairs> (jobs=J)` line per
/// point; returns whether they agree.
bool print_digests(const std::vector<SweepPoint>& points);

/// A multi-point sweep's trajectory, one flat field group per job count so
/// the JSON scraper stays trivial: *_j<jobs> suffixes, speedup vs
/// `baseline` (the serial point, or the first one when jobs=1 was clamped
/// or deduped away — speedup_baseline_jobs records which). `phases` adds
/// the scale engine's generate / merge / apply seconds.
void add_sweep_fields(JsonReport& json, const std::vector<SweepPoint>& points,
                      const SweepPoint& baseline, bool phases);

}  // namespace pob::check
