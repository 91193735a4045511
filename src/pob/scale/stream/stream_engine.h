// The hybrid tick+event mega-swarm driver: a calendar-queue event core
// (arrivals, rate changes) feeding variable-population ticks through
// scale::Engine::step(), with a DemandTracker folding the delivery stream
// into streaming metrics (startup latency, rebuffer ticks, deadline misses).
//
// Determinism: the whole run is a pure function of (spec) — the workload
// plan is integer-only sampling from the spec seed, events apply in
// (timestamp, node id) order from the CalendarQueue, and the tick itself is
// the engine's sharded pipeline, bit-identical at any --jobs value. The
// small-n mirror (pob/check/stream_check) replays the recorded trace
// through pob/async and recomputes every metric field-for-field.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "pob/core/engine.h"
#include "pob/exp/trace_io.h"
#include "pob/scale/engine.h"
#include "pob/scale/stream/calendar.h"
#include "pob/scale/stream/demand.h"
#include "pob/scale/stream/workload.h"

namespace pob::scale::stream {

/// Everything a stream run is a function of.
struct StreamSpec {
  EngineConfig config;
  std::shared_ptr<const Topology> topology;
  ScaleOptions options;  ///< stream_window is overwritten from demand.window
  StreamWorkload workload;
  StreamDemand demand;
  std::uint64_t seed = 0;
};

class StreamEngine {
 public:
  /// Builds the workload plan, constructs the underlying engine with every
  /// late arrival pre-deactivated and per-class capacities applied, and
  /// loads the calendar. Throws like Engine's constructor plus
  /// std::invalid_argument for a malformed workload/demand.
  explicit StreamEngine(StreamSpec spec);

  /// Drives the swarm to completion (or the tick cap / stall) on `jobs`
  /// workers and returns a RunResult shaped exactly like Engine::run()'s,
  /// plus the streaming-metric fields. The cap extends past the default by
  /// the last arrival tick so a long arrival tail cannot eat the whole
  /// budget; stall detection is suspended while arrivals are still pending
  /// (a quiet pre-spike swarm is expected, not stalled). One-shot.
  RunResult run(unsigned jobs = 1);

  const Engine& engine() const { return *engine_; }
  const WorkloadPlan& plan() const { return plan_; }
  /// Per-node arrival ticks (0 = present from the start).
  const std::vector<Tick>& arrivals() const { return plan_.arrival; }
  std::uint32_t pending_arrivals() const { return pending_arrivals_; }
  /// The plan's late arrivals and rate changes, as a v3 trace preamble.
  TraceEvents trace_events() const;

  /// Engine state + the event calendar + the demand tracker (possession
  /// fold, playback chains, deadline timers).
  std::uint64_t state_bytes() const;

 private:
  StreamSpec spec_;
  WorkloadPlan plan_;
  std::unique_ptr<Engine> engine_;
  CalendarQueue calendar_;
  DemandTracker tracker_;
  std::uint32_t pending_arrivals_ = 0;
  bool ran_ = false;
};

}  // namespace pob::scale::stream
