// Streaming-demand metrics for the stream layer: startup latency, rebuffer
// ticks, and playback-deadline misses, folded over the delivery stream of a
// run. The tracker is deliberately engine-agnostic — it consumes only
// (receiver, block, tick) deliveries plus an end-of-tick hook — so the
// SAME fold runs over a scale::Engine drive (stream_engine.cc) and over a
// pob/async event log (check/stream_check.cc), making the mirror's metric
// comparison field-for-field by construction rather than by reimplementation.

#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "pob/core/engine.h"
#include "pob/core/types.h"
#include "pob/scale/stream/calendar.h"

namespace pob::scale::stream {

/// Playback model parameters. A client "starts" playback the tick its
/// contiguous prefix first reaches `startup_blocks`; from then on block b
/// (b >= startup_blocks) is due `interval` ticks after block b-1 played.
/// A block arriving after its due tick stalls playback (rebuffering) until
/// it arrives.
struct StreamDemand {
  /// 0 = random demand (classic rarest/random pick). Nonzero W = sequential
  /// demand: the engine picks in-order within a sliding window of W blocks
  /// past the contiguous prefix (ScaleOptions::stream_window).
  std::uint32_t window = 0;

  /// Contiguous blocks buffered before playback starts (clamped to [1, k]).
  std::uint32_t startup_blocks = 4;

  /// Playback ticks consumed per block.
  Tick interval = 1;

  /// Hard per-block deadlines: block b must be present by
  /// startup + (b - startup_blocks + 1) * interval + deadline_slack.
  /// Each started client gets one coalescing timer that walks its blocks in
  /// order (<= k fires per client); only deadlines the run actually reached
  /// count toward deadline_checks.
  bool deadlines = false;
  Tick deadline_slack = 2;
};

/// Folds deliveries into per-client streaming metrics. Owns its own packed
/// possession bitset (it cannot peek at engine internals — the async mirror
/// has no engine), a per-client contiguous-prefix cursor, the playback
/// chain, and a CalendarQueue of deadline timers.
///
/// Call discipline: for each tick t in increasing order, feed every delivery
/// of tick t via on_delivery(), then call end_tick(t) once; finally call
/// finalize() exactly once. All methods are serial — metric folding is O(k)
/// total per client and never worth parallelising.
class DemandTracker {
 public:
  /// `arrival[c]` is client c's arrival tick (0 = present from the start);
  /// pass an empty span when every node is present from tick 0.
  DemandTracker(const StreamDemand& demand, std::uint32_t num_nodes,
                std::uint32_t num_blocks, std::span<const Tick> arrival);

  void on_delivery(NodeId to, BlockId block, Tick t);

  /// Fires deadline timers due at tick t. Must be called with strictly
  /// increasing t after all of tick t's deliveries.
  void end_tick(Tick t);

  /// Writes startup_latency (NaN for never-started clients — the censored
  /// convention), rebuffer_ticks, deadline counters, never_started and
  /// rebuffered_clients into `result`. `last_tick` is the final simulated
  /// tick: a started, incomplete client whose next block was due before
  /// last_tick accrues the tail stall (last_tick - due).
  void finalize(Tick last_tick, RunResult& result);

  std::uint32_t prefix(NodeId node) const { return next_block_[node]; }
  bool started(NodeId node) const { return start_[node] != kNever; }

  std::uint64_t memory_bytes() const;

 private:
  static constexpr Tick kNever = std::numeric_limits<Tick>::max();

  void begin_playback(NodeId c, Tick t);
  void consume_prefix(NodeId c, Tick t);
  void credit_remaining_deadlines(NodeId c);

  StreamDemand demand_;
  std::uint32_t n_;
  std::uint32_t k_;
  std::uint32_t startup_;  // demand_.startup_blocks clamped to [1, k]
  std::size_t stride_;     // words per possession row

  std::vector<std::uint64_t> have_;     // n_ * stride_ packed possession bits
  std::vector<std::uint32_t> next_block_;  // contiguous prefix length
  std::vector<Tick> arrival_;
  std::vector<Tick> start_;             // playback start tick, kNever = not yet
  std::vector<std::uint32_t> next_play_;   // next block the playhead consumes
  std::vector<Tick> next_due_;          // tick next_play_ is needed by
  std::vector<Count> rebuffer_;
  std::vector<BlockId> dl_block_;       // next unevaluated deadline, kNoBlock = done
  CalendarQueue deadlines_;

  Count deadline_misses_ = 0;
  Count deadline_checks_ = 0;
};

/// The startup-latency distribution over the clients that started playback
/// (the censored NaN entries are excluded; RunResult counts them apart).
struct StartupStats {
  std::uint64_t started = 0;
  double mean = 0.0, p50 = 0.0, p95 = 0.0, max = 0.0;
};

StartupStats startup_stats(const RunResult& result);

/// A stream run's viewer metrics on one line: the startup distribution,
/// rebuffering and deadline misses.
std::string describe_viewer_metrics(const RunResult& result);

}  // namespace pob::scale::stream
