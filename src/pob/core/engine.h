// Synchronous tick engine.
//
// Implements the paper's bandwidth and data-transfer model (§2.1): per tick,
// each node uploads at most `upload_capacity` blocks and downloads at most
// `download_capacity` blocks; a block can only be forwarded starting the tick
// after it was fully received; a transfer's sender must hold the block and
// its receiver must lack it. Any violation by a scheduler is a bug and makes
// the engine throw EngineViolation — algorithms ship with machine-checked
// model compliance.

#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "pob/core/mechanism.h"
#include "pob/core/scheduler.h"
#include "pob/core/swarm_state.h"
#include "pob/core/types.h"

namespace pob {

/// Thrown when a scheduler plans a transfer that violates the bandwidth /
/// data-transfer model or the active incentive mechanism.
class EngineViolation : public std::runtime_error {
 public:
  explicit EngineViolation(const std::string& what) : std::runtime_error(what) {}
};

struct EngineConfig {
  std::uint32_t num_nodes = 0;   ///< total nodes, server included (>= 2)
  std::uint32_t num_blocks = 0;  ///< file size in blocks (>= 1)

  /// Client upload capacity in blocks/tick (paper: 1).
  std::uint32_t upload_capacity = 1;

  /// Download capacity in blocks/tick; kUnlimited models d = infinity. The
  /// paper requires d >= u and notes cooperative results are insensitive to
  /// d, while the barter bounds (Theorems 2-3) depend on it.
  std::uint32_t download_capacity = kUnlimited;

  /// Server upload capacity; 0 means "same as upload_capacity". §2.3.4's
  /// higher-server-bandwidth variant sets this to m * upload_capacity.
  std::uint32_t server_upload_capacity = 0;

  /// Per-node capacity overrides (heterogeneous bandwidths, §2.3.4's
  /// asynchrony discussion). When non-empty, must have num_nodes entries
  /// and takes precedence over the scalar fields above (including
  /// server_upload_capacity).
  std::vector<std::uint32_t> upload_capacities;
  std::vector<std::uint32_t> download_capacities;

  /// Churn injection: node `second` departs at the START of tick `first`
  /// (it can neither send nor receive from that tick on, its replicas stop
  /// counting, and it no longer needs to complete). The server cannot
  /// depart.
  std::vector<std::pair<Tick, NodeId>> departures;

  /// Selfish-leecher mode: every client departs the tick after it completes
  /// (it grabs the file and leaves, contributing nothing further) — the
  /// regime where upload incentives matter most. The server stays.
  bool depart_on_complete = false;

  /// Lossy churn mode: when true, transfers touching a departed node are
  /// dropped (broken connections) and counted in RunResult::
  /// dropped_transfers, and so are the downstream casualties of rigid
  /// schedules — sends of blocks whose delivery was severed by a departure,
  /// and re-delivery attempts of such blocks. Model violations between two
  /// active nodes with no departed node in the causal chain still throw, as
  /// do capacity violations: those are genuine scheduler bugs, and churn
  /// must not mask them. This is what lets the binomial pipeline run under
  /// churn and simply lose the affected flows — the §2.4 robustness story.
  bool drop_transfers_involving_inactive = false;

  /// Hard tick cap; 0 selects a generous default that any terminating
  /// algorithm in this codebase stays far below. Runs that hit the cap
  /// return completed = false (used to censor the "off the charts" region
  /// of Figures 6-7).
  Tick max_ticks = 0;

  /// Record the full transfer log (memory-heavy; for tests/diagnostics).
  bool record_trace = false;

  /// Stall detection: when nonzero, a run whose total transfers over the
  /// last `stall_window` ticks fall below `stall_utilization` of the
  /// available upload slots is declared stalled and censored (completed =
  /// false, stalled = true). The credit-starved regimes of Figures 6-7
  /// creep along on server bandwidth alone (~1/n utilization); this cuts
  /// those runs off in O(window) instead of the full tick cap.
  Tick stall_window = 0;
  double stall_utilization = 0.02;

  /// Node `node`'s upload capacity: its upload_capacities entry when that
  /// vector is set, else server_upload_capacity (0 = upload_capacity) for
  /// the server and upload_capacity for a client.
  std::uint32_t upload_cap(NodeId node) const {
    if (!upload_capacities.empty()) return upload_capacities[node];
    if (node == kServer && server_upload_capacity != 0) return server_upload_capacity;
    return upload_capacity;
  }
  std::uint32_t download_cap(NodeId node) const {
    return download_capacities.empty() ? download_capacity : download_capacities[node];
  }
};

struct RunResult {
  bool completed = false;       ///< all clients complete within the cap
  bool stalled = false;         ///< cut off by stall detection
  Tick completion_tick = 0;     ///< paper's T (valid when completed)
  Tick ticks_executed = 0;      ///< ticks actually simulated
  Count total_transfers = 0;

  /// Transfers discarded under drop_transfers_involving_inactive: broken
  /// connections plus their downstream casualties. Always 0 outside lossy
  /// churn mode.
  Count dropped_transfers = 0;
  std::uint32_t departed = 0;              ///< nodes that left (churn runs)
  std::vector<Tick> client_completion;     ///< per client (index 0 = node 1)
  /// Per-node upload totals (fairness accounting). 64-bit: one node's
  /// uploads are bounded by ticks * capacity, which overflows 32 bits on
  /// long runs well before it overflows these.
  std::vector<Count> uploads_per_node;
  std::vector<Count> uploads_per_tick;  ///< utilization trace

  /// Upload slots actually available in each executed tick (departed nodes'
  /// capacity excluded). Parallel to uploads_per_tick; filled by the engine,
  /// may be empty for hand-built results (utilization then falls back to the
  /// static config capacity). 64-bit: the slot sum is n * capacity, which a
  /// mega-swarm with heterogeneous capacities pushes past 2^32.
  std::vector<Count> active_slots_per_tick;
  std::vector<std::vector<Transfer>> trace;     ///< per tick, if recorded

  // --- Streaming-demand metrics (pob/scale/stream) ----------------------
  // Filled only by streaming drives; empty / zero for plain runs, so plain
  // results (and their digests) are unaffected by these fields existing.

  /// Per client (index 0 = node 1): ticks from the client's arrival until
  /// its playback prefix first reached startup_blocks. NaN = never started
  /// (the censored-client convention client_completion uses tick 0 for).
  std::vector<double> startup_latency;

  /// Per client: ticks the playback cursor spent paused after startup
  /// because the next in-order block had not arrived yet.
  std::vector<Count> rebuffer_ticks;

  Count deadline_misses = 0;  ///< playback deadlines that fired unmet
  Count deadline_checks = 0;  ///< playback deadlines evaluated in total

  /// Clients that never reached startup before the run was cut off
  /// (startup_latency NaN) vs clients that started but paused at least
  /// once. Disjoint by construction: a never-started client has no playback
  /// cursor to pause, so it accrues no rebuffer ticks.
  std::uint32_t never_started = 0;
  std::uint32_t rebuffered_clients = 0;

  /// Mean client completion tick ("average time for nodes to finish",
  /// §3.2.4 remarks on it being less dramatic than the maximum).
  double mean_client_completion() const;

  /// deadline_misses / deadline_checks (0 when no deadlines were checked).
  double deadline_miss_fraction() const;

  /// Sum of rebuffer_ticks over all clients.
  Count total_rebuffer_ticks() const;

  /// Fraction of upload slots used in tick t (1-based). Uses the recorded
  /// per-tick active capacity when available, so departures shrink the
  /// denominator; falls back to the static capacities in `cfg`.
  double utilization(Tick t, const EngineConfig& cfg) const;
};

/// The run frame's per-tick bookkeeping, shared by the core, scale and
/// stream engines: the utilization trace, the optional transfer trace and
/// the stall window. One record per run (per run() call on the resumable
/// scale engine).
class TickRecord {
 public:
  explicit TickRecord(const EngineConfig& config);

  /// Records one executed tick. Ticks with `counts_for_stall` enter the
  /// stall window (the stream engine counts only ticks after its last
  /// arrival); returns true, and marks the result stalled, once the last
  /// stall_window counted ticks used less than stall_utilization of their
  /// active upload slots.
  bool record(std::span<const Transfer> accepted, Count active_slots,
              bool counts_for_stall);

  /// The run's result with its end state filled in; completion_tick is the
  /// latest client completion when `completed`.
  RunResult finish(Tick ticks_executed, bool completed, std::uint32_t departed,
                   std::vector<Tick> client_completion,
                   std::vector<Count> uploads_per_node);

 private:
  RunResult result_;
  bool record_trace_;
  Tick window_;
  double utilization_;
  /// The last window_ counted ticks' (transfers, active slots); once full,
  /// the oldest entry sits at ring_next_.
  std::vector<std::pair<Count, Count>> ring_;
  std::size_t ring_next_ = 0;
  Count window_sum_ = 0;
  Count window_slots_sum_ = 0;
};

/// Rejects a config outside the §2.1 model or the representable limits:
/// std::invalid_argument for n < 2, k < 1, u < 1 or d < 1, EngineViolation
/// (one distinct message per rule) for a k whose possession-row word count
/// wraps 32 bits, mis-sized capacity vectors, departures naming the server
/// or an out-of-range node, and a client with d < max(u, 1). Every engine
/// runs this first and then adds only its own checks.
void validate_config(const EngineConfig& config);

/// Runs `scheduler` under `config` until all clients are complete or the
/// tick cap is reached. If `mechanism` is non-null every tick is validated
/// against it (and committed to it). The final swarm state is discarded;
/// use run_with_state to keep it.
RunResult run(const EngineConfig& config, Scheduler& scheduler,
              Mechanism* mechanism = nullptr);

/// As run(), but executes against a caller-provided state (must be freshly
/// constructed with matching dimensions) so callers can inspect final
/// possession.
RunResult run_with_state(const EngineConfig& config, Scheduler& scheduler,
                         Mechanism* mechanism, SwarmState& state);

/// The default tick cap used when EngineConfig::max_ticks == 0.
Tick default_tick_cap(std::uint32_t num_nodes, std::uint32_t num_blocks);

}  // namespace pob
