// The scheduler side of the scale tick: a ScaleScheduler turns (tick, sender
// range) into intents, and the engine's merge/apply pipeline does the rest.
//
// The contract that keeps the whole engine bit-identical at any --jobs:
//
//   * begin_tick(t) runs serially, once, before any generate() call of tick
//     t — the place to advance per-tick state (the riffle moves its segment
//     cursor here). It must be a pure function of (engine state, tick),
//     never of the job count. Ticks strictly increase from 1 (the engine
//     rejects anything else), so a cursor never needs to rewind. It returns
//     true iff the tick is generated as one slice on the calling thread: the
//     engine then makes ONE call, generate(t, 0, 0, n, out), and the merge
//     walks that single shard — for a tick of a few hundred arithmetic
//     intents, the pool or per-shard slices (ScaleOptions::shard_nodes)
//     would cost more than the emission. The answer changes only where the
//     work runs and how the stream is split, never an intent.
//   * generate(t, shard, first, last, out) appends every intent of tick t
//     whose SENDER lies in [first, last), in ascending sender order, to
//     `out`. On a tick begin_tick did not claim as one slice, the calls
//     cover the intent shards [s * shard_nodes, (s + 1) * shard_nodes) and
//     may run concurrently on the thread pool; a shard's intents must not
//     depend on which thread runs it or on whether other shards ran first.
//     Concatenating the shards in ascending shard order yields the canonical
//     (sender-ordered) intent stream the merge admits against.
//   * the merge phase enforces only RECEIVER-side constraints (download
//     capacity, one delivery per (receiver, block)). Upload capacity and any
//     mechanism constraint are the scheduler's contract: randomized
//     generation prechecks the §3.2 credit predicate per probe; the
//     deterministic schedules are legal by construction, so every intent
//     they emit is admitted verbatim.
//
// Deterministic emission is what makes porting the paper's closed-form
// algorithms cheap: merge and apply do not change at all, and the
// MirrorScheduler/oracle stack validates any intent stream the same way.

#pragma once

#include <cstdint>
#include <vector>

#include "pob/core/types.h"

namespace pob::scale {

/// Which intent generator drives the tick. The engine rejects configurations
/// a deterministic schedule cannot serve (non-power-of-two n, missing
/// hypercube edges, d < 2 for the riffle) with a distinct EngineViolation —
/// see the constructor — instead of emitting garbage intents.
enum class SchedKind : std::uint8_t {
  /// §2.4 randomized cooperative probing (credit-limited when
  /// ScaleOptions::credit_limit > 0) — the historical scale protocol.
  kRandomized = 0,
  /// Theorem 1's binomial pipeline: pure index arithmetic on the hypercube,
  /// optimal cooperative T = k - 1 + log2 n at power-of-two n.
  kBinomialPipeline = 1,
  /// Theorem 3's riffle pipeline: strict bilateral barter, T = k + n - 2 in
  /// its clean regimes (matching Theorem 2's lower bound).
  kRifflePipeline = 2,
  /// §3.3 triangular barter: the binomial-pipeline schedule run with the
  /// pairwise ledger live (credit_limit >= 1). The schedule satisfies
  /// CyclicBarter(3, 1), so relaxing barter to 3-cycles already recovers the
  /// optimal cooperative time — the paper's "price of triangular barter = 1".
  kTriangularBarter = 3,
};

inline const char* sched_kind_name(SchedKind kind) {
  switch (kind) {
    case SchedKind::kBinomialPipeline: return "binomial-pipeline";
    case SchedKind::kRifflePipeline: return "riffle-pipeline";
    case SchedKind::kTriangularBarter: return "triangular-barter";
    case SchedKind::kRandomized: break;
  }
  return "randomized";
}

class ScaleScheduler {
 public:
  virtual ~ScaleScheduler() = default;

  /// Serial per-tick hook; see the contract above. Returns true iff the
  /// tick is generated as one slice on the calling thread, i.e. the next
  /// generate() call spans every sender. Default: sharded calls do the work.
  virtual bool begin_tick(Tick /*tick*/) { return false; }

  /// Appends tick `tick`'s intents with sender in [first, last) to `out`,
  /// ascending by sender. `shard` is the intent-shard index (shard-owned
  /// scratch lives behind it); shards partition [0, n) contiguously — one
  /// shard, [0, n), on a one-slice tick.
  virtual void generate(Tick tick, std::uint32_t shard, NodeId first,
                        NodeId last, std::vector<Transfer>& out) = 0;

  virtual const char* name() const = 0;

  /// Scratch + schedule memory owned by the scheduler, for state_bytes().
  virtual std::uint64_t memory_bytes() const { return 0; }
};

}  // namespace pob::scale
