// Theorem 3's riffle pipeline as a scale intent generator: strict bilateral
// barter reaching Theorem 2's T = n + k - 2 lower bound.
//
// Core's RifflePipelineScheduler materializes every meeting (O(n^2 k / p)
// of them) and runs a greedy legalizer — fine at n <= 10^4, hopeless at
// 10^6. The observation that makes a million-node port cheap: the recursive
// riffle construction only ever produces one shape, a CYCLE RUN — a
// contiguous client range [client0, client0 + p) playing `cycles`
// consecutive riffle cycles over a contiguous block range starting at
// block0 from tick t0 + 1. The whole schedule is a short list of such
// Segments (O(n / k + log) of them, built once from (n, k) by mirroring the
// recursion), and any tick's transfer set is recovered by pure arithmetic:
//
//   handoff   server -> client0 + (c mod p), block0 + c, at t0 + c + 1,
//             for c in [0, cycles * p)
//   barter    cycle g is active at relative tick rel = tick - t0 iff
//             c' = rel - g*p - 2 lies in [1, 2p - 3]; the meetings are the
//             pairs i < j with i + j = c', swapping (block0 + g*p + i) for
//             (block0 + g*p + j) — at most two cycles of a segment overlap
//             any tick, so emission is O(transfers), not O(schedule).
//
// At u = 1, d >= 2 the desired schedule is already legal — consecutive
// cycles' barter partners shift by p (never two barters on one client in a
// tick), a handoff landing on a bartering client is exactly the d = 2 case,
// and the recursion's server windows are time-disjoint — so core's
// legalizer is a no-op on it and the per-tick sets here equal core's
// legalized schedule (the fuzzer's mirror arm checks precisely that). The
// engine therefore requires download capacity >= 2 for this scheduler; the
// merge admits every intent verbatim.
//
// begin_tick only advances the segment cursor; generate() writes the tick
// as one slice straight into the engine's buffer in ascending sender order,
// with no sort (see emit_barters). Live segments can share clients (a
// full-cycle segment's tail overlaps its remainder subgroups); their runs
// merge through scratch reserved at construction, so no later tick allocates.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "pob/scale/engine.h"
#include "pob/scale/scheduler.h"

namespace pob::scale {

class RiffleScheduler final : public ScaleScheduler {
 public:
  explicit RiffleScheduler(const Engine& engine);

  bool begin_tick(Tick tick) override;
  void generate(Tick tick, std::uint32_t shard, NodeId first, NodeId last,
                std::vector<Transfer>& out) override;

  const char* name() const override { return "riffle-pipeline"; }
  std::uint64_t memory_bytes() const override;

  /// The schedule's last transfer tick — n + k - 2 whenever (n - 1) | k or
  /// k < n - 1 divides evenly down the recursion; always >= n + k - 2
  /// (Theorem 2). Exposed for tests and the bench table.
  Tick last_tick() const { return last_tick_; }

 private:
  // One cycle run; see the header comment. `end` is the segment's last
  // transfer tick, precomputed so begin_tick retires segments in O(1).
  struct Segment {
    Tick t0;
    Tick end;
    NodeId client0;
    std::uint32_t p;
    BlockId block0;
    std::uint32_t cycles;
  };

  /// Mirrors core's emit(): contiguous clients [client0, client0 + p) x
  /// blocks [block0, block0 + kk), first transfer after t0. Appends
  /// segments in nondecreasing t0.
  void build(NodeId client0, std::uint32_t p, BlockId block0, std::uint32_t kk,
             Tick t0);
  void emit_barters(const Segment& seg, Tick tick, std::vector<Transfer>& out) const;

  NodeId n_;
  std::vector<Segment> segments_;
  Tick last_tick_ = 0;

  // Per-tick state: a monotone cursor into segments_, the live segments, and
  // the merge scratch (each live segment's run [cursor, end) in merge_buf_).
  std::size_t next_segment_ = 0;
  std::vector<Segment> active_;
  std::vector<std::pair<std::size_t, std::size_t>> runs_;
  std::vector<Transfer> merge_buf_;
  std::size_t tick_bound_ = 0;  // most intents any tick emits
  Tick begun_tick_ = 0;
};

}  // namespace pob::scale
