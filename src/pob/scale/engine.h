// The mega-swarm engine: a structure-of-arrays reimplementation of the
// randomized cooperative protocol (§2.4) and its credit-limited barter
// variant (§3.2) designed for swarms of 10^6 nodes and beyond.
//
// Where core::Engine is general (any Scheduler, any Mechanism, machine-
// checked validation of every tick), scale::Engine fuses one protocol
// family into the engine itself and trades generality for density:
//
//   * possession is one contiguous arena of packed uint64 bitset rows
//     (n * ceil(k/64) words), not n separate BlockSet allocations;
//   * neighbor adjacency is CSR (scale::Topology), not a virtual Overlay;
//   * each tick runs in three phases — INTENT GENERATION sharded by sender
//     range, a MERGE sharded by receiver range, and an APPLY sharded by
//     receiver (state commit) and sender (upload accounting and the credit
//     ledger) — all three on the pob/exp ThreadPool. The transfer stream
//     and the final RunResult are bit-identical at any --jobs value:
//     intents are a pure function of (seed, tick, node) via
//     trial_seed-derived per-node RNG streams, every merge constraint is
//     per-receiver (so receiver shards decide independently, each walking
//     its receivers' intents in canonical node order), and the accepted
//     stream is reconstructed from per-intent accept flags in the exact
//     order the old serial merge emitted. Shard counts are pure functions
//     of n, never of the worker count. Sender shards are FINE (256 nodes
//     by default, ScaleOptions::shard_nodes) so the pool can balance a
//     generate phase whose work sits in a few hot node ranges — a stream
//     swarm's live senders are its recent arrivals. A tick the scheduler
//     materializes up front is generated as one slice and merged from that
//     one shard, so its fixed cost does not grow with the shard count.
//
// The generate phase — the single-core ceiling at n = 10^6, where endgame
// ticks make almost every probe useless — is accelerated three ways, none
// of which may change a single emitted intent:
//
//   * a HIERARCHICAL SUMMARY per node (one bit per 64-block possession
//     word, tail bits masked): `summary_has` marks words holding at least
//     one block, `summary_missing` marks words still missing at least one.
//     A probe u -> v can only be useful where summary_has(u) AND
//     summary_missing(v) is nonzero, so near-complete receivers and empty
//     chunks reject probes in O(ceil(k/4096)) words without touching the
//     possession rows. Both summaries are maintained in the apply commit.
//   * a WORD-DIFF scan that records only the nonzero words of su \ sv and
//     their popcounts, in ascending word order — so block selection
//     consumes the identical RNG draw sequence as the historical scan. It
//     is a one-word loop over the rows or, when few summary chunks are in
//     play, a walk over just those chunks' words (ScanKernel::kScalar
//     forces the loop).
//   * PROBE-OUTCOME CACHES, one per sender shard, keyed on (u, v) and both
//     endpoints' possession versions: a failed probe whose endpoints have
//     not gained blocks since is rejected O(1) without rescanning. The
//     version IS the per-node delivered-block count — both bump exactly
//     once per delivery and nothing else changes possession, so count_
//     doubles as the version array. On top of that sits a whole-node skip:
//     when a deterministic sweep of u's neighborhood finds no viable target
//     at all, u is marked sated until its own possession version changes.
//     That is sound because every viability predicate is monotone while u's
//     row is frozen — receivers only gain blocks (su \ sv shrinks),
//     departures and completions only remove targets, and a §3.2 credit
//     that blocks u -> v can only clear via a v -> u delivery, which bumps
//     u's version. A sated node emits nothing and would emit nothing, so
//     skipping its RNG stream entirely is bit-identical (per-node streams
//     are derived per tick and unused elsewhere).
//
// Because the saturated midgame (every probe useful) is latency-bound, the
// engine also fights the memory system directly: the summary/cache checks
// are gated behind a cheap expected-diff-size test so dense pairs skip
// straight to the scan; each sender shard generates in small windows that
// software-prefetch the first probe target's metadata and row one window
// ahead; and the big arenas are madvise(MADV_HUGEPAGE)d so random row
// accesses stop paying 4 KiB TLB walks. None of this consumes RNG draws or
// changes a comparison outcome, so the intent stream is untouched.
//
// The engine emits only legal transfers by construction; it is NOT trusted
// on its own. scale::MirrorScheduler replays the exact same plan/apply
// semantics through core::Engine and the pob/check reference oracle, and
// the scenario fuzzer cross-checks all three on overlapping n (see
// pob/check/scenario.h, RunEngine::kScale).

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "pob/core/engine.h"
#include "pob/core/rng.h"
#include "pob/core/types.h"
#include "pob/exp/parallel.h"
#include "pob/mech/barter.h"
#include "pob/rand/randomized.h"
#include "pob/scale/scheduler.h"
#include "pob/scale/topology.h"

namespace pob::scale {

/// How the generate phase scans su \ sv. kAuto may take the summary-guided
/// sparse walk when few chunks are in play and the one-word linear sweep
/// otherwise; kScalar is the reference: the linear sweep only, never the
/// guided walk. Both record identical ascending-word diffs, so every digest
/// is bit-identical either way (ScaleEngine.BlockCountEdges pins it at rows
/// wide enough for the guided walk to run).
enum class ScanKernel : std::uint8_t { kAuto = 0, kScalar = 1 };

/// "guided" for kAuto, "scalar" for kScalar.
const char* scan_kernel_name(ScanKernel kernel);

struct ScaleOptions {
  /// Block selection within u \ v: uniform random or globally rarest first
  /// (§2.4 / §3.2.4's "perfect statistics").
  BlockPolicy policy = BlockPolicy::kRandom;

  /// Neighbor probes per upload slot before the node gives up for the tick.
  /// The practical handshake protocol: no exhaustive fallback scan — at
  /// n = 10^6 an O(degree) scan per idle node would dominate the tick.
  std::uint32_t max_probes = 16;

  /// 0 = cooperative (no constraint); >= 1 enables the §3.2 credit-limited
  /// barter predicate: client u uploads to client v only while the pairwise
  /// net (pre-tick ledger) stays below the limit. The emitted stream always
  /// satisfies CreditLimited::check_tick.
  ///
  /// Under kTriangularBarter the limit must be >= 1: the deterministic
  /// schedule never consults the ledger (it is CyclicBarter(3, 1)-compliant
  /// by construction), but the engine keeps it live so mirrors and tests can
  /// audit the stream under the §3.3 mechanism.
  std::uint32_t credit_limit = 0;

  /// Which ScaleScheduler generates intents; see SchedKind (scheduler.h).
  /// The deterministic kinds place hard requirements on the config —
  /// power-of-two n, uniform unit upload capacity, no churn, and per-kind
  /// topology/capacity/credit rules — each rejected with a distinct
  /// EngineViolation at construction.
  SchedKind scheduler = SchedKind::kRandomized;

  /// Nodes per intent shard in the parallel generation phase. Shard count
  /// is a pure function of n (never of the job count), so chunk assignment
  /// cannot leak into results. The default comes from a same-session
  /// perfbench sweep of {4096, 1024, 512, 256} at jobs 4 (EXPERIMENTS.md
  /// E32): swarm-random run_s 2.54 / 2.27 / 1.64 / 1.62 s, stream-vod
  /// 3.09 / 2.24 / 2.33 / 2.03 s, barter-det 1.16 / 1.13 / 0.95 / 0.97 s.
  /// Fine shards let the pool balance a generate phase whose work sits in a
  /// few node ranges; serially they cost swarm-random's generate about 6%.
  /// A materialized tick ignores the width (scheduler.h). Tests and the
  /// fuzzer set odd widths to put shard boundaries mid-swarm.
  std::uint32_t shard_nodes = 256;

  /// Accumulate per-phase wall-clock (generate / merge / apply) across the
  /// ticks of one run() call, readable via phase_timings(). Off by default:
  /// the two clock reads per phase are cheap but pure overhead for fuzzing
  /// and tests.
  bool collect_phase_timings = false;

  /// Word-diff scan selection; see ScanKernel. Results are identical
  /// either way — kScalar exists so tests can prove exactly that.
  ScanKernel scan_kernel = ScanKernel::kAuto;

  /// 0 = the paper's random block demand. >= 1 enables SEQUENTIAL demand
  /// with a sliding playback window (the pob/scale/stream VoD mode): a
  /// probe u -> v is viable only if the lowest block of su \ sv lies inside
  /// v's window [first_missing(v), first_missing(v) + stream_window), and
  /// the pick is always that lowest block (in-order priority, no RNG draw —
  /// the draw sequence differs from random mode by design; within one mode
  /// the stream stays bit-identical at any job count). Because a receiver's
  /// window advances when its prefix grows, a previously useless sender can
  /// become useful without the SENDER's version changing — so the sated-
  /// node skip is disabled in this mode (the probe cache stays sound: its
  /// entries are keyed on both endpoints' versions, and the window bound is
  /// a pure function of the receiver's row). Randomized schedulers only.
  std::uint32_t stream_window = 0;
};

/// Wall-clock seconds accumulated per tick phase (see
/// ScaleOptions::collect_phase_timings); all zero when collection is off.
/// run() resets the accumulators on entry, so each call reports only its
/// own ticks; a lockstep drive accumulates across all its plan/apply calls.
struct PhaseTimings {
  double generate_seconds = 0.0;
  double merge_seconds = 0.0;
  double apply_seconds = 0.0;
};

class Engine {
 public:
  /// `config` uses the same EngineConfig as core::Engine; record_trace,
  /// departures, depart_on_complete, heterogeneous capacities, max_ticks
  /// and stall detection all behave identically. `topology->num_nodes()`
  /// must equal config.num_nodes. `seed` plays the role a scheduler Rng
  /// plays for core runs: the full run is a pure function of
  /// (config, topology, options, seed). Throws EngineViolation when one
  /// tick could carry more than 2^32 - 1 intents (the sum over nodes of
  /// min(upload capacity, degree)).
  Engine(const EngineConfig& config, std::shared_ptr<const Topology> topology,
         ScaleOptions options, std::uint64_t seed);

  /// Runs up to the tick cap (config.max_ticks per call, or the default
  /// cap) on `jobs` workers (0 = all cores, 1 = serial) and returns a
  /// RunResult with the exact same shape and semantics as core::Engine's —
  /// including dropped_transfers (always 0: the planner reads live state
  /// and never names a departed node) and active_slots_per_tick.
  ///
  /// run() is RESUMABLE: a second call continues the same swarm from where
  /// the previous call stopped (tick numbering, departures, the credit
  /// ledger and the depart-on-complete queue all carry over), so a capped
  /// run can be driven in windows. Per-call fields (ticks_executed,
  /// total_transfers, uploads_per_tick, trace, stall detection, phase
  /// timings) cover only that call's ticks; cumulative state (completion
  /// ticks, uploads_per_node, departed) reports global totals. Splitting
  /// one run into windows changes no transfer and no completion tick.
  /// Cannot be mixed with the lockstep API below.
  RunResult run(unsigned jobs = 1);

  // --- Lockstep API ---------------------------------------------------
  // MirrorScheduler (and tests) drive the engine one tick at a time so the
  // identical transfer stream can be validated by core::Engine and the
  // reference oracle. plan() runs phases 1+2 against the current state;
  // apply() commits an accepted stream; deactivate() injects departures
  // (run() handles config.departures itself — lockstep callers own churn).

  /// Appends this tick's merged transfer stream to `out`. Runs the sharded
  /// phases on the calling thread; produces exactly what run() would commit
  /// on this tick at any job count. Ticks must strictly increase from 1
  /// across plan() calls; tick 0 or a repeated / earlier tick throws
  /// std::logic_error.
  void plan(Tick tick, std::vector<Transfer>& out);

  /// Commits a planned stream: possession bits and summaries, possession
  /// versions, replica counts, completion ticks, per-node upload totals,
  /// and the credit ledger. Serial; run() uses the receiver/sender-sharded
  /// commit instead (ledger included), which leaves the engine in the
  /// identical state.
  void apply(Tick tick, std::span<const Transfer> accepted);

  /// Removes a node (idempotent; the server cannot depart): its capacity
  /// leaves the active upload slots, its replicas stop counting, and it no
  /// longer needs to complete.
  void deactivate(NodeId node);

  // --- Stream-driver API (pob/scale/stream) ----------------------------
  // The hybrid tick+event layer constructs the engine with every late
  // arrival pre-deactivated, then drives variable-population ticks through
  // step() while injecting arrivals and rate changes between ticks. All
  // mutators below are serial, called only between ticks.

  /// (Re)admits a node (idempotent; no-op for an active node): its capacity
  /// rejoins the active upload slots, its held blocks count as replicas
  /// again, and — because a fresh incomplete target appeared — every sated
  /// stamp in the swarm is invalidated (batched: cleared once at the next
  /// plan, not per arrival).
  void activate(NodeId node);

  /// Changes a node's capacities mid-run (client rule d >= u enforced,
  /// d >= 1; the server's download capacity is ignored as always). Takes
  /// effect at the next planned tick. Like the constructor, rejects a cap
  /// that would let one tick's worst-case intent total (the sum over nodes
  /// of min(upload capacity, degree)) exceed 2^32 - 1.
  void set_capacity(NodeId node, std::uint32_t up, std::uint32_t down);

  /// One variable-population tick on a caller-owned pool (nullptr = the
  /// calling thread): applies due config departures and the depart-on-
  /// complete queue exactly like run()'s loop head, then runs the sharded
  /// plan and the sharded commit. Returns the tick's accepted stream (valid
  /// until the next step/plan call). Like plan(), poisons run().
  std::span<const Transfer> step(ThreadPool* pool);

  /// Ends a run frame: `record`'s result with this engine's end state
  /// (client completion ticks, per-node uploads, departures) filled in.
  RunResult finish(TickRecord& record, Tick ticks_executed, bool completed) const;

  /// Lowest block `node` is missing, or k if complete — O(summary words)
  /// via the missing-summary, then one possession word. The playback prefix
  /// of the sequential-demand mode: every block below it is held.
  BlockId first_missing(NodeId node) const;

  Tick current_tick() const { return tick_; }
  std::uint32_t blocks_held(NodeId node) const { return count_[node]; }
  /// Completion tick of `node` (0 = not complete yet).
  Tick node_completion(NodeId node) const { return completion_[node]; }
  std::uint64_t active_upload_slots() const { return active_slots_; }
  std::uint32_t num_departed() const { return num_departed_; }
  Count node_uploads(NodeId node) const { return uploads_per_node_[node]; }
  /// Credit-mode ledger: net blocks `from` has sent `to` minus blocks
  /// received back (0 outside credit mode and for server pairs).
  std::int64_t credit_net(NodeId from, NodeId to) const {
    return ledger_of(from, to).net(from, to);
  }
  /// Client pairs with a nonzero credit net, over every ledger shard (0
  /// outside credit mode).
  std::uint64_t credit_pairs() const;

  bool is_active(NodeId node) const { return active_[node] != 0; }
  bool is_complete(NodeId node) const { return count_[node] >= k_; }
  bool all_complete() const { return num_incomplete_ == 0; }
  bool has(NodeId node, BlockId block) const {
    return (row(node)[block >> 6] >> (block & 63)) & 1u;
  }
  /// Highest block id `node` holds, kNoBlock if none — O(summary words) via
  /// the has-summary, then one possession word. The binomial pipeline's
  /// transmission rank is top_block + 1 (block ids are rank-ordered).
  BlockId top_block(NodeId node) const;

  const EngineConfig& config() const { return cfg_; }
  const Topology& topology() const { return *topo_; }
  const ScaleOptions& options() const { return opt_; }

  // --- Summary / version introspection (tests, invariant checks) -------

  /// Words per per-node summary row: ceil(ceil(k/64) / 64).
  std::uint32_t summary_words_per_row() const { return sum_stride_; }
  /// Summary word `g` of `node`: bit w set iff possession word (g*64 + w)
  /// holds at least one block.
  std::uint64_t summary_has_word(NodeId node, std::uint32_t g) const {
    return summary_has_[static_cast<std::size_t>(node) * sum_stride_ + g];
  }
  /// Summary word `g` of `node`: bit w set iff possession word (g*64 + w)
  /// is still missing at least one of its (tail-masked) blocks.
  std::uint64_t summary_missing_word(NodeId node, std::uint32_t g) const {
    return summary_missing_[static_cast<std::size_t>(node) * sum_stride_ + g];
  }
  /// Monotone counter bumped once per block `node` receives; probe-cache
  /// entries and the sated-node skip are keyed on it. It is exactly the
  /// delivered-block count (the server's stays at k forever): deliveries
  /// are the only possession changes, so count and version coincide.
  std::uint32_t possession_version(NodeId node) const { return count_[node]; }

  // --- Removed-layer constants (read only by the perfbench manifest) ----

  /// Always 1: the generate phase has one per-sender probe walk.
  std::uint32_t batch_window() const { return 1; }
  /// Always 0: every node keeps its dense possession row for the whole run.
  std::uint32_t compact_threshold() const { return 0; }
  /// Always 0: the possession arena is never handed back mid-run.
  std::uint64_t arena_released_bytes() const { return 0; }

  /// Per-phase wall-clock for the current/most recent run() call (or the
  /// lockstep drive so far); zeros unless options().collect_phase_timings.
  PhaseTimings phase_timings() const { return timings_; }

  /// Arena + index + tick-scratch memory actually allocated, for bench
  /// reporting: possession arena and summaries, per-node arrays (counts —
  /// which double as possession versions — sated stamps, capacities, upload
  /// totals, merge admission stamps), topology CSR, the
  /// per-shard intent vectors, diff-scan scratch and probe caches, the
  /// merge/apply scratch (buckets, accept flags, admission tables,
  /// frequency scratch), and the credit ledger.
  std::uint64_t state_bytes() const;

 private:
  // The randomized scheduler is the probing logic's historical home — it
  // keeps calling straight into generate_range and the private scratch
  // types; the deterministic schedulers use only the public introspection
  // surface (top_block, has, config).
  friend class RandomizedScheduler;

  // A (receiver, block) admission table: open-addressed, epoch-stamped so a
  // tick reset is O(1) and a million inserts touch no allocator. One table
  // per receiver shard; a receiver's deliveries land in exactly one table,
  // and only once it is offered a second block in a tick (see admit).
  class PairTable {
   public:
    void begin_tick(std::size_t expected);
    bool insert(std::uint64_t key);  ///< false if already present this tick

    std::uint64_t memory_bytes() const {
      return slots_.capacity() * sizeof(Slot);
    }

   private:
    // splitmix64 finalizer; good avalanche for open-addressed probing.
    static std::uint64_t hash(std::uint64_t x) {
      x += 0x9e3779b97f4a7c15ULL;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      return x ^ (x >> 31);
    }

    // Key and epoch share a slot so a probe touches one cache line, not a
    // line in each of two parallel arrays.
    struct Slot {
      std::uint64_t key;
      std::uint32_t epoch;
    };
    std::vector<Slot> slots_;
    std::uint64_t mask_ = 0;
    std::uint32_t epoch_ = 0;
  };

  // A direct-mapped cache of failed usefulness scans, one per sender shard
  // (shard s only ever probes senders it owns, so no cross-thread access).
  // An entry says "su \ sv was empty when u was at version vu and v at
  // version vv"; it is consulted only when both versions still match, so a
  // hit is exact, never heuristic — collisions merely overwrite. Misses
  // change nothing observable: the cache can only skip rescans.
  class ProbeCache {
   public:
    void configure(std::uint32_t shard_width);
    bool is_useless(NodeId u, NodeId v, std::uint32_t ver_u,
                    std::uint32_t ver_v) const;
    void note_useless(NodeId u, NodeId v, std::uint32_t ver_u, std::uint32_t ver_v);

    std::uint64_t memory_bytes() const {
      return keys_.capacity() * sizeof(std::uint64_t) +
             (ver_from_.capacity() + ver_to_.capacity()) * sizeof(std::uint32_t);
    }

   private:
    std::vector<std::uint64_t> keys_;  // (u << 32) | v; kNoNode-based empty
    std::vector<std::uint32_t> ver_from_;
    std::vector<std::uint32_t> ver_to_;
    std::uint64_t mask_ = 0;
  };

  // One intent, tagged with its global position in the canonical
  // (sender-node-ordered) intent stream so accept flags and the emitted
  // stream can be reconstructed in that order after receiver-sharded
  // admission.
  struct MergeItem {
    Transfer tr;
    std::uint32_t idx;
  };

  // Per-shard scratch for the fused usefulness-scan / block-pick: one pass
  // over su & ~sv records the NONZERO diff words (ascending word index),
  // their popcounts and the total, and the selection (random rank-select or
  // rarest-first walk) reuses the recording instead of re-walking the
  // possession rows. Sparse by construction: endgame scans record one or
  // two entries, not ceil(k/64).
  struct DiffScan {
    std::vector<std::uint32_t> widx;   // possession-word index per entry
    std::vector<std::uint64_t> words;  // su[w] & ~sv[w], nonzero only
    std::vector<std::uint32_t> pc;     // popcount per entry
    std::uint32_t entries = 0;
    std::uint32_t total = 0;  // sum of pc over entries

    std::uint64_t memory_bytes() const {
      return widx.capacity() * sizeof(std::uint32_t) +
             words.capacity() * sizeof(std::uint64_t) +
             pc.capacity() * sizeof(std::uint32_t);
    }
  };

  std::uint64_t* row(NodeId node) {
    return rows_ + static_cast<std::size_t>(node) * stride_;
  }
  const std::uint64_t* row(NodeId node) const {
    return rows_ + static_cast<std::size_t>(node) * stride_;
  }
  const std::uint64_t* summary_has_row(NodeId node) const {
    return summary_has_.data() + static_cast<std::size_t>(node) * sum_stride_;
  }
  const std::uint64_t* summary_missing_row(NodeId node) const {
    return summary_missing_.data() + static_cast<std::size_t>(node) * sum_stride_;
  }

  /// The full-word mask of possession word w (tail-masked for the last word
  /// when k is not a multiple of 64).
  std::uint64_t word_full_mask(std::uint32_t w) const {
    return (w + 1 == stride_) ? tail_mask_ : ~0ULL;
  }

  std::uint32_t recv_shard_of(NodeId v) const { return v >> recv_shift_; }

  /// The ledger shard holding pair {a, b}: the receiver shard of min(a, b).
  CreditLedger& ledger_of(NodeId a, NodeId b) {
    return ledgers_[recv_shard_of(std::min(a, b))].ledger;
  }
  const CreditLedger& ledger_of(NodeId a, NodeId b) const {
    return ledgers_[recv_shard_of(std::min(a, b))].ledger;
  }

  /// Most intents sender u can emit in one tick at upload capacity `up`:
  /// one per slot, and at most one per neighbor.
  std::uint64_t max_intents(NodeId u, std::uint32_t up) const {
    return std::min<std::uint64_t>(up, topo_->degree(u));
  }

  /// O(summary words): true iff some chunk where u holds blocks is still
  /// incomplete at v — the necessary condition for a useful probe.
  bool summary_overlap(NodeId u, NodeId v) const;

  /// Fills `scan` with the nonzero words of su \ sv (ascending word index)
  /// and returns scan.total != 0. `su` is u's resolved sender row (see
  /// resolve_sender_row). `guided` allows the summary-driven sparse walk
  /// (the caller has already paid for the summary rows); false, or
  /// ScanKernel::kScalar, goes straight to the linear sweep. Both paths
  /// record identical entries; the choice is perf-only.
  bool scan_pair(NodeId u, const std::uint64_t* su, NodeId v, DiffScan& scan,
                 bool guided) const;

  /// generate_node's viability ladder: summary/cache prechecks (exact
  /// rejections only), the diff scan, and the sequential-window admission
  /// test. True iff u -> v is viable right now, with `scan` holding the
  /// recorded diff for the block pick.
  bool probe_viable(NodeId u, const std::uint64_t* su, std::uint32_t ver_u,
                    NodeId v, std::uint32_t ver_v, DiffScan& scan,
                    ProbeCache& cache);

  /// Resolves the row pointer scans read u's possession through: the arena
  /// row, or the shared all-ones full_row_ for complete nodes (one hot
  /// shared line instead of a million identical ones). Word-for-word equal
  /// to the arena row either way, so scan recordings cannot differ.
  const std::uint64_t* resolve_sender_row(NodeId u, std::uint32_t ver_u) const;

  /// Sequential-demand viability (opt_.stream_window != 0): true iff the
  /// lowest block of the recorded diff lies inside v's sliding playback
  /// window [first_missing(v), first_missing(v) + stream_window).
  bool window_admits(NodeId v, const DiffScan& scan) const;

  /// Picks a block from a non-empty DiffScan; consumes the identical RNG
  /// draws (one below(total), or the rarest-first reservoir sequence) as
  /// the historical two-pass pick_block. Sequential-demand mode always
  /// picks the lowest recorded bit and draws nothing.
  BlockId pick_from_scan(const DiffScan& scan, Rng& rng) const;

  /// Deterministic sweep of u's whole neighborhood: true iff no neighbor is
  /// currently a viable probe target (so u cannot emit an intent this tick
  /// or any later tick until u's possession version changes — see the
  /// argument in the header comment). `su` is u's resolved sender row.
  /// Populates the probe cache as it goes.
  bool neighborhood_exhausted(NodeId u, const std::uint64_t* su, DiffScan& scan,
                              ProbeCache& cache);

  /// Commits one delivery's summary bookkeeping for `to` after the
  /// possession bit of `block` has been set in `word`. (The version bump is
  /// the caller's count_ increment — count doubles as the version.)
  void note_delivery(NodeId to, BlockId block, std::uint64_t word);

  /// Commits one delivery to `to`'s possession row, summaries and count
  /// (version). Returns true iff the node just completed. Called only from
  /// the receiver's owning context (serial commit or its receiver shard).
  bool deliver_block(NodeId to, BlockId block);

  /// Emits node u's intents. `rng` is u's per-(tick, node) stream with the
  /// first below(degree) draw already consumed — `first_probe` is that
  /// draw's neighbor — and the caller has verified u is eligible (active,
  /// holds blocks, not sated, has slots and neighbors).
  void generate_node(NodeId u, Rng& rng, NodeId first_probe,
                     std::vector<Transfer>& out, DiffScan& scan, ProbeCache& cache);
  /// Emits intents for senders in [first, last): runs generate_node over
  /// the range in small double-buffered windows whose lead pass seeds each
  /// eligible node's RNG, peeks its first probe target and prefetches that
  /// target's metadata and possession row, so the emit pass finds the lines
  /// resident instead of stalling per probe.
  void generate_range(std::uint64_t tick_base, NodeId first, NodeId last,
                      std::vector<Transfer>& out, DiffScan& scan,
                      ProbeCache& cache);
  /// The loop head run() and step() share: advances tick_ and applies due
  /// config departures and the depart-on-complete queue.
  void open_tick();
  void plan_phases(Tick tick, std::vector<Transfer>& out, ThreadPool* pool);
  /// Merge admission of one intent against its receiver's download cap and
  /// the one-delivery-per-(receiver, block) rule. Stamp-first: a receiver's
  /// first intent of the tick is admitted from down_stamp_ alone (every cap
  /// is >= 1) and its block parked in first_block_; the second seeds
  /// `delivered` with that block before inserting its own, so receivers
  /// offered one block per tick never touch the table. Called in canonical
  /// order per receiver, from the receiver's owning context only.
  bool admit(Tick tick, const Transfer& tr, PairTable& delivered);
  /// The serial commit loop shared by the public apply() and the sparse-tick
  /// fast path of apply_merged().
  void commit_serial(Tick tick, std::span<const Transfer> accepted);
  /// Commits the stream the immediately preceding plan_phases() call
  /// produced, reusing its receiver buckets and accept flags: possession /
  /// summaries / counts / completion sharded by receiver, upload totals
  /// sharded by sender (the accepted stream is non-decreasing in `from`),
  /// frequency deltas reduced from per-shard scratch in fixed shard order,
  /// ledger committed by the sender pass, shard r recording every pair
  /// whose lower id lies in its range and skipping the tick's reciprocal
  /// exchanges, which net to 0. Leaves the engine in the exact state
  /// apply() would.
  void apply_merged(Tick tick, std::span<const Transfer> accepted, ThreadPool* pool);

  EngineConfig cfg_;
  std::shared_ptr<const Topology> topo_;
  ScaleOptions opt_;
  std::uint64_t seed_ = 0;

  std::uint32_t n_ = 0;
  std::uint32_t k_ = 0;
  std::uint32_t stride_ = 0;      // words per possession row
  std::uint32_t sum_stride_ = 0;  // words per summary row
  std::uint64_t tail_mask_ = ~0ULL;  // full mask of the last possession word

  // Structure-of-arrays swarm state. The possession version of a node is
  // count_[node] — see possession_version(). The three random-read arenas
  // live on hugepage-preferring buffers (hugemem.h): TLB relief, and a
  // prerequisite for the generate phase's software prefetch to fire at all.
  HugeBuffer<std::uint64_t> bits_;  // possession arena + alignment slack
  std::uint64_t* rows_ = nullptr;   // 64-byte-aligned base inside bits_
  HugeBuffer<std::uint64_t> summary_has_;      // n * sum_stride hierarchy
  HugeBuffer<std::uint64_t> summary_missing_;  // n * sum_stride hierarchy
  std::vector<std::uint32_t> sated_ver_;  // version+1 stamp when exhausted
  bool sated_dirty_ = false;  // an arrival added targets; clear stamps at next plan

  // One shared all-ones possession row (tail-masked): every complete
  // sender's scans read through this single hot line instead of n identical
  // arena rows.
  std::vector<std::uint64_t> full_row_;

  HugeBuffer<std::uint32_t> count_;       // blocks held per node
  std::vector<Tick> completion_;          // completion tick per node (0 = not)
  HugeBuffer<std::uint8_t> active_;       // 0 once departed
  std::vector<std::uint32_t> freq_;       // per-block replica count (active nodes)
  std::vector<std::uint32_t> up_caps_;    // resolved per-node capacities
  std::vector<std::uint32_t> down_caps_;
  // Sum over nodes of max_intents(u, up_caps_[u]): the most intents any tick
  // can carry. Kept <= 2^32 - 1 (MergeItem::idx is 32-bit) by the
  // constructor and set_capacity.
  std::uint64_t intent_bound_ = 0;
  std::vector<Count> uploads_per_node_;
  std::uint32_t num_incomplete_ = 0;
  std::uint32_t num_departed_ = 0;
  std::uint64_t active_slots_ = 0;
  // §3.2 pairwise net-transfer ledger (credit mode), one per receiver
  // shard: pair {u, v} lives in the shard of min(u, v), so the sharded
  // apply records it without a lock (see ledger_of). Each ledger has a
  // cache line to itself: every record() writes its size, and neighbouring
  // shards commit on different threads.
  struct alignas(64) LedgerShard {
    CreditLedger ledger;
  };
  std::vector<LedgerShard> ledgers_;

  // Receiver shards: contiguous node-id ranges of width recv_width_ (a
  // power of two, so the merge's three million-intent passes shard with a
  // shift instead of an integer division). Every merge/apply constraint
  // that crosses sender shards is per-receiver, so shard r exclusively owns
  // down_used_/down_stamp_/first_block_/first_from_/count_/completion_/
  // possession+summary rows for its range, and ledgers_[r] for every pair
  // whose lower id is in it.
  // All three values are pure functions of n — and because each receiver
  // lives wholly inside one shard and shards decide independently in
  // canonical order, the admitted stream does not depend on the widths.
  std::uint32_t recv_shards_ = 1;
  std::uint32_t recv_width_ = 1;
  std::uint32_t recv_shift_ = 0;

  // Resumable-run cursor: global tick counter and the next config departure
  // to apply, both carried across run() calls.
  Tick tick_ = 0;
  std::vector<std::pair<Tick, NodeId>> departures_;  // sorted copy
  std::size_t next_departure_ = 0;

  // The intent generator (scheduler.h); constructed from opt_.scheduler,
  // owns its own per-shard scratch (the randomized probe scans and caches
  // live here now, not in the engine).
  std::unique_ptr<ScaleScheduler> sched_;

  // Tick scratch (reused, never shrunk).
  std::vector<std::vector<Transfer>> shard_intents_;  // reserved at first plan
  std::vector<std::uint32_t> down_used_;    // stamped by down_stamp_
  std::vector<Tick> down_stamp_;            // last tick with an admitted intent
  std::vector<BlockId> first_block_;        // that tick's first admitted block
  std::vector<NodeId> first_from_;          // and its sender (credit mode only)
  std::vector<PairTable> delivered_;        // one per receiver shard
  std::vector<std::size_t> intent_offsets_; // canonical stream offsets, S+1
  std::vector<std::uint32_t> scatter_pos_;  // S x R counts, then cursors
  std::vector<std::uint32_t> bucket_offsets_;  // R+1 into bucket_
  std::vector<MergeItem> bucket_;           // intents grouped by recv shard
  std::vector<std::uint8_t> accept_;        // admission flag per intent idx
  std::vector<std::uint32_t> emit_offsets_; // accepted-stream offsets, S+1
  ShardScratch<std::uint32_t> freq_scratch_;   // R x k frequency deltas
  std::vector<std::vector<NodeId>> leaving_shards_;  // per recv shard
  std::vector<std::uint32_t> completions_scratch_;   // per recv shard
  std::vector<NodeId> leaving_;  // depart_on_complete queue (run() only)
  std::vector<Transfer> accepted_;

  PhaseTimings timings_;
  bool lockstep_ = false;  // plan() called; run() may no longer be used
  // The last tick plan_phases ran; ticks must strictly increase from 1,
  // since admission trusts down_stamp_[v] != tick to mean "first intent".
  Tick planned_tick_ = 0;

  // Set by plan_phases when the tick's intent total is at or below the
  // sparse threshold: the merge ran serially in canonical order (no buckets,
  // no accept flags), so apply_merged must commit serially too. A pure
  // function of the intent stream, hence identical at any job count. This is
  // what makes million-tick deterministic runs (riffle: T = n + k - 2 ticks
  // of ~k intents) affordable — the O(shards * recv_shards) merge scaffolding
  // and the O(R * k) frequency reduce would otherwise dominate every tick.
  bool sparse_tick_ = false;
};

}  // namespace pob::scale
