#include "pob/scale/engine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "pob/core/hash.h"
#include "pob/scale/hugemem.h"
#include "pob/scale/sched_binomial.h"
#include "pob/scale/sched_randomized.h"
#include "pob/scale/sched_riffle.h"

namespace pob::scale {

namespace {

std::uint64_t delivery_key(NodeId to, BlockId block) {
  return (static_cast<std::uint64_t>(to) << 32) | block;
}

std::uint64_t probe_key(NodeId u, NodeId v) {
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

// Runs body(s) for s in [0, count): on the pool when it has real workers,
// inline otherwise. Every caller's body writes only shard-owned state, so
// the two paths are observationally identical — jobs=1 runs the exact same
// sharded algorithm, just serially.
void for_shards(ThreadPool* pool, std::uint32_t count,
                const std::function<void(std::uint32_t)>& body) {
  if (pool != nullptr && pool->jobs() > 1 && count > 1) {
    pool->parallel_for(count, body);
  } else {
    for (std::uint32_t s = 0; s < count; ++s) body(s);
  }
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// Ticks with at most this many intents take the serial merge/commit fast
// path (see Engine::sparse_tick_). The threshold compares against the tick's
// intent total — a pure function of the intent stream — so the path taken is
// identical at any job count. 2048 intents is far below where the sharded
// scaffolding starts paying for itself.
constexpr std::uint32_t kSparseTickIntents = 2048;

// MergeItem::idx and the merge's bucket offsets index one tick's intents in
// 32 bits, so a config whose worst-case tick could exceed that is rejected
// up front instead of overflowing mid-run.
void check_intent_bound(std::uint64_t bound) {
  if (bound > std::numeric_limits<std::uint32_t>::max()) {
    throw EngineViolation(
        "scale: worst-case intents per tick (sum over nodes of min(upload "
        "capacity, degree) = " +
        std::to_string(bound) + ") exceeds the 32-bit intent index");
  }
}

}  // namespace

const char* scan_kernel_name(ScanKernel kernel) {
  return kernel == ScanKernel::kScalar ? "scalar" : "guided";
}

// --- ProbeCache ----------------------------------------------------------

void Engine::ProbeCache::configure(std::uint32_t shard_width) {
  std::size_t want = 16;
  const std::size_t target = static_cast<std::size_t>(shard_width) * 2;
  while (want < target) want <<= 1;
  keys_.assign(want, ~0ULL);  // real keys have u < kNoNode, never ~0
  ver_from_.assign(want, 0);
  ver_to_.assign(want, 0);
  mask_ = want - 1;
}

bool Engine::ProbeCache::is_useless(NodeId u, NodeId v, std::uint32_t ver_u,
                                    std::uint32_t ver_v) const {
  const std::uint64_t key = probe_key(u, v);
  const auto i = static_cast<std::size_t>(mix64(key) & mask_);
  // Exact or nothing: the key AND both possession versions must match, so a
  // hit replays a verdict computed from these precise rows. A collision or
  // a stale version is simply a miss and the caller rescans — the cache can
  // never change which intents are emitted, only how fast failure is found.
  return keys_[i] == key && ver_from_[i] == ver_u && ver_to_[i] == ver_v;
}

void Engine::ProbeCache::note_useless(NodeId u, NodeId v, std::uint32_t ver_u,
                                      std::uint32_t ver_v) {
  const std::uint64_t key = probe_key(u, v);
  const auto i = static_cast<std::size_t>(mix64(key) & mask_);
  keys_[i] = key;  // direct-mapped: collisions overwrite
  ver_from_[i] = ver_u;
  ver_to_[i] = ver_v;
}

// --- Engine --------------------------------------------------------------

Engine::Engine(const EngineConfig& config, std::shared_ptr<const Topology> topology,
               ScaleOptions options, std::uint64_t seed)
    : cfg_(config), topo_(std::move(topology)), opt_(options), seed_(seed) {
  // The one config check core runs too, so a config that one engine
  // rejects cannot silently run on the other. d >= 1 matters beyond the
  // model here: admit takes a receiver's first intent of a tick without
  // reading its cap.
  validate_config(cfg_);
  if (topo_ == nullptr || topo_->num_nodes() != cfg_.num_nodes) {
    throw std::invalid_argument("scale: topology does not match num_nodes");
  }
  if (opt_.max_probes < 1) throw std::invalid_argument("scale: max_probes < 1");
  if (opt_.shard_nodes < 1) throw std::invalid_argument("scale: shard_nodes < 1");

  const std::uint32_t n = cfg_.num_nodes;
  n_ = n;
  k_ = cfg_.num_blocks;
  stride_ = (k_ + 63) / 64;
  sum_stride_ = (stride_ + 63) / 64;
  tail_mask_ = (k_ & 63) != 0 ? (1ULL << (k_ & 63)) - 1 : ~0ULL;

  up_caps_.resize(n_);
  down_caps_.resize(n_);
  for (NodeId u = 0; u < n_; ++u) {
    up_caps_[u] = cfg_.upload_cap(u);
    down_caps_[u] = cfg_.download_cap(u);
  }
  // One intent per upload slot and at most one per (u, v) pair: no tick
  // can carry more than this many intents.
  for (NodeId u = 0; u < n_; ++u) intent_bound_ += max_intents(u, up_caps_[u]);
  check_intent_bound(intent_bound_);

  // Deterministic schedulers run fixed closed-form schedules; a config the
  // schedule was not derived for must be rejected loudly (distinct message
  // per rule), never silently produce garbage intents.
  if (opt_.scheduler != SchedKind::kRandomized) {
    const char* sname = sched_kind_name(opt_.scheduler);
    if (opt_.stream_window != 0) {
      throw EngineViolation(std::string("scale: ") + sname +
                            " emits a fixed schedule; sequential stream "
                            "demand (stream_window) is randomized-only");
    }
    if (!std::has_single_bit(n)) {
      throw EngineViolation(std::string("scale: ") + sname +
                            " requires power-of-two num_nodes (got " +
                            std::to_string(n) + ")");
    }
    if (!cfg_.upload_capacities.empty() || !cfg_.download_capacities.empty()) {
      throw EngineViolation(std::string("scale: ") + sname +
                            " requires uniform capacities (per-node capacity "
                            "vectors are not supported)");
    }
    if (cfg_.upload_capacity != 1 || cfg_.upload_cap(kServer) > 1) {
      throw EngineViolation(std::string("scale: ") + sname +
                            " requires unit upload capacity (upload_capacity "
                            "1, server_upload_capacity <= 1)");
    }
    if (!cfg_.departures.empty() || cfg_.depart_on_complete) {
      throw EngineViolation(std::string("scale: ") + sname +
                            " does not support churn (departures / "
                            "depart_on_complete)");
    }
    if (opt_.scheduler == SchedKind::kRifflePipeline) {
      if (!topo_->is_complete()) {
        throw EngineViolation(
            "scale: riffle-pipeline requires the complete topology");
      }
      if (cfg_.download_capacity < 2) {
        throw EngineViolation(
            "scale: riffle-pipeline requires download capacity >= 2 (a "
            "server hand-off may land on a bartering client)");
      }
      if (opt_.credit_limit != 0) {
        throw EngineViolation(
            "scale: riffle-pipeline is strict barter; credit_limit must be 0");
      }
    } else {
      // Binomial pipeline / triangular barter: every hypercube edge must be
      // present in the overlay (the complete graph trivially qualifies).
      if (!topo_->is_complete()) {
        const std::uint32_t dims = static_cast<std::uint32_t>(std::countr_zero(n));
        const auto has_edge = [&](NodeId u, NodeId v) {
          std::uint32_t lo = 0;
          std::uint32_t hi = topo_->degree(u);
          while (lo < hi) {  // neighbor lists are ascending (topology.h)
            const std::uint32_t mid = lo + (hi - lo) / 2;
            const NodeId w = topo_->neighbor(u, mid);
            if (w < v) {
              lo = mid + 1;
            } else if (w > v) {
              hi = mid;
            } else {
              return true;
            }
          }
          return false;
        };
        for (NodeId u = 0; u < n; ++u) {
          for (std::uint32_t d = 0; d < dims; ++d) {
            const NodeId v = u ^ (NodeId{1} << d);
            if (!has_edge(u, v)) {
              throw EngineViolation(std::string("scale: ") + sname +
                                    " requires the hypercube overlay: missing "
                                    "edge " +
                                    std::to_string(u) + " <-> " +
                                    std::to_string(v));
            }
          }
        }
      }
      if (opt_.scheduler == SchedKind::kBinomialPipeline && opt_.credit_limit != 0) {
        throw EngineViolation(
            "scale: binomial-pipeline is cooperative; credit_limit must be 0");
      }
      if (opt_.scheduler == SchedKind::kTriangularBarter && opt_.credit_limit < 1) {
        throw EngineViolation(
            "scale: triangular-barter requires credit_limit >= 1");
      }
    }
  }

  // Every per-probe random access lands in one of the arrays below. The
  // big uint64 arenas go through huge_alloc (hugemem.h): whole 2 MiB
  // mappings with a transparent-hugepage hint.
  // Beyond plain TLB relief this is what makes the generate phase's
  // lead-pass prefetch real — software prefetches that miss the TLB are
  // dropped on common cores, so with 4 KiB pages most row prefetches into
  // a 64 MiB arena would silently do nothing.
  //
  // Over-allocate the arena by one cache line and align the row base to 64
  // bytes: a k = 512 row is then exactly one line instead of straddling
  // two, which halves the misses of every random row access. (mmap-backed
  // buffers are page-aligned already; the slack also covers the heap
  // fallback path.)
  bits_.reset(static_cast<std::size_t>(n_) * stride_ + 8);
  {
    auto addr = reinterpret_cast<std::uintptr_t>(bits_.data());
    const std::uintptr_t aligned = (addr + 63) & ~std::uintptr_t{63};
    rows_ = bits_.data() + (aligned - addr) / sizeof(std::uint64_t);
  }
  summary_has_.reset(static_cast<std::size_t>(n_) * sum_stride_);
  summary_missing_.reset(static_cast<std::size_t>(n_) * sum_stride_);
  sated_ver_.assign(n_, 0);
  count_.reset(n_);
  completion_.assign(n_, 0);
  active_.reset(n_);
  std::memset(active_.data(), 1, n_);
  freq_.assign(k_, 1);  // the server's copy of every block
  uploads_per_node_.assign(n_, 0);
  down_used_.assign(n_, 0);
  down_stamp_.assign(n_, 0);
  first_block_.assign(n_, 0);
  if (opt_.credit_limit != 0) first_from_.assign(n_, 0);

  // Seed the server with the whole file (tail bits of the last word stay 0 —
  // the planner's word-wise diffs rely on that invariant for every row).
  std::uint64_t* server = row(kServer);
  for (std::uint32_t w = 0; w < stride_; ++w) server[w] = word_full_mask(w);
  count_[kServer] = k_;
  num_incomplete_ = n_ - 1;

  // Summaries: the server HAS every chunk and MISSES none; clients have
  // nothing and miss every chunk. The chunk-index pattern (bits [0, stride_)
  // across sum_stride_ words) is tail-masked the same way possession words
  // are, so summary bits beyond the last real chunk stay 0 forever.
  for (std::uint32_t g = 0; g < sum_stride_; ++g) {
    const bool last_partial = (g + 1 == sum_stride_) && (stride_ & 63) != 0;
    const std::uint64_t pattern = last_partial ? (1ULL << (stride_ & 63)) - 1 : ~0ULL;
    summary_has_[static_cast<std::size_t>(kServer) * sum_stride_ + g] = pattern;
    for (NodeId c = 1; c < n_; ++c) {
      summary_missing_[static_cast<std::size_t>(c) * sum_stride_ + g] = pattern;
    }
  }

  for (NodeId u = 0; u < n_; ++u) active_slots_ += up_caps_[u];

  const std::uint32_t shards = (n_ + opt_.shard_nodes - 1) / opt_.shard_nodes;
  shard_intents_.resize(shards);
  switch (opt_.scheduler) {
    case SchedKind::kRandomized:
      sched_ = std::make_unique<RandomizedScheduler>(*this, shards);
      break;
    case SchedKind::kBinomialPipeline:
      sched_ = std::make_unique<BinomialScheduler>(*this, /*triangular=*/false);
      break;
    case SchedKind::kTriangularBarter:
      sched_ = std::make_unique<BinomialScheduler>(*this, /*triangular=*/true);
      break;
    case SchedKind::kRifflePipeline:
      sched_ = std::make_unique<RiffleScheduler>(*this);
      break;
  }

  // Receiver shards: enough for the pool to balance (the E22 swarm gets ~64)
  // but never so many that tiny fuzz swarms pay bucketing overhead for a
  // handful of intents. The width rounds up to a power of two so the merge
  // buckets by shift — the division was ~3 per intent per tick. A pure
  // function of n — job counts must not be able to move shard boundaries —
  // and results cannot depend on it anyway: admission is per-receiver and
  // every receiver lives wholly inside one shard.
  const std::uint32_t want = std::clamp(n_ / 1024u, 1u, 64u);
  recv_width_ = std::bit_ceil((n_ + want - 1) / want);
  recv_shift_ = static_cast<std::uint32_t>(std::countr_zero(recv_width_));
  recv_shards_ = (n_ + recv_width_ - 1) / recv_width_;
  delivered_.resize(recv_shards_);
  bucket_offsets_.assign(recv_shards_ + 1, 0);
  intent_offsets_.assign(shards + 1, 0);
  emit_offsets_.assign(shards + 1, 0);
  scatter_pos_.assign(static_cast<std::size_t>(shards) * recv_shards_, 0);
  freq_scratch_.configure(recv_shards_, k_);
  leaving_shards_.resize(recv_shards_);
  completions_scratch_.assign(recv_shards_, 0);
  ledgers_.resize(recv_shards_);

  departures_ = cfg_.departures;
  std::sort(departures_.begin(), departures_.end());

  // One shared all-ones row for every complete sender's scans: identical
  // words to a complete arena row, so recordings cannot change — a million
  // complete senders share one hot line instead of a million cold ones.
  full_row_.assign(stride_, 0);
  for (std::uint32_t w = 0; w < stride_; ++w) full_row_[w] = word_full_mask(w);
}

BlockId Engine::top_block(NodeId node) const {
  const std::uint64_t* hs = summary_has_row(node);
  for (std::uint32_t g = sum_stride_; g-- > 0;) {
    const std::uint64_t sword = hs[g];
    if (sword == 0) continue;
    const std::uint32_t w =
        (g << 6) + 63 - static_cast<std::uint32_t>(std::countl_zero(sword));
    const std::uint64_t pword = row(node)[w];
    return static_cast<BlockId>(
        (w << 6) + 63 - static_cast<std::uint32_t>(std::countl_zero(pword)));
  }
  return kNoBlock;
}

bool Engine::summary_overlap(NodeId u, NodeId v) const {
  const std::uint64_t* hu = summary_has_row(u);
  const std::uint64_t* mv = summary_missing_row(v);
  for (std::uint32_t g = 0; g < sum_stride_; ++g) {
    if ((hu[g] & mv[g]) != 0) return true;
  }
  return false;
}

bool Engine::scan_pair(NodeId u, const std::uint64_t* su, NodeId v,
                       DiffScan& scan, bool guided) const {
  const std::uint64_t* sv = row(v);
  std::uint32_t entries = 0;
  std::uint32_t total = 0;
  // Records word w of su \ sv if it holds any block v lacks.
  const auto record = [&](std::uint32_t w) {
    const std::uint64_t d = su[w] & ~sv[w];
    if (d == 0) return;
    scan.widx[entries] = w;
    scan.words[entries] = d;
    const auto c = static_cast<std::uint32_t>(std::popcount(d));
    scan.pc[entries] = c;
    ++entries;
    total += c;
  };
  const auto linear_sweep = [&] {
    for (std::uint32_t w = 0; w < stride_; ++w) record(w);
  };

  if (opt_.scan_kernel == ScanKernel::kScalar || !guided) {
    // kScalar is the reference: always the linear sweep. Unguided: the
    // caller's expected-diff heuristic said a rejection is unlikely, so go
    // straight at the rows without touching the summaries.
    linear_sweep();
  } else {
    // The caller already paid for the summary rows, so use them: chunk
    // candidates are words where u holds something AND v still misses
    // something. (Tail bits of both rows are 0, so a "full" sv word kills
    // the whole word even though ~sv has garbage above the tail mask.)
    std::uint32_t cand = 0;
    const std::uint64_t* hu = summary_has_row(u);
    const std::uint64_t* mv = summary_missing_row(v);
    for (std::uint32_t g = 0; g < sum_stride_; ++g) {
      cand += static_cast<std::uint32_t>(std::popcount(hu[g] & mv[g]));
    }
    if (cand * 4 > stride_) {
      linear_sweep();
    } else {
      // Sparse guided walk: visit only candidate words, ascending — the
      // endgame shape, where one or two chunks are still in play. The
      // guided/linear choice is a pure function of possession state, and
      // both record the same entries, so it cannot perturb determinism.
      for (std::uint32_t g = 0; g < sum_stride_; ++g) {
        for (std::uint64_t m = hu[g] & mv[g]; m != 0; m &= m - 1) {
          record((g << 6) + static_cast<std::uint32_t>(std::countr_zero(m)));
        }
      }
    }
  }
  scan.entries = entries;
  scan.total = total;
  return total != 0;
}

bool Engine::window_admits(NodeId v, const DiffScan& scan) const {
  // Sequential demand: viable only if the lowest deliverable block lies in
  // v's sliding window. Every diff bit is >= first_missing(v) — v holds its
  // whole prefix — so only the scan's first recorded bit matters. The
  // verdict is a pure function of both possession rows (the window bound of
  // v's row, the lowest diff of both), so a failure may be probe-cached
  // under the same (ver_u, ver_v) key as an empty diff.
  const std::uint32_t lowest =
      (scan.widx[0] << 6) + static_cast<std::uint32_t>(std::countr_zero(scan.words[0]));
  return lowest < static_cast<std::uint64_t>(first_missing(v)) + opt_.stream_window;
}

BlockId Engine::pick_from_scan(const DiffScan& scan, Rng& rng) const {
  if (opt_.stream_window != 0) {
    // In-order priority: always the lowest deliverable block, no RNG draw.
    // (The caller verified it is inside the receiver's window.)
    return static_cast<BlockId>(
        (scan.widx[0] << 6) + static_cast<std::uint32_t>(std::countr_zero(scan.words[0])));
  }
  if (opt_.policy == BlockPolicy::kRandom) {
    // Rank-select over the recorded per-word popcounts; one rng draw, as
    // BlockSet::pick_random_useful.
    assert(scan.total != 0);  // caller checked usefulness
    std::uint32_t r = rng.below(scan.total);
    for (std::uint32_t e = 0; e < scan.entries; ++e) {
      const std::uint32_t pc = scan.pc[e];
      if (r < pc) {
        std::uint64_t diff = scan.words[e];
        while (r-- > 0) diff &= diff - 1;
        return static_cast<BlockId>((scan.widx[e] << 6) +
                                    static_cast<std::uint32_t>(std::countr_zero(diff)));
      }
      r -= pc;
    }
    return kNoBlock;  // unreachable
  }
  // Rarest first over the live replica counts, with the same reservoir
  // tie-break idiom (and the same rng draw sequence) as
  // BlockSet::pick_rarest_useful. Entries are recorded in ascending word
  // order by both scan paths, so the block visit order — and therefore the
  // reservoir draws — match the historical dense walk exactly.
  BlockId best = kNoBlock;
  std::uint32_t best_freq = 0;
  std::uint32_t ties = 0;
  for (std::uint32_t e = 0; e < scan.entries; ++e) {
    const std::uint32_t base = scan.widx[e] << 6;
    std::uint64_t diff = scan.words[e];
    while (diff != 0) {
      const auto b = static_cast<BlockId>(
          base + static_cast<std::uint32_t>(std::countr_zero(diff)));
      diff &= diff - 1;
      const std::uint32_t f = freq_[b];
      if (best == kNoBlock || f < best_freq) {
        best = b;
        best_freq = f;
        ties = 1;
      } else if (f == best_freq) {
        ++ties;
        if (rng.below(ties) == 0) best = b;
      }
    }
  }
  return best;
}

bool Engine::probe_viable(NodeId u, const std::uint64_t* su, std::uint32_t ver_u,
                          NodeId v, std::uint32_t ver_v, DiffScan& scan,
                          ProbeCache& cache) {
  // Rejection ladder, none of it consuming RNG. The summary and cache
  // checks only pay off when the diff could plausibly be empty, so they
  // are gated on the expected diff size |su| * (k - |sv|) / k being
  // small; the saturated midgame — where nearly every probe is useful —
  // skips straight to the scan and never touches the summary rows or
  // the cache. Gating cannot change results: both checks are exact
  // rejections, so consulting them less often only costs scans.
  const bool maybe_useless =
      static_cast<std::uint64_t>(ver_u) * (k_ - ver_v) <
      (static_cast<std::uint64_t>(k_) << 3);
  const std::uint32_t window = opt_.stream_window;
  if (maybe_useless) {
    if (!summary_overlap(u, v)) return false;
    if (cache.is_useless(u, v, ver_u, ver_v)) return false;
    if (!scan_pair(u, su, v, scan, /*guided=*/true) ||
        (window != 0 && !window_admits(v, scan))) {
      // Both rejections are pure functions of the two rows, so both are
      // cacheable under the version-pinned key.
      cache.note_useless(u, v, ver_u, ver_v);
      return false;
    }
    return true;
  }
  return scan_pair(u, su, v, scan, /*guided=*/false) &&
         (window == 0 || window_admits(v, scan));
}

const std::uint64_t* Engine::resolve_sender_row(NodeId u,
                                                std::uint32_t ver_u) const {
  return ver_u >= k_ ? full_row_.data() : row(u);
}

bool Engine::neighborhood_exhausted(NodeId u, const std::uint64_t* su,
                                    DiffScan& scan, ProbeCache& cache) {
  // Deterministic full sweep, no RNG: is ANY neighbor a viable target right
  // now? Every predicate below is monotone-in-failure while u's version is
  // frozen (see the header), so a true result stays true until u itself
  // receives a block. Failed scans are fed to the probe cache so the sweep
  // also warms future ticks.
  const std::uint32_t deg = topo_->degree(u);
  const bool credit = opt_.credit_limit != 0 && u != kServer;
  const std::uint32_t ver_u = count_[u];
  // Two prefetch waves, metadata first. count_/active_ alone decide most
  // neighbors — in the endgame, where sweeps actually stamp, nearly every
  // neighbor is complete and its summary/possession rows are never read.
  // The old single wave fetched all four lines unconditionally, which on
  // a mostly-complete neighborhood was 2x deg useless random lines per
  // sweep; the second wave below only touches rows the ladder will read.
  for (std::uint32_t i = 0; i < deg; ++i) {
    const NodeId v = topo_->neighbor(u, i);
    __builtin_prefetch(&count_[v], 0, 1);
    __builtin_prefetch(&active_[v], 0, 1);
  }
  for (std::uint32_t i = 0; i < deg; ++i) {
    const NodeId v = topo_->neighbor(u, i);
    if (v == u || v == kServer) continue;
    const std::uint32_t cv = count_[v];
    if (active_[v] == 0 || cv >= k_) continue;
    __builtin_prefetch(summary_missing_row(v), 0, 1);
    __builtin_prefetch(row(v), 0, 1);
  }
  for (std::uint32_t i = 0; i < deg; ++i) {
    const NodeId v = topo_->neighbor(u, i);
    if (v == u || v == kServer) continue;
    const std::uint32_t ver_v = count_[v];
    if (active_[v] == 0 || ver_v >= k_) continue;
    if (credit &&
        ledger_of(u, v).net(u, v) + 1 > static_cast<std::int64_t>(opt_.credit_limit)) {
      continue;
    }
    if (!summary_overlap(u, v)) continue;
    if (cache.is_useless(u, v, ver_u, ver_v)) continue;
    if (scan_pair(u, su, v, scan, /*guided=*/true)) return false;
    cache.note_useless(u, v, ver_u, ver_v);
  }
  return true;
}

void Engine::generate_node(NodeId u, Rng& rng, NodeId first_probe,
                           std::vector<Transfer>& out, DiffScan& scan,
                           ProbeCache& cache) {
  const std::uint32_t ver_u = count_[u];
  const std::uint64_t* su = resolve_sender_row(u, ver_u);
  const std::uint32_t slots = up_caps_[u];
  const std::uint32_t deg = topo_->degree(u);
  const std::size_t first_intent = out.size();
  const bool credit = opt_.credit_limit != 0 && u != kServer;

  for (std::uint32_t slot = 0; slot < slots; ++slot) {
    NodeId target = kNoNode;
    for (std::uint32_t probe = 0; probe < opt_.max_probes; ++probe) {
      // The caller consumed the very first below(deg) draw when it peeked
      // the target for prefetching; every later draw comes from the same
      // stream, so the sequence is exactly the historical one.
      const NodeId v = (slot == 0 && probe == 0)
                           ? first_probe
                           : topo_->neighbor(u, rng.below(deg));
      if (v == u || v == kServer) continue;  // nothing flows into the server
      const std::uint32_t ver_v = count_[v];
      if (active_[v] == 0 || ver_v >= k_) continue;
      // At most one upload per (u, v) pair per tick. Together with the
      // pre-tick ledger check below this keeps every admitted stream inside
      // CreditLimited::check_tick: the tick's delta on an ordered pair is in
      // {-1, 0, +1}, and +1 was pre-checked against the limit.
      bool repeat = false;
      for (std::size_t i = first_intent; i < out.size(); ++i) {
        if (out[i].to == v) { repeat = true; break; }
      }
      if (repeat) continue;
      if (credit && ledger_of(u, v).net(u, v) + 1 >
                        static_cast<std::int64_t>(opt_.credit_limit)) {
        continue;
      }
      if (!probe_viable(u, su, ver_u, v, ver_v, scan, cache)) continue;
      target = v;
      break;
    }
    if (target == kNoNode) {
      // Out of luck: idle for the rest of the tick. If no probe found a
      // target AND the whole neighborhood is provably non-viable, stamp the
      // node sated so future ticks skip it outright until it receives a
      // block (the stamp encodes ver+1 so any delivery invalidates it).
      // The stamp is unsound under sequential windows: a RECEIVER's prefix
      // growth slides its window forward over u's held blocks, creating
      // viability without u's version changing — so window mode never
      // stamps (the version-keyed probe cache carries the load instead).
      if (out.size() == first_intent && opt_.stream_window == 0 &&
          neighborhood_exhausted(u, su, scan, cache)) {
        sated_ver_[u] = ver_u + 1;
      }
      break;
    }
    out.push_back(Transfer{u, target, pick_from_scan(scan, rng)});
  }
}

void Engine::generate_range(std::uint64_t tick_base, NodeId first, NodeId last,
                            std::vector<Transfer>& out, DiffScan& scan,
                            ProbeCache& cache) {
  // Software-pipelined windows. The lead pass does everything that needs
  // no remote state — eligibility (all sequential arrays), RNG seeding,
  // the first neighbor draw — and prefetches the probe target's metadata
  // and possession row. The windows are double-buffered: window W+1's
  // lead pass runs BEFORE window W's emit pass, so every prefetch gets a
  // full window of emit work (microseconds) to complete instead of the
  // few dozen instructions a fused lead+emit would give the window's
  // first nodes. Nothing here consumes draws beyond what generate_node
  // historically consumed, and the emit order is still ascending node id.
  constexpr std::uint32_t kBatch = 16;
  struct Window {
    Rng rngs[kBatch];
    NodeId probe0[kBatch];
    bool eligible[kBatch];
    NodeId base = 0;
    std::uint32_t width = 0;
  };
  Window wins[2];

  const auto lead = [&](Window& w, NodeId base) {
    w.base = base;
    w.width = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kBatch, static_cast<std::uint64_t>(last) - base));
    for (std::uint32_t i = 0; i < w.width; ++i) {
      const NodeId u = base + i;
      w.eligible[i] = false;
      if (active_[u] == 0) continue;
      const std::uint32_t cu = count_[u];
      // A node proven exhausted at its current possession version emits
      // nothing and would emit nothing: skip it without touching its RNG
      // stream (the stream is derived per (tick, node) and consumed nowhere
      // else, so the emitted intent set — and every digest — is unchanged).
      if (cu == 0 || sated_ver_[u] == cu + 1) continue;
      if (up_caps_[u] == 0) continue;
      const std::uint32_t deg = topo_->degree(u);
      if (deg == 0) continue;
      w.eligible[i] = true;
      // This node's RNG stream is a pure function of (seed, tick, node), so
      // the intents it emits do not depend on which shard/thread runs it.
      w.rngs[i] = Rng(trial_seed(tick_base, u));
      const NodeId v = topo_->neighbor(u, w.rngs[i].below(deg));
      w.probe0[i] = v;
      __builtin_prefetch(&active_[v], 0, 1);
      __builtin_prefetch(&count_[v], 0, 1);
      const std::uint64_t* rv = row(v);
      __builtin_prefetch(rv, 0, 1);
      if (stride_ > 8) __builtin_prefetch(rv + stride_ - 1, 0, 1);
      // Deliberately NOT peeking probe 1's target here: a speculative
      // RNG-copy peek plus three more prefetches per slot was measured
      // ~2% slower end-to-end at n = 10^6 — the extra neighbor lookup and
      // prefetch traffic outweigh the occasional saved miss, because the
      // probe cache and sated-skip already resolve most second probes
      // without touching the arena.
    }
  };
  const auto emit = [&](Window& w) {
    for (std::uint32_t i = 0; i < w.width; ++i) {
      if (w.eligible[i]) {
        generate_node(w.base + i, w.rngs[i], w.probe0[i], out, scan, cache);
      }
    }
  };

  if (first >= last) return;
  lead(wins[0], first);
  std::uint32_t cur = 0;
  for (;;) {
    const NodeId next = wins[cur].base + wins[cur].width;
    if (next < last) {
      lead(wins[cur ^ 1], next);
      emit(wins[cur]);
      cur ^= 1;
    } else {
      emit(wins[cur]);
      break;
    }
  }
}

bool Engine::admit(Tick tick, const Transfer& tr, PairTable& delivered) {
  const NodeId v = tr.to;
  if (down_stamp_[v] != tick) {
    down_stamp_[v] = tick;
    down_used_[v] = 1;
    first_block_[v] = tr.block;
    if (opt_.credit_limit != 0) first_from_[v] = tr.from;
    return true;
  }
  std::uint32_t& used = down_used_[v];
  if (used >= down_caps_[v]) return false;  // kUnlimited never binds
  if (used == 1) {
    if (tr.block == first_block_[v]) return false;
    delivered.insert(delivery_key(v, first_block_[v]));  // lazy seed
  }
  if (!delivered.insert(delivery_key(v, tr.block))) return false;
  ++used;
  return true;
}

void Engine::plan_phases(Tick tick, std::vector<Transfer>& out, ThreadPool* pool) {
  if (tick == 0 || tick <= planned_tick_) {
    throw std::logic_error("scale::Engine: planned tick " + std::to_string(tick) +
                           " after tick " + std::to_string(planned_tick_) +
                           " (ticks must strictly increase from 1)");
  }
  const auto num_shards = static_cast<std::uint32_t>(shard_intents_.size());
  if (planned_tick_ == 0) {
    // First plan: reserve each sender shard's intent buffer at its worst
    // case (max_intents over its nodes), here on the planning thread, so
    // pool workers do not grow them (a raised capacity, or a one-slice
    // tick in shard 0 on this thread, still may). Growing hundreds of fine
    // shard buffers on the workers moved barter-det's setup_s, the next
    // engine build, +31% (E32).
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      const NodeId first = s * opt_.shard_nodes;
      const auto last = static_cast<NodeId>(
          std::min<std::uint64_t>(n_, std::uint64_t{first} + opt_.shard_nodes));
      std::uint64_t bound = 0;
      for (NodeId u = first; u < last; ++u) bound += max_intents(u, up_caps_[u]);
      shard_intents_[s].reserve(bound);
    }
  }
  planned_tick_ = tick;
  const bool timing = opt_.collect_phase_timings;
  auto stamp = std::chrono::steady_clock::time_point{};
  if (timing) stamp = std::chrono::steady_clock::now();

  // Arrivals since the last plan added fresh targets, so every "no viable
  // neighbor" stamp is suspect: wipe them all, once, serially. O(n) per
  // arrival-bearing tick — a flash crowd of m arrivals costs O(n + m), not
  // O(n * m), and tick streams without arrivals never pay it.
  if (sated_dirty_) {
    std::fill(sated_ver_.begin(), sated_ver_.end(), 0u);
    sated_dirty_ = false;
  }

  // Phase 1: intent generation, sharded by sender node range. Shards only
  // read the (frozen) swarm state and write their own vector + scheduler-
  // owned scratch, so running them on a pool is observationally identical to
  // the serial loop. begin_tick is the scheduler's serial hook (the riffle
  // scheduler advances its segment cursor in it); generate() emits each
  // shard's slice of the canonical sender-ordered stream. A tick begin_tick
  // claims as one slice (the riffle's) is generated by ONE call into shard
  // 0, on the calling thread, and the merge below walks only the shards in
  // use: a per-shard slice would cost two binary searches and an offset
  // apiece, and the fine sender shards would make that the riffle's whole
  // tick. Concatenated, both layouts are the same canonical stream.
  const bool one_slice = sched_->begin_tick(tick);
  const std::uint32_t shards_used = one_slice ? 1 : num_shards;
  const std::uint32_t width = one_slice ? n_ : opt_.shard_nodes;
  for_shards(one_slice ? nullptr : pool, shards_used, [&](std::uint32_t s) {
    auto& intents = shard_intents_[s];
    intents.clear();
    const auto first = static_cast<NodeId>(static_cast<std::uint64_t>(s) * width);
    const auto last = static_cast<NodeId>(
        std::min<std::uint64_t>(n_, static_cast<std::uint64_t>(first) + width));
    sched_->generate(tick, s, first, last, intents);
  });

  if (timing) {
    timings_.generate_seconds += seconds_since(stamp);
    stamp = std::chrono::steady_clock::now();
  }

  // Phase 2: receiver-sharded merge. Every cross-sender constraint —
  // download capacity, one delivery per (receiver, block) — is keyed on the
  // receiver alone, so receiver shards admit independently. Each shard sees
  // its receivers' intents in canonical node order (the counting-sort
  // scatter below is order-preserving), so its decisions match the
  // historical single-pass serial merge exactly; the accepted stream is
  // then reconstructed from per-intent accept flags in canonical order.
  const std::uint32_t R = recv_shards_;

  // 2a. Canonical-stream offsets per intent shard (serial, O(S)).
  for (std::uint32_t s = 0; s < shards_used; ++s) {
    intent_offsets_[s + 1] = intent_offsets_[s] + shard_intents_[s].size();
  }
  // Fits: the constructor and set_capacity keep intent_bound_ <= 2^32 - 1.
  const auto total = static_cast<std::uint32_t>(intent_offsets_[shards_used]);
  std::fill(bucket_offsets_.begin(), bucket_offsets_.end(), 0u);
  sparse_tick_ = total <= kSparseTickIntents;
  if (total == 0) {
    if (timing) timings_.merge_seconds += seconds_since(stamp);
    return;
  }
  if (sparse_tick_) {
    // Serial admission in canonical order — the same constraints in the
    // same order as the sharded path (which replicates the historical
    // serial merge), so the accepted stream is identical; it just skips the
    // counting/scatter/flag scaffolding, whose fixed O(S * R) cost would
    // dominate million-tick deterministic runs of a few hundred intents per
    // tick. apply_merged sees sparse_tick_ and commits serially too.
    PairTable& delivered = delivered_[0];
    delivered.begin_tick(total);
    for (std::uint32_t s = 0; s < shards_used; ++s) {
      for (const Transfer& tr : shard_intents_[s]) {
        if (admit(tick, tr, delivered)) out.push_back(tr);
      }
    }
    if (timing) timings_.merge_seconds += seconds_since(stamp);
    return;
  }

  // 2b. Count intents per (intent shard, receiver shard).
  for_shards(pool, shards_used, [&](std::uint32_t s) {
    std::uint32_t* cnt = scatter_pos_.data() + static_cast<std::size_t>(s) * R;
    std::fill_n(cnt, R, 0u);
    for (const Transfer& tr : shard_intents_[s]) ++cnt[recv_shard_of(tr.to)];
  });

  // 2c. Bucket offsets; counts become scatter cursors (serial, O(S * R)).
  std::uint32_t running = 0;
  for (std::uint32_t r = 0; r < R; ++r) {
    bucket_offsets_[r] = running;
    for (std::uint32_t s = 0; s < shards_used; ++s) {
      std::uint32_t& cell = scatter_pos_[static_cast<std::size_t>(s) * R + r];
      const std::uint32_t c = cell;
      cell = running;
      running += c;
    }
  }
  bucket_offsets_[R] = running;  // == total

  // 2d. Scatter intents into receiver buckets; cursor ranges are disjoint
  // by construction, and walking intent shards in ascending s keeps each
  // bucket in canonical stream order.
  if (bucket_.size() < total) {
    bucket_.reserve(total);
    advise_hugepages(bucket_.data(), static_cast<std::size_t>(total) * sizeof(MergeItem));
    bucket_.resize(total);
  }
  if (accept_.size() < total) {
    accept_.reserve(total);
    advise_hugepages(accept_.data(), total);
    accept_.resize(total);
  }
  for_shards(pool, shards_used, [&](std::uint32_t s) {
    std::uint32_t* cur = scatter_pos_.data() + static_cast<std::size_t>(s) * R;
    auto g = static_cast<std::uint32_t>(intent_offsets_[s]);
    for (const Transfer& tr : shard_intents_[s]) {
      bucket_[cur[recv_shard_of(tr.to)]++] = MergeItem{tr, g++};
    }
  });

  // 2e. Admission per receiver shard (admit): download capacity + per-
  // (receiver, block) dedup, each shard with its own epoch-stamped table and
  // its own slice of the admission stamps.
  for_shards(pool, R, [&](std::uint32_t r) {
    const std::uint32_t lo = bucket_offsets_[r];
    const std::uint32_t hi = bucket_offsets_[r + 1];
    PairTable& delivered = delivered_[r];
    delivered.begin_tick(hi - lo);
    // (No software prefetch here: each receiver shard's working set —
    // its slice of the admission stamps — is small enough to stay cached,
    // and measured prefetching made this loop slower.)
    for (std::uint32_t i = lo; i < hi; ++i) {
      accept_[bucket_[i].idx] = admit(tick, bucket_[i].tr, delivered) ? 1 : 0;
    }
  });

  // 2f. Emit the accepted subsequence in canonical order: count accepted
  // per intent shard, prefix, then scatter into the output slots.
  for_shards(pool, shards_used, [&](std::uint32_t s) {
    std::uint32_t acc = 0;
    for (std::size_t g = intent_offsets_[s]; g < intent_offsets_[s + 1]; ++g) {
      acc += accept_[g];
    }
    emit_offsets_[s + 1] = acc;
  });
  emit_offsets_[0] = 0;
  for (std::uint32_t s = 0; s < shards_used; ++s) emit_offsets_[s + 1] += emit_offsets_[s];
  const std::size_t base = out.size();
  out.resize(base + emit_offsets_[shards_used]);
  for_shards(pool, shards_used, [&](std::uint32_t s) {
    auto g = intent_offsets_[s];
    std::size_t w = base + emit_offsets_[s];
    for (const Transfer& tr : shard_intents_[s]) {
      if (accept_[g++]) out[w++] = tr;
    }
  });

  if (timing) timings_.merge_seconds += seconds_since(stamp);
}

void Engine::plan(Tick tick, std::vector<Transfer>& out) {
  lockstep_ = true;  // lockstep driving began; run() may no longer be used
  plan_phases(tick, out, nullptr);
}

void Engine::note_delivery(NodeId to, BlockId block, std::uint64_t word) {
  const std::uint32_t w = block >> 6;
  const std::size_t g = static_cast<std::size_t>(to) * sum_stride_ + (w >> 6);
  const std::uint64_t chunk_bit = 1ULL << (w & 63);
  summary_has_[g] |= chunk_bit;
  // The word just filled up (tail-masked for the last one): v no longer
  // misses anything in this chunk, so senders whose holdings sit entirely
  // inside it reject v at the summary level from now on.
  if (word == word_full_mask(w)) summary_missing_[g] &= ~chunk_bit;
  // No separate version bump: the caller's ++count_[to] IS the possession
  // version change, invalidating every cached verdict about `to` — on both
  // sides: as receiver (su \ sv changed) and as sender (sv \ su changed) —
  // and un-sating the node if a neighborhood sweep had written it off.
}

bool Engine::deliver_block(NodeId to, BlockId block) {
  std::uint64_t& word = row(to)[block >> 6];
  const std::uint64_t bit = 1ULL << (block & 63);
  assert((word & bit) == 0 && "duplicate delivery slipped through the merge");
  word |= bit;
  note_delivery(to, block, word);
  return ++count_[to] >= k_;
}

void Engine::apply(Tick tick, std::span<const Transfer> accepted) {
  const bool timing = opt_.collect_phase_timings;
  auto stamp = std::chrono::steady_clock::time_point{};
  if (timing) stamp = std::chrono::steady_clock::now();
  commit_serial(tick, accepted);
  if (timing) timings_.apply_seconds += seconds_since(stamp);
}

void Engine::commit_serial(Tick tick, std::span<const Transfer> accepted) {
  for (const Transfer& tr : accepted) {
    ++freq_[tr.block];
    ++uploads_per_node_[tr.from];
    if (deliver_block(tr.to, tr.block)) {
      completion_[tr.to] = tick;
      --num_incomplete_;
      if (cfg_.depart_on_complete) leaving_.push_back(tr.to);
    }
    // Mirrors CreditLimited::commit_tick: server-involved transfers never
    // touch the ledger.
    if (opt_.credit_limit != 0 && tr.from != kServer) {
      ledger_of(tr.from, tr.to).record(tr.from, tr.to);
    }
  }
}

void Engine::apply_merged(Tick tick, std::span<const Transfer> accepted,
                          ThreadPool* pool) {
  const bool timing = opt_.collect_phase_timings;
  auto stamp = std::chrono::steady_clock::time_point{};
  if (timing) stamp = std::chrono::steady_clock::now();
  if (accepted.empty()) {
    if (timing) timings_.apply_seconds += seconds_since(stamp);
    return;
  }
  if (sparse_tick_) {
    // The sparse merge skipped the buckets and accept flags this commit
    // path reads, and at these stream sizes the serial loop wins anyway.
    // (leaving_ may collect completions in stream order rather than
    // receiver-shard order; deactivation is commutative, so the next tick's
    // state is identical either way.)
    commit_serial(tick, accepted);
    if (timing) timings_.apply_seconds += seconds_since(stamp);
    return;
  }
  const std::uint32_t R = recv_shards_;

  // 3a. Receiver-side commit from the merge buckets: possession bits,
  // summary bitmaps, possession versions, per-node counts, completion ticks
  // and the depart-on-complete queue. Shard r owns its receivers' rows and
  // counters exclusively; completions accumulate per shard and fold into
  // num_incomplete_ afterwards.
  for_shards(pool, R, [&](std::uint32_t r) {
    std::uint32_t* freq_row = freq_scratch_.shard(r);
    auto& leaving = leaving_shards_[r];
    leaving.clear();
    std::uint32_t completions = 0;
    const std::uint32_t hi = bucket_offsets_[r + 1];
    for (std::uint32_t i = bucket_offsets_[r]; i < hi; ++i) {
      if (i + 8 < hi) {
        const MergeItem& ahead = bucket_[i + 8];
        __builtin_prefetch(&accept_[ahead.idx], 0, 1);
        __builtin_prefetch(&row(ahead.tr.to)[ahead.tr.block >> 6], 1, 1);
        __builtin_prefetch(&count_[ahead.tr.to], 1, 1);
        __builtin_prefetch(
            &summary_has_[static_cast<std::size_t>(ahead.tr.to) * sum_stride_], 1, 1);
        __builtin_prefetch(
            &summary_missing_[static_cast<std::size_t>(ahead.tr.to) * sum_stride_], 1, 1);
      }
      if (accept_[bucket_[i].idx] == 0) continue;
      const Transfer& tr = bucket_[i].tr;
      ++freq_row[tr.block];
      // deliver_block touches only receiver-owned state (row/summaries/
      // count), so the sharded and serial commits stay observationally
      // identical.
      if (deliver_block(tr.to, tr.block)) {
        completion_[tr.to] = tick;
        ++completions;
        if (cfg_.depart_on_complete) leaving.push_back(tr.to);
      }
    }
    completions_scratch_[r] = completions;
  });
  for (std::uint32_t r = 0; r < R; ++r) {
    num_incomplete_ -= completions_scratch_[r];
    completions_scratch_[r] = 0;
    if (cfg_.depart_on_complete) {
      leaving_.insert(leaving_.end(), leaving_shards_[r].begin(),
                      leaving_shards_[r].end());
    }
  }

  // 3b. Fold per-shard frequency deltas into freq_ in fixed shard order.
  freq_scratch_.reduce_into(freq_.data(), pool);

  // 3c. Sender-side upload accounting. The accepted stream is non-
  // decreasing in `from` (canonical order is sender node order), so sender
  // shards find their contiguous slice by binary search and own their
  // uploads_per_node_ range exclusively. In credit mode the same pass then
  // commits ledgers_[r], every pair whose lower id lies in shard r, in one
  // go: transfers the lower id received come from receiver bucket r, those
  // it sent from the sender slice (server uploads excepted, as in
  // commit_serial). Only shard r writes ledgers_[r] and a pair's net is a
  // plain sum, so the ledger is the one apply() builds. Both halves of a
  // pair whose two nodes each took exactly one transfer this tick, from
  // each other, are skipped: the exchange nets to 0 within the tick (§3.2),
  // and skipping it spares the ledger an insert and an erase. The stamp
  // test gives the same answer from either half and both halves are
  // committed here, so the ledger between ticks does not depend on --jobs
  // (EXPERIMENTS.md E29). (Recording the received half inside 3a instead
  // measured slower at jobs 1 and 4 alike, E24, and no faster once netted,
  // E29.)
  for_shards(pool, R, [&](std::uint32_t r) {
    const NodeId first = static_cast<NodeId>(r) * recv_width_;
    const NodeId last = static_cast<NodeId>(
        std::min<std::uint64_t>(n_, static_cast<std::uint64_t>(first) + recv_width_));
    const auto lo = std::partition_point(
        accepted.begin(), accepted.end(),
        [&](const Transfer& t) { return t.from < first; });
    const auto hi = std::partition_point(
        lo, accepted.end(), [&](const Transfer& t) { return t.from < last; });
    for (auto it = lo; it != hi; ++it) ++uploads_per_node_[it->from];
    if (opt_.credit_limit == 0) return;
    // x's only admitted receive this tick came from y. (The count keeps the
    // test exact even for a schedule that sends one pair two blocks in a
    // tick; no schedule does today.)
    const auto only_from = [&](NodeId x, NodeId y) {
      return down_stamp_[x] == tick && down_used_[x] == 1 && first_from_[x] == y;
    };
    const auto exchanged = [&](NodeId a, NodeId b) {
      return only_from(a, b) && only_from(b, a);
    };
    CreditLedger& ledger = ledgers_[r].ledger;
    for (std::uint32_t i = bucket_offsets_[r]; i < bucket_offsets_[r + 1]; ++i) {
      const Transfer& tr = bucket_[i].tr;
      if (tr.to < tr.from && accept_[bucket_[i].idx] != 0 && !exchanged(tr.to, tr.from)) {
        ledger.record(tr.from, tr.to);
      }
    }
    for (auto it = lo; it != hi; ++it) {
      if (it->from != kServer && it->from < it->to && !exchanged(it->from, it->to)) {
        ledger.record(it->from, it->to);
      }
    }
  });
  if (timing) timings_.apply_seconds += seconds_since(stamp);
}

void Engine::deactivate(NodeId node) {
  if (node == kServer || node >= n_) {
    throw std::invalid_argument("scale: cannot deactivate node " + std::to_string(node));
  }
  if (active_[node] == 0) return;
  active_[node] = 0;
  ++num_departed_;
  active_slots_ -= up_caps_[node];
  const std::uint64_t* r = row(node);
  for (std::uint32_t w = 0; w < stride_; ++w) {
    std::uint64_t held = r[w];
    while (held != 0) {
      const auto b = (w << 6) + static_cast<std::uint32_t>(std::countr_zero(held));
      held &= held - 1;
      --freq_[b];
    }
  }
  if (count_[node] < k_) --num_incomplete_;
  // No summary/version/cache bookkeeping: a departure removes viability, it
  // never creates any, so cached "useless" verdicts and sated stamps about
  // the survivors stay valid.
}

void Engine::activate(NodeId node) {
  if (node == kServer || node >= n_) {
    throw std::invalid_argument("scale: cannot activate node " + std::to_string(node));
  }
  if (active_[node] != 0) return;
  active_[node] = 1;
  --num_departed_;
  active_slots_ += up_caps_[node];
  const std::uint64_t* r = row(node);
  for (std::uint32_t w = 0; w < stride_; ++w) {
    std::uint64_t held = r[w];
    while (held != 0) {
      const auto b = (w << 6) + static_cast<std::uint32_t>(std::countr_zero(held));
      held &= held - 1;
      ++freq_[b];
    }
  }
  if (count_[node] < k_) ++num_incomplete_;
  // Unlike deactivate, an arrival CREATES viability: the new node is a fresh
  // target, so "no viable neighbor" verdicts about its neighbors are stale.
  // Sated stamps are not version-keyed (that is their point), so they must
  // go; the wipe is batched to once per plan, keeping a flash crowd of m
  // arrivals at O(n + m), not O(n * m). Probe-cache entries survive: they
  // are exact functions of both endpoints' rows, pinned by versions, and no
  // entry about an inactive node is ever written.
  sated_dirty_ = true;
}

void Engine::set_capacity(NodeId node, std::uint32_t up, std::uint32_t down) {
  if (node >= n_) {
    throw std::invalid_argument("scale: set_capacity on node " + std::to_string(node));
  }
  if (down == 0 || (node != kServer && down != kUnlimited && down < up)) {
    throw EngineViolation("scale: set_capacity requires d >= u and d >= 1");
  }
  const std::uint64_t bound =
      intent_bound_ - max_intents(node, up_caps_[node]) + max_intents(node, up);
  check_intent_bound(bound);
  intent_bound_ = bound;
  if (active_[node] != 0) {
    active_slots_ = active_slots_ - up_caps_[node] + up;
  }
  up_caps_[node] = up;
  down_caps_[node] = down;
  // No sated invalidation: a sated verdict says "no neighbor has a useful
  // block for me to send", which is about possession, not slots.
}

void Engine::open_tick() {
  ++tick_;
  // Due config departures, then the depart-on-complete queue, both at the
  // START of the tick, as in core's run_with_state.
  while (next_departure_ < departures_.size() &&
         departures_[next_departure_].first <= tick_) {
    deactivate(departures_[next_departure_].second);
    ++next_departure_;
  }
  if (cfg_.depart_on_complete) {
    for (const NodeId c : leaving_) deactivate(c);
    leaving_.clear();
  }
}

std::span<const Transfer> Engine::step(ThreadPool* pool) {
  lockstep_ = true;  // the stream driver owns the loop; run() is poisoned
  open_tick();
  accepted_.clear();
  plan_phases(tick_, accepted_, pool);
  apply_merged(tick_, accepted_, pool);
  return accepted_;
}

BlockId Engine::first_missing(NodeId node) const {
  const std::uint64_t* miss = summary_missing_row(node);
  for (std::uint32_t g = 0; g < sum_stride_; ++g) {
    if (miss[g] == 0) continue;
    const auto w = (g << 6) + static_cast<std::uint32_t>(std::countr_zero(miss[g]));
    const std::uint64_t gap = ~row(node)[w] & word_full_mask(w);
    return (w << 6) + static_cast<std::uint32_t>(std::countr_zero(gap));
  }
  return k_;  // complete
}

RunResult Engine::run(unsigned jobs) {
  if (lockstep_) {
    throw std::logic_error(
        "scale::Engine::run: engine is being driven in lockstep (plan/apply)");
  }
  // Per-call phase accounting: each run() window reports only its own
  // ticks. (When collection is off the fields simply stay zero — never
  // stale values from a previous instrumented call.)
  timings_ = PhaseTimings{};
  ThreadPool pool(jobs);

  // The tick counter, the departure cursor and the leaving queue are
  // members, so a capped call resumes exactly where the previous one
  // stopped — splitting a run into windows changes no transfer and no
  // completion tick. The tick record (and so the stall window) is per call.
  const Tick cap = cfg_.max_ticks != 0 ? cfg_.max_ticks
                                       : default_tick_cap(cfg_.num_nodes, cfg_.num_blocks);
  TickRecord record(cfg_);
  Tick executed = 0;  // this call's ticks; tick_ numbers the global stream
  while (num_incomplete_ != 0 && executed < cap) {
    ++executed;
    open_tick();
    if (num_incomplete_ == 0) break;  // survivors may already all be done
    accepted_.clear();
    plan_phases(tick_, accepted_, &pool);
    apply_merged(tick_, accepted_, &pool);
    if (record.record(accepted_, active_slots_, true)) break;
  }
  return finish(record, executed, num_incomplete_ == 0);
}

RunResult Engine::finish(TickRecord& record, Tick ticks_executed, bool completed) const {
  // Copies: the engine stays resumable.
  return record.finish(ticks_executed, completed, num_departed_,
                       {completion_.begin() + 1, completion_.end()}, uploads_per_node_);
}

std::uint64_t Engine::credit_pairs() const {
  std::uint64_t pairs = 0;
  for (const LedgerShard& shard : ledgers_) pairs += shard.ledger.num_pairs();
  return pairs;
}

std::uint64_t Engine::state_bytes() const {
  std::uint64_t bytes = bits_.size() * sizeof(std::uint64_t);
  bytes += (summary_has_.size() + summary_missing_.size()) * sizeof(std::uint64_t);
  bytes += sated_ver_.size() * sizeof(std::uint32_t);
  bytes += count_.size() * sizeof(std::uint32_t);
  bytes += completion_.size() * sizeof(Tick);
  bytes += active_.size();
  bytes += freq_.size() * sizeof(std::uint32_t);
  bytes += up_caps_.size() * sizeof(std::uint32_t);
  bytes += down_caps_.size() * sizeof(std::uint32_t);
  bytes += uploads_per_node_.size() * sizeof(Count);
  bytes += down_used_.size() * sizeof(std::uint32_t);
  bytes += down_stamp_.size() * sizeof(Tick);
  bytes += first_block_.size() * sizeof(BlockId);
  bytes += first_from_.size() * sizeof(NodeId);  // credit mode only
  bytes += full_row_.capacity() * sizeof(std::uint64_t);
  // Tick scratch: the per-shard intent vectors, diff-scan recordings and
  // probe caches, the admission tables, the merge buckets/flags/offsets,
  // apply scratch and the accepted stream all persist between ticks at
  // high-water capacity — at n = 10^6 they are a triple-digit-MiB chunk of
  // the real footprint the old accounting omitted (it reported 161 MiB
  // against a 503 MiB RSS).
  for (const auto& intents : shard_intents_) {
    bytes += intents.capacity() * sizeof(Transfer);
  }
  bytes += sched_->memory_bytes();  // randomized probe scratch, riffle segments
  for (const PairTable& table : delivered_) bytes += table.memory_bytes();
  bytes += intent_offsets_.capacity() * sizeof(std::size_t);
  bytes += scatter_pos_.capacity() * sizeof(std::uint32_t);
  bytes += bucket_offsets_.capacity() * sizeof(std::uint32_t);
  bytes += bucket_.capacity() * sizeof(MergeItem);
  bytes += accept_.capacity();
  bytes += emit_offsets_.capacity() * sizeof(std::uint32_t);
  bytes += freq_scratch_.memory_bytes();
  for (const auto& leaving : leaving_shards_) bytes += leaving.capacity() * sizeof(NodeId);
  bytes += completions_scratch_.capacity() * sizeof(std::uint32_t);
  bytes += leaving_.capacity() * sizeof(NodeId);
  bytes += accepted_.capacity() * sizeof(Transfer);
  bytes += departures_.capacity() * sizeof(std::pair<Tick, NodeId>);
  for (const LedgerShard& shard : ledgers_) bytes += shard.ledger.memory_bytes();
  bytes += topo_->memory_bytes();
  return bytes;
}

}  // namespace pob::scale
