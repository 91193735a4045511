// Deterministic parallel trial execution.
//
// Randomized sweeps (Figures 3-7, the barter/credit tables) need hundreds of
// independent trials; running them serially leaves every core but one idle.
// The pieces here parallelize the *trials* while keeping the aggregate
// statistics bit-identical to the serial runner: each trial's RNG seed is a
// pure function of its index (never of thread or schedule), outcomes land in
// an index-addressed slot, and aggregation happens in index order on the
// calling thread.

#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "pob/core/hash.h"
#include "pob/exp/sweep.h"

namespace pob {

/// Derives the RNG seed for trial `trial` from a base seed, splitmix64-style.
/// Depends only on (base, trial) — never on thread assignment — so trial i
/// sees the same seed at any --jobs setting. Nearby trial indices map to
/// uncorrelated seeds (unlike `base + i`, which hands xoshiro's seeding
/// nearly identical inputs for every run of a sweep point).
///
/// Inline because the scale engine derives a seed per (tick, node) — twice,
/// nested — in its hottest loop.
inline std::uint64_t trial_seed(std::uint64_t base, std::uint32_t trial) {
  // Two splitmix64 steps: the first diffuses the base, the second mixes in
  // the trial index, so seeds for consecutive trials share no structure.
  return mix64(mix64(base) ^
               (0xd1342543de82ef95ULL * (static_cast<std::uint64_t>(trial) + 1)));
}

/// Hardware concurrency, with a floor of 1 when the runtime reports 0.
unsigned default_jobs();

/// Validates a --jobs flag value and narrows it to a worker count. 0 means
/// "use default_jobs()" (resolved later); negative values are rejected rather
/// than wrapped through the unsigned conversion; values above 4x
/// default_jobs() are clamped to that cap (a larger value is always a typo,
/// and spawning it would thread-bomb the machine).
unsigned jobs_from_flag(std::int64_t jobs);

/// A small self-scheduling thread pool. Work is claimed from a shared index
/// range in chunks (fetch_add on an atomic cursor), so fast threads
/// automatically take over the items a slow thread never reached — the
/// load-balancing benefit of work stealing without per-thread deques.
///
/// The pool owns jobs-1 worker threads; the thread calling parallel_for
/// participates as the jobs-th worker.
class ThreadPool {
 public:
  /// `jobs` = total worker count, including the calling thread; 0 selects
  /// default_jobs(). A pool of size 1 runs everything inline.
  explicit ThreadPool(unsigned jobs = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned jobs() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Runs body(i) for every i in [0, count), across the pool. Blocks until
  /// all items finish. If any body throws, the first exception is rethrown
  /// here after the remaining items complete. Not reentrant.
  void parallel_for(std::uint32_t count,
                    const std::function<void(std::uint32_t)>& body);

 private:
  void worker_loop();
  void drain(const std::function<void(std::uint32_t)>& body, std::uint32_t count,
             std::uint32_t chunk);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable all_done_;
  // Dispatch state, all guarded by mu_. Workers adopt a dispatch under the
  // lock (copying body/count/chunk and incrementing in_flight_), so drain()
  // touches no shared non-atomic state; parallel_for returns only once every
  // adopting worker has left drain(), never just when the items ran out —
  // otherwise a preempted worker could wake into the *next* dispatch's
  // cursors while holding the previous (already destroyed) body.
  std::uint64_t generation_ = 0;  // bumped per parallel_for dispatch
  bool stop_ = false;
  const std::function<void(std::uint32_t)>* body_ = nullptr;
  std::uint32_t count_ = 0;
  std::uint32_t chunk_ = 1;
  std::uint32_t in_flight_ = 0;  // workers currently inside drain()
  std::atomic<std::uint32_t> next_{0};
  std::atomic<std::uint32_t> done_{0};
  std::exception_ptr error_;  // guarded by mu_
};

/// Per-shard accumulation scratch for parallel reductions: `shards` rows of
/// `width` zero-initialized counters. Writers own one row each (disjoint, so
/// no synchronization), and reduce_into() folds the rows into a target array
/// in ascending shard order — a fixed order, so the reduction is bit-exact
/// for any element type, including floating point — then re-zeroes the rows
/// so the scratch is ready for the next round. The row-major layout keeps
/// each writer's row contiguous (no false sharing between shards beyond one
/// cache line at row boundaries).
template <typename T>
class ShardScratch {
 public:
  /// (Re)shapes to `shards` x `width` and zeroes everything. Keeps capacity.
  void configure(std::uint32_t shards, std::size_t width) {
    shards_ = shards;
    width_ = width;
    data_.assign(static_cast<std::size_t>(shards) * width, T{});
  }

  std::uint32_t shards() const { return shards_; }
  std::size_t width() const { return width_; }

  /// Row `s`, for exclusive use by whichever worker runs shard `s`.
  T* shard(std::uint32_t s) { return data_.data() + static_cast<std::size_t>(s) * width_; }

  /// out[i] += sum over rows of row[s][i] (ascending s), then zeroes the
  /// rows. `out` must have at least width() elements. When a pool with more
  /// than one worker is given and the width is large enough to amortize a
  /// dispatch, the element range is chunked across the pool; per-element
  /// summation order is ascending-s either way, so results are identical.
  void reduce_into(T* out, ThreadPool* pool = nullptr) {
    const auto fold = [&](std::size_t lo, std::size_t hi) {
      for (std::uint32_t s = 0; s < shards_; ++s) {
        T* row = shard(s);
        for (std::size_t i = lo; i < hi; ++i) {
          out[i] += row[i];
          row[i] = T{};
        }
      }
    };
    constexpr std::size_t kParallelGrain = 4096;
    if (pool != nullptr && pool->jobs() > 1 && width_ >= 2 * kParallelGrain) {
      const auto chunks =
          static_cast<std::uint32_t>((width_ + kParallelGrain - 1) / kParallelGrain);
      pool->parallel_for(chunks, [&](std::uint32_t c) {
        const std::size_t lo = static_cast<std::size_t>(c) * kParallelGrain;
        fold(lo, std::min(width_, lo + kParallelGrain));
      });
    } else {
      fold(0, width_);
    }
  }

  std::uint64_t memory_bytes() const { return data_.capacity() * sizeof(T); }

 private:
  std::uint32_t shards_ = 0;
  std::size_t width_ = 0;
  std::vector<T> data_;
};

/// As repeat_trials, but runs trials on `jobs` threads (0 = default_jobs(),
/// 1 = the serial runner). The returned TrialStats is bit-identical to
/// repeat_trials(runs, trial) for every `jobs` value: outcomes are collected
/// per index and aggregated in index order. `trial` must be safe to call
/// concurrently from multiple threads with distinct indices.
TrialStats repeat_trials_parallel(
    std::uint32_t runs, unsigned jobs,
    const std::function<TrialOutcome(std::uint32_t)>& trial);

}  // namespace pob
