// Helpers shared by the experiment binaries: standard flag handling and the
// randomized-trial plumbing (per-run seeds, censoring, CSV output).

#pragma once

#include <chrono>
#include <functional>
#include <iostream>
#include <memory>

#include "pob/core/engine.h"
#include "pob/exp/cli.h"
#include "pob/exp/parallel.h"
#include "pob/exp/sweep.h"
#include "pob/exp/table.h"
#include "pob/overlay/builders.h"
#include "pob/overlay/overlay.h"
#include "pob/rand/randomized.h"

namespace pob::bench {

/// Prints the table, as text or CSV depending on --csv.
inline void emit(const Args& args, const Table& table) {
  if (args.has("csv")) {
    table.write_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

/// Runs every repeat_trials-style sweep of a bench binary through the
/// deterministic parallel runner, honoring --jobs (default: hardware
/// concurrency; --jobs=1 restores serial execution) and accumulating
/// wall-clock and trial counts so the binary can report throughput.
class TrialRunner {
 public:
  explicit TrialRunner(const Args& args)
      : jobs_(jobs_from_flag(args.get_int("jobs", 0))) {}

  TrialStats operator()(std::uint32_t runs,
                        const std::function<TrialOutcome(std::uint32_t)>& trial) {
    const auto start = std::chrono::steady_clock::now();
    const TrialStats stats = repeat_trials_parallel(runs, jobs_, trial);
    seconds_ += std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                    .count();
    trials_ += runs;
    return stats;
  }

  /// Emits "# sweep: ..." with wall-clock and trials/sec; a comment line, so
  /// CSV consumers and the BENCH_*.json scraper can keep or skip it.
  void report(std::ostream& os) const {
    const double rate = seconds_ > 0.0 ? static_cast<double>(trials_) / seconds_ : 0.0;
    os << "# sweep: " << trials_ << " trials in " << fmt(seconds_, 2) << " s ("
       << fmt(rate, 1) << " trials/s, jobs=" << (jobs_ == 0 ? default_jobs() : jobs_)
       << ")\n";
  }

 private:
  unsigned jobs_;
  std::uint64_t trials_ = 0;
  double seconds_ = 0.0;
};

/// A randomized-cooperative trial on a fixed overlay.
inline TrialOutcome randomized_trial(const EngineConfig& cfg,
                                     std::shared_ptr<const Overlay> overlay,
                                     RandomizedOptions opt, std::uint64_t seed) {
  RandomizedScheduler sched(std::move(overlay), opt, Rng(seed));
  const RunResult r = run(cfg, sched);
  TrialOutcome out;
  out.completed = r.completed;
  if (r.completed) {
    out.completion = static_cast<double>(r.completion_tick);
    out.mean_completion = r.mean_client_completion();
  }
  return out;
}

/// A credit-limited randomized trial on a freshly drawn random regular
/// overlay (a new graph per run, like re-running the experiment).
inline TrialOutcome credit_trial(const EngineConfig& cfg, std::uint32_t degree,
                                 std::uint32_t credit, RandomizedOptions opt,
                                 std::uint64_t seed) {
  Rng graph_rng(seed * 2654435761u + degree);
  auto overlay = std::make_shared<GraphOverlay>(
      make_random_regular(cfg.num_nodes, degree, graph_rng));
  CreditRandomized cr = make_credit_randomized(std::move(overlay), opt,
                                               Rng(seed), credit);
  const RunResult r = run(cfg, *cr.scheduler, cr.mechanism.get());
  TrialOutcome out;
  out.completed = r.completed;
  if (r.completed) {
    out.completion = static_cast<double>(r.completion_tick);
    out.mean_completion = r.mean_client_completion();
  }
  return out;
}

}  // namespace pob::bench
