// Helpers shared by the experiment binaries: standard flag handling, the
// randomized-trial plumbing (per-run seeds, censoring, CSV output), and the
// machine-readable --json result format CI archives as BENCH_*.json.

#pragma once

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pob/check/oracle.h"
#include "pob/core/engine.h"
#include "pob/exp/cli.h"
#include "pob/exp/parallel.h"
#include "pob/exp/sweep.h"
#include "pob/exp/table.h"
#include "pob/overlay/builders.h"
#include "pob/overlay/overlay.h"
#include "pob/rand/randomized.h"
#include "pob/scale/engine.h"

#if __has_include(<sys/resource.h>)
#include <sys/resource.h>
#endif

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

/// A flat JSON object a bench binary fills with its headline numbers and
/// writes via --json=<path> (CI uploads these as artifacts, so throughput
/// history survives the build logs). Values render on insertion; insertion
/// order is preserved. Keys and strings must not need JSON escaping — bench
/// metadata never does.
class JsonReport {
 public:
  JsonReport& count(const std::string& key, std::uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonReport& num(const std::string& key, double value) {
    std::ostringstream os;
    os.precision(6);
    os << std::fixed << value;
    fields_.emplace_back(key, os.str());
    return *this;
  }
  JsonReport& str(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, '"' + value + '"');
    return *this;
  }
  JsonReport& flag(const std::string& key, bool value) {
    fields_.emplace_back(key, value ? "true" : "false");
    return *this;
  }
  /// The certificate pair every certified bench emits under the same keys,
  /// so CI can grep `certified_price` out of any BENCH_*.json: the pob/flow
  /// oracle's lower bound T* and the simulated-T / T* ratio.
  JsonReport& certified(std::uint64_t lower_bound, double price) {
    return count("certified_lower_bound", lower_bound).num("certified_price", price);
  }

  /// Writes to the --json=<path> flag's target, or to `fallback` when the
  /// flag is absent and a fallback is given. Returns false (with a note on
  /// stderr) when the file cannot be opened; true otherwise, including the
  /// silent no-op when there is nowhere to write.
  bool write(const Args& args, const std::string& fallback = "") const {
    const std::string path = args.get_string("json", fallback);
    if (path.empty()) return true;
    std::ofstream os(path);
    if (!os) {
      std::cerr << "cannot write " << path << "\n";
      return false;
    }
    os << "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i != 0) os << ", ";
      os << '"' << fields_[i].first << "\": " << fields_[i].second;
    }
    os << "}\n";
    std::cout << "# wrote " << path << "\n";
    return true;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// The visible hardware concurrency, for bench JSON: a scaling trajectory
/// is uninterpretable without knowing how many threads the host exposed.
inline unsigned hw_threads() { return std::thread::hardware_concurrency(); }

/// The container CPU quota in (possibly fractional) cores, from cgroup v2
/// (/sys/fs/cgroup/cpu.max) or v1 (cpu.cfs_quota_us / cpu.cfs_period_us);
/// 0.0 when unlimited or undetectable. CI runners and dev containers often
/// cap CPU well below hw_threads — the quota is the number a jobs sweep is
/// actually bounded by, so the JSON records both.
inline double cpu_quota_cores() {
  if (std::ifstream v2("/sys/fs/cgroup/cpu.max"); v2) {
    std::string quota;
    long period = 0;
    if ((v2 >> quota >> period) && quota != "max" && period > 0) {
      try {
        return std::stod(quota) / static_cast<double>(period);
      } catch (const std::exception&) {
        return 0.0;
      }
    }
    return 0.0;
  }
  std::ifstream q("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
  std::ifstream p("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
  long quota = 0;
  long period = 0;
  if ((q >> quota) && (p >> period) && quota > 0 && period > 0) {
    return static_cast<double>(quota) / static_cast<double>(period);
  }
  return 0.0;
}

/// Appends the standard host-context fields every throughput bench reports.
inline JsonReport& add_host_fields(JsonReport& json) {
  return json.count("hw_threads", hw_threads())
      .num("cpu_quota_cores", cpu_quota_cores());
}

/// This process's peak resident set in KiB, 0 where getrusage is missing.
inline std::uint64_t peak_rss_kb() {
#if __has_include(<sys/resource.h>)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    // ru_maxrss is KiB on Linux (bytes on macOS; close enough for a trend
    // line, and this repo's CI is Linux).
    return static_cast<std::uint64_t>(usage.ru_maxrss);
  }
#endif
  return 0;
}

/// The effective job counts of --sweep=1,2,4,8, or just --jobs without it.
/// jobs_from_flag clamps oversized requests to 4x the core count, so on
/// small hosts several requested values can collapse to the same effective
/// job count — dedupe to keep one run (and one JSON field group) per value.
inline std::vector<unsigned> sweep_jobs(const Args& args) {
  std::vector<unsigned> sweep;
  for (const std::int64_t j : args.get_int_list("sweep", {})) {
    const unsigned jobs = jobs_from_flag(j);
    if (std::find(sweep.begin(), sweep.end(), jobs) == sweep.end()) {
      sweep.push_back(jobs);
    }
  }
  if (sweep.empty()) sweep.push_back(jobs_from_flag(args.get_int("jobs", 0)));
  return sweep;
}

/// The index of the sweep point speedups are measured against: the
/// jobs == 1 entry wherever it sits in the list, falling back to the first
/// entry when no serial point ran. sweep_jobs clamps oversized requests
/// and dedupes collapsed values, so a requested "1" can be absent
/// (or present but not first) in the effective list; speedups must
/// normalize against the real serial run when there is one.
inline std::size_t sweep_baseline_index(const std::vector<unsigned>& jobs) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i] == 1) return i;
  }
  return 0;
}

/// One point of a throughput bench's jobs sweep: a fresh engine for the
/// spec's run 0 on `jobs` workers.
struct SweepPoint {
  unsigned jobs = 1;
  RunResult result;
  double build_seconds = 0.0;
  double run_seconds = 0.0;
  double node_ticks_per_sec = 0.0;
  double transfers_per_sec = 0.0;
  scale::PhaseTimings phases;
  std::uint64_t state_bytes = 0;      // sampled before run()
  std::uint64_t state_bytes_end = 0;  // and after it: ledger and tick scratch grow
  std::uint64_t ledger_pairs = 0;     // nonzero credit pairs after the run
  std::uint64_t digest = 0;
};

/// Runs one engine from `make()` (a unique_ptr to a scale::Engine or a
/// StreamEngine over n nodes) per job count. Construction is timed apart
/// from the run: a fixed cost the throughput numbers should not absorb.
template <typename Make>
std::vector<SweepPoint> run_sweep(const std::vector<unsigned>& sweep, std::uint32_t n,
                                  Make make) {
  const auto since = [](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t).count();
  };
  std::vector<SweepPoint> points;
  for (const unsigned jobs : sweep) {
    SweepPoint p;
    const auto tb = std::chrono::steady_clock::now();
    const auto engine = make();
    p.build_seconds = since(tb);
    p.jobs = jobs == 0 ? default_jobs() : jobs;
    p.state_bytes = engine->state_bytes();
    const auto t1 = std::chrono::steady_clock::now();
    p.result = engine->run(jobs);
    p.run_seconds = since(t1);
    p.state_bytes_end = engine->state_bytes();
    if constexpr (requires { engine->phase_timings(); }) p.phases = engine->phase_timings();
    if constexpr (requires { engine->credit_pairs(); }) {
      p.ledger_pairs = engine->credit_pairs();
    } else {
      p.ledger_pairs = engine->engine().credit_pairs();  // a StreamEngine
    }
    p.digest = check::run_result_digest(p.result);
    if (p.run_seconds > 0.0) {
      const std::uint64_t node_ticks = std::uint64_t{n} * p.result.ticks_executed;
      p.node_ticks_per_sec = static_cast<double>(node_ticks) / p.run_seconds;
      p.transfers_per_sec = static_cast<double>(p.result.total_transfers) / p.run_seconds;
    }
    points.push_back(std::move(p));
  }
  return points;
}

/// Wall-clock speedup of `p` over `baseline`; 0 when either took no time.
inline double speedup(const SweepPoint& baseline, const SweepPoint& p) {
  return baseline.run_seconds > 0.0 && p.run_seconds > 0.0
             ? baseline.run_seconds / p.run_seconds
             : 0.0;
}

/// Prints `# digest <hex>` when every sweep point agrees, one line per job
/// count when not; returns whether they agree.
inline bool print_digests(const std::vector<SweepPoint>& points) {
  const bool agree = std::all_of(points.begin(), points.end(), [&](const SweepPoint& p) {
    return p.digest == points.front().digest;
  });
  if (agree) {
    std::cout << "# digest " << std::hex << points.front().digest << std::dec << "\n";
    return true;
  }
  for (const SweepPoint& p : points) {
    std::cout << "# digest " << std::hex << p.digest << std::dec << " (jobs=" << p.jobs
              << ")\n";
  }
  return false;
}

/// A multi-point sweep's trajectory, one flat field group per job count so
/// the JSON scraper stays trivial: *_j<jobs> suffixes, speedup vs
/// `baseline` (the serial point, or the first one when jobs=1 was clamped
/// or deduped away — speedup_baseline_jobs records which).
inline void add_sweep_fields(JsonReport& json, const std::vector<SweepPoint>& points,
                             const SweepPoint& baseline, bool phases) {
  if (points.size() < 2) return;
  std::string jobs_list;
  for (const SweepPoint& p : points) {
    jobs_list += (jobs_list.empty() ? "" : ",") + std::to_string(p.jobs);
  }
  json.str("jobs_sweep", jobs_list).count("speedup_baseline_jobs", baseline.jobs);
  for (const SweepPoint& p : points) {
    const std::string j = "_j" + std::to_string(p.jobs);
    json.num("run_seconds" + j, p.run_seconds)
        .num("node_ticks_per_sec" + j, p.node_ticks_per_sec)
        .num("speedup" + j, speedup(baseline, p));
    if (phases) {
      json.num("phase_generate_seconds" + j, p.phases.generate_seconds)
          .num("phase_merge_seconds" + j, p.phases.merge_seconds)
          .num("phase_apply_seconds" + j, p.phases.apply_seconds);
    }
    json.count("ledger_pairs" + j, p.ledger_pairs).count("digest" + j, p.digest);
  }
}

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
