// Shared pieces of the pob benchmark: the run context, an in-memory span
// tracer, the per-repeat metric samples and the correctness tally.
//
// Spans are recorded only here, around calls into the library's public API
// (overlay builders, scale::Topology, scale::Engine, StreamEngine, the core
// engine, repeat_trials_parallel and flow::certify_completion_bound). They
// stay in memory and are written out once, when the run ends.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pobbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One timed interval. `parent` indexes the enclosing span (-1 for a root).
struct Span {
  const char* name;
  double start;  ///< seconds since the tracer was created
  double end;
  std::int32_t parent;
};

/// Records nested spans when enabled; a disabled tracer records nothing and
/// costs one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span as a child of the innermost open one; returns its index,
  /// or -1 when disabled.
  std::int32_t open(const char* name);
  void close(std::int32_t index);
  /// Adds an already finished span as a child of the innermost open one
  /// (for intervals timed on worker threads and recorded afterwards).
  void record(const char* name, Clock::time_point start, Clock::time_point end);

  /// Closes the span on scope exit.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer), index_(tracer.open(name)) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_;
  };

  /// Per span name: total duration and self time (duration minus the part
  /// covered by direct children), summed over every span of that name.
  struct Totals {
    double total = 0.0;
    double self = 0.0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Totals> totals() const;

  /// Writes one line per span: index, parent, name, start, end (seconds).
  bool write_tsv(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Per-repeat samples of named metrics; a metric's reported value is the
/// median of its samples.
class Samples {
 public:
  void add(const std::string& name, double value) { values_[name].push_back(value); }
  double median(const std::string& name) const;
  std::size_t count(const std::string& name) const;
  const std::map<std::string, std::vector<double>>& all() const { return values_; }

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// Counts correctness checks against attempts; a failed check is printed.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Everything a workload needs; results land in samples/checks/manifest.
struct Context {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;  ///< per-layer run: alternate traced and untraced repeats
  unsigned jobs = 1;
  bool toy = false;     ///< self-test sizes, same code path
  bool corrupt = false; ///< self-test: shift one closed-form expectation by one
  Tracer* tracer = nullptr;  ///< enabled in per-layer runs
  Tracer untraced{false};
  Samples samples;
  Checks checks;
  std::map<std::string, std::string> manifest;
  std::uint64_t digest = 0;  ///< folds every checked result, for jobs A/B

  /// The tracer a repeat records into: the real one only when traced.
  Tracer& spans(bool traced) { return traced ? *tracer : untraced; }
};

/// FNV-1a style fold of a 64-bit value into a digest.
inline std::uint64_t fold_digest(std::uint64_t digest, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (value >> (8 * i)) & 0xffu;
    digest *= 0x100000001b3ULL;
  }
  return digest;
}

inline constexpr std::uint64_t kDigestBasis = 0xcbf29ce484222325ULL;

/// Peak resident set of this process so far, MiB.
double peak_rss_mb();

/// Seconds a fixed, library-independent kernel (dependent loads over a
/// cache-resident table plus integer mixing) takes on `jobs` threads at
/// once; the slowest thread's time.
double calibrate(unsigned jobs);

/// Runs `unit(repeat, traced)` until `ctx.seconds` have passed, at least
/// `min_repeats` times, with the calibration kernel after each repeat. In a
/// per-layer run repeats alternate untraced and traced, so the tracing
/// overhead is a same-process A/B. The peak resident set is taken after the
/// first repeat, before any calibration: later repeats reuse freed memory,
/// and how many of them fit in the run depends on the host's speed.
template <typename Unit>
void repeat_for(Context& ctx, unsigned min_repeats, Unit&& unit) {
  const Clock::time_point t0 = Clock::now();
  if (ctx.trace && min_repeats < 2) min_repeats = 2;
  for (unsigned r = 0;; ++r) {
    if (r >= min_repeats && seconds_since(t0) >= ctx.seconds) break;
    unit(r, ctx.trace && (r % 2 == 1));
    if (r == 0) ctx.samples.add("peak_rss_mb", peak_rss_mb());
    ctx.samples.add("calibration_s", calibrate(ctx.jobs));
  }
}

void run_swarm_random(Context& ctx);
void run_barter_det(Context& ctx);
void run_stream_vod(Context& ctx);
void run_core_certify(Context& ctx);

}  // namespace pobbench
