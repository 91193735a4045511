// pobbench: runs one benchmark workload and prints its metrics.
//
//   pobbench --workload swarm-random --seed 1 --seconds 15 --trace 0 --jobs 4
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// alternates untraced and traced repeats and reports the per-layer metrics
// plus the tracing overhead. --toy runs the same code path at self-test
// sizes and --corrupt shifts one closed-form expectation by one, so the
// self-test can show that a wrong result is counted as failed.
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics ({"name": {"value": v, "unit": u}}). A JSON report with
// the run manifest and per-span self times, and in traced runs the spans
// themselves, go to --out-dir.

#include <unistd.h>

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace pobbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's end_to_end and per_layer lists; the
// self-test checks both directions.
constexpr Metric kEndToEnd[] = {
    {"run_s", "s"},         {"transfers_per_s", "1/s"}, {"setup_s", "s"},
    {"peak_rss_mb", "MiB"}, {"trials_per_s", "1/s"},
};

constexpr Metric kPerLayer[] = {
    {"overlay.build_s", "s"},
    {"topology.build_s", "s"},
    {"engine.build_s", "s"},
    {"stream.build_s", "s"},
    {"engine.state_mb", "MiB"},
    {"engine.arena_released_mb", "MiB"},
    {"engine.generate_s", "s"},
    {"engine.merge_s", "s"},
    {"engine.apply_s", "s"},
    {"engine.loop_s", "s"},
    {"engine.tick_p50_ms", "ms"},
    {"engine.tick_p99_ms", "ms"},
    {"engine.ticks", "count"},
    {"engine.slot_util", "ratio"},
    {"sched.binomial_s", "s"},
    {"sched.triangular_s", "s"},
    {"sched.riffle_s", "s"},
    {"sched.riffle_tick_us", "us"},
    {"mech.ledger_commit_s", "s"},
    {"stream.run_s", "s"},
    {"stream.arrivals", "count"},
    {"stream.self_s", "s"},
    {"core.trial_p50_s", "s"},
    {"core.trial_max_s", "s"},
    {"parallel.busy_frac", "ratio"},
    {"flow.certify_ring_s", "s"},
    {"flow.certify_regular_s", "s"},
    {"flow.evaluated", "count"},
    {"flow.counting_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

// The calibration kernel's time on the reference host (4 vCPUs of an Intel
// Xeon VM, jobs = 4). Only the scale of the reported times depends on it.
constexpr double kCalibrationNominalS = 0.08;

std::string unit_of(const std::string& name) {
  for (const Metric& m : kEndToEnd) {
    if (name == m.name) return m.unit;
  }
  for (const Metric& m : kPerLayer) {
    if (name == m.name) return m.unit;
  }
  return "";
}

bool is_time_unit(const std::string& unit) { return unit == "s" || unit == "ms" || unit == "us"; }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned jobs = 1;
  bool toy = false;
  bool corrupt = false;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") o.workload = value();
    else if (flag == "--seed") o.seed = std::stoull(value());
    else if (flag == "--seconds") o.seconds = std::stod(value());
    else if (flag == "--trace") o.trace = value() == "1";
    else if (flag == "--jobs") o.jobs = static_cast<unsigned>(std::stoul(value()));
    else if (flag == "--toy") o.toy = true;
    else if (flag == "--corrupt") o.corrupt = true;
    else if (flag == "--out-dir") o.out_dir = value();
    else if (flag == "--git-sha") o.git_sha = value();
    else if (flag == "--source-digest") o.source_digest = value();
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (o.jobs == 0) throw std::invalid_argument("--jobs must be >= 1");
  return o;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Writes `map` as a JSON object; `value(os, v)` writes each value.
template <typename Map, typename Value>
void write_object(std::ostream& os, const Map& map, Value&& value) {
  os << "{";
  bool first = true;
  for (const auto& [key, v] : map) {
    os << (first ? "" : ", ") << json_string(key) << ": ";
    value(os, v);
    first = false;
  }
  os << "}";
}

std::string read_first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

void host_manifest(std::map<std::string, std::string>& m) {
  m["hw_threads"] = std::to_string(std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    m["nproc"] = std::to_string(CPU_COUNT(&set));
  }
  const std::string quota = read_first_line("/sys/fs/cgroup/cpu.max");
  m["cgroup_cpu_max"] = quota.empty() ? "unavailable" : quota;
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  m["l3_bytes"] = l3 > 0 ? std::to_string(l3) : "unavailable";
}

int main_impl(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Tracer tracer(opt.trace);
  Context ctx;
  ctx.seed = opt.seed;
  ctx.seconds = opt.seconds;
  ctx.trace = opt.trace;
  ctx.jobs = opt.jobs;
  ctx.toy = opt.toy;
  ctx.corrupt = opt.corrupt;
  ctx.tracer = &tracer;
  ctx.digest = kDigestBasis;
  ctx.manifest = {
      {"workload", opt.workload},
      {"seed", std::to_string(opt.seed)},
      {"jobs", std::to_string(opt.jobs)},
      {"trace", opt.trace ? "1" : "0"},
      {"toy", opt.toy ? "1" : "0"},
      {"git_sha", opt.git_sha},
      {"source_digest", opt.source_digest},
      {"build_type", POBBENCH_BUILD_TYPE},
      {"cxx_flags", POBBENCH_CXX_FLAGS},
      {"compiler", POBBENCH_COMPILER},
  };
  host_manifest(ctx.manifest);

  const Clock::time_point t0 = Clock::now();
  if (opt.workload == "swarm-random") run_swarm_random(ctx);
  else if (opt.workload == "barter-det") run_barter_det(ctx);
  else if (opt.workload == "stream-vod") run_stream_vod(ctx);
  else if (opt.workload == "core-certify") run_core_certify(ctx);
  else throw std::invalid_argument("unknown workload " + opt.workload);
  const double wall_s = seconds_since(t0);

  // Medians over repeats; the tracing overhead is traced minus untraced
  // run_s from the same process.
  std::map<std::string, double> raw;
  for (const Metric& m : kEndToEnd) raw[m.name] = ctx.samples.median(m.name);
  for (const Metric& m : kPerLayer) raw[m.name] = ctx.samples.median(m.name);
  if (opt.trace) {
    const double untraced = ctx.samples.median("run_s");
    const double overhead = ctx.samples.median("traced_run_s") - untraced;
    raw["trace.overhead_s"] = overhead;
    raw["trace.overhead_frac"] = untraced > 0.0 ? overhead / untraced : 0.0;
  }

  // Host-speed normalization: times are scaled by nominal / measured time
  // of the calibration kernel run between repeats (rates inversely), so a
  // host that runs slower for a few minutes does not read as a regression.
  const double calibration_s = ctx.samples.median("calibration_s");
  const double speed = calibration_s > 0.0 ? kCalibrationNominalS / calibration_s : 1.0;
  std::map<std::string, double> values;
  for (const auto& [name, v] : raw) {
    const std::string unit = unit_of(name);
    values[name] = unit == "1/s" ? v / speed : is_time_unit(unit) ? v * speed : v;
  }

  const std::uint64_t attempted = ctx.checks.attempted();
  const std::uint64_t failed = ctx.checks.failed();
  const double failed_frac =
      attempted == 0 ? 1.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx", static_cast<unsigned long long>(ctx.digest));

  std::cout << "# workload " << opt.workload << " seed " << opt.seed << " jobs " << opt.jobs
            << " repeats " << ctx.samples.count("run_s") << " untraced, "
            << ctx.samples.count("traced_run_s") << " traced, wall " << wall_s << " s\n";
  std::cout << "# manifest";
  for (const auto& [key, value] : ctx.manifest) std::cout << " " << key << "=" << value;
  std::cout << "\n# checks attempted " << attempted << " failed " << failed << " failed_frac "
            << failed_frac << "\n# digest " << digest << "\n# calibration " << calibration_s
            << " s (nominal " << kCalibrationNominalS << " s), speed factor " << speed << "\n";

  const auto totals = tracer.totals();
  if (opt.trace) {
    std::cout << "# span self time (s, summed over traced repeats):\n";
    for (const auto& [name, t] : totals) {
      std::cout << "#   " << name << " total " << t.total << " self " << t.self << " count "
                << t.count << "\n";
    }
  }

  const auto& shown = opt.trace ? std::vector<Metric>(std::begin(kPerLayer), std::end(kPerLayer))
                                : std::vector<Metric>(std::begin(kEndToEnd), std::end(kEndToEnd));
  std::ostringstream metrics;
  metrics << "{";
  bool first = true;
  for (const Metric& m : shown) {
    std::cout << "# " << m.name << " = " << json_number(values[m.name]) << " " << m.unit
              << " (raw " << json_number(raw[m.name]) << ")\n";
    metrics << (first ? "" : ", ") << json_string(m.name) << ": {\"value\": "
            << json_number(values[m.name]) << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  metrics << "}";

  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::string stem = opt.out_dir + "/" + opt.workload + ".trace" + (opt.trace ? "1" : "0");
  {
    std::ofstream report(stem + ".json");
    report << "{\"manifest\": ";
    write_object(report, ctx.manifest,
                 [](std::ostream& os, const std::string& v) { os << json_string(v); });
    report << ", \"attempted\": " << attempted << ", \"failed\": " << failed
           << ", \"failed_frac\": " << json_number(failed_frac) << ", \"digest\": \"" << digest
           << "\", \"calibration_s\": " << json_number(calibration_s)
           << ", \"speed_factor\": " << json_number(speed) << ", \"metrics\": " << metrics.str()
           << ", \"raw_metrics\": ";
    write_object(report, raw, [](std::ostream& os, double v) { os << json_number(v); });
    report << ", \"self_time_s\": ";
    write_object(report, totals, [](std::ostream& os, const Tracer::Totals& t) {
      os << "{\"total\": " << json_number(t.total) << ", \"self\": " << json_number(t.self)
         << ", \"count\": " << t.count << "}";
    });
    report << ", \"samples\": ";
    write_object(report, ctx.samples.all(), [](std::ostream& os, const std::vector<double>& v) {
      os << "[";
      for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << json_number(v[i]);
      os << "]";
    });
    report << "}\n";
  }
  if (opt.trace && !tracer.write_tsv(opt.out_dir + "/" + opt.workload + ".spans.tsv")) {
    std::cerr << "pobbench: cannot write spans to " << opt.out_dir << "\n";
  }

  std::cout << "{\"correct\": " << (failed == 0 && attempted > 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics.str() << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace pobbench

int main(int argc, char** argv) {
  try {
    return pobbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "pobbench: " << e.what() << "\n";
    return 2;
  }
}
