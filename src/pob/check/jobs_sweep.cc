#include "pob/check/jobs_sweep.h"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "pob/check/oracle.h"
#include "pob/exp/parallel.h"

namespace pob::check {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

const scale::Engine& tick_engine(const scale::Engine& e) { return e; }
const scale::Engine& tick_engine(const scale::stream::StreamEngine& e) { return e.engine(); }

/// One point per job count, each on a fresh engine from `make()`.
/// Construction is timed apart from the run: a fixed cost the throughput
/// numbers should not absorb.
template <typename Make>
std::vector<SweepPoint> sweep(const std::vector<unsigned>& jobs, std::uint32_t n,
                              bool record_trace, Make make) {
  std::vector<SweepPoint> points;
  for (const unsigned j : jobs) {
    SweepPoint p;
    const Clock::time_point built = Clock::now();
    const auto engine = make();
    p.build_seconds = since(built);
    p.jobs = j == 0 ? default_jobs() : j;
    p.state_bytes = engine->state_bytes();
    const Clock::time_point started = Clock::now();
    p.result = engine->run(j);
    p.run_seconds = since(started);
    p.state_bytes_end = engine->state_bytes();
    p.phases = tick_engine(*engine).phase_timings();
    p.ledger_pairs = tick_engine(*engine).credit_pairs();
    if constexpr (std::is_same_v<decltype(*engine), scale::stream::StreamEngine&>) {
      if (record_trace) p.events = engine->trace_events();
    }
    p.digest = run_result_digest(p.result);
    if (p.run_seconds > 0.0) {
      const std::uint64_t node_ticks = std::uint64_t{n} * p.result.ticks_executed;
      p.node_ticks_per_sec = static_cast<double>(node_ticks) / p.run_seconds;
      p.transfers_per_sec = static_cast<double>(p.result.total_transfers) / p.run_seconds;
    }
    points.push_back(std::move(p));
  }
  return points;
}

}  // namespace

JobsSweep run_sweep(const scale::RunSpec& spec, std::uint32_t run,
                    const std::vector<unsigned>& jobs, bool record_trace) {
  const std::uint64_t seed = scale::run_seed(spec, run);
  JobsSweep out;
  const Clock::time_point t0 = Clock::now();
  if (spec.engine == scale::RunEngine::kScale) {
    EngineConfig cfg = scale::build_config(spec);
    cfg.record_trace = record_trace;
    scale::ScaleOptions opt = scale::build_scale_options(spec);
    opt.collect_phase_timings = true;
    // The arithmetic complete Topology of the deterministic schedules
    // costs nothing to "build".
    out.topology = scale::build_topology(spec, seed);
    out.topology_seconds = since(t0);
    out.points = sweep(jobs, spec.n, record_trace, [&] {
      return std::make_unique<scale::Engine>(cfg, out.topology, opt, seed);
    });
  } else if (spec.engine == scale::RunEngine::kStream) {
    scale::stream::StreamSpec stream = scale::build_stream_spec(spec, seed);
    stream.config.record_trace = record_trace;
    out.topology = stream.topology;
    out.topology_seconds = since(t0);
    out.points = sweep(jobs, spec.n, record_trace, [&] {
      return std::make_unique<scale::stream::StreamEngine>(stream);
    });
  } else {
    throw std::invalid_argument("a jobs sweep runs --engine=scale|stream");
  }
  return out;
}

double speedup(const SweepPoint& baseline, const SweepPoint& p) {
  return baseline.run_seconds > 0.0 && p.run_seconds > 0.0
             ? baseline.run_seconds / p.run_seconds
             : 0.0;
}

std::string jobs_list(const std::vector<SweepPoint>& points) {
  std::string list;
  for (const SweepPoint& p : points) {
    if (!list.empty()) list += ',';
    list += std::to_string(p.jobs);
  }
  return list;
}

bool print_digests(const std::vector<SweepPoint>& points) {
  const bool agree = std::all_of(points.begin(), points.end(), [&](const SweepPoint& p) {
    return p.digest == points.front().digest &&
           p.ledger_pairs == points.front().ledger_pairs;
  });
  if (agree) {
    std::cout << "# digest " << std::hex << points.front().digest << std::dec << "\n";
    return true;
  }
  for (const SweepPoint& p : points) {
    std::cout << "# digest " << std::hex << p.digest << std::dec << " ledger "
              << p.ledger_pairs << " (jobs=" << p.jobs << ")\n";
  }
  return false;
}

void add_sweep_fields(JsonReport& json, const std::vector<SweepPoint>& points,
                      const SweepPoint& baseline, bool phases) {
  if (points.size() < 2) return;
  json.str("jobs_sweep", jobs_list(points)).count("speedup_baseline_jobs", baseline.jobs);
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

}  // namespace pob::check
