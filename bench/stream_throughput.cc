// E25: continuous-time mega-swarm throughput — the hybrid tick+event stream
// layer measured at 10^5..10^6 nodes, flash crowd vs steady Poisson.
//
// Runs scale::stream::StreamEngine (calendar-queue arrivals feeding
// variable-population ticks) and reports, alongside the engine-throughput
// numbers E22 established, the three per-run streaming metrics the stream
// layer adds: the startup-latency distribution (censored clients excluded
// and counted), total rebuffer ticks, and the deadline-miss fraction. The
// RunResult digest is printed so CI can pin bit-identical behavior across
// job counts on the same host.
//
//   stream_throughput                          # 10^6-node flash crowd
//   stream_throughput --workload=poisson       # steady trickle instead
//   stream_throughput --n=100000 --k=64        # quicker smoke (CI uses this)
//   stream_throughput --window=8 --deadlines   # VoD: sequential + deadlines
//   stream_throughput --classes=3 --churn=256  # heterogeneous rate classes
//   stream_throughput --sweep=1,2,4,8          # jobs trajectory, one run each
//
// Every run is bit-identical at any --jobs; only the wall-clock may differ.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "bench_util.h"
#include "pob/check/oracle.h"
#include "pob/scale/stream/stream_engine.h"

namespace pob {
namespace {

struct LatencyStats {
  std::uint64_t started = 0;
  double mean = 0.0, p50 = 0.0, p95 = 0.0, max = 0.0;
};

LatencyStats latency_stats(const std::vector<double>& latency) {
  LatencyStats s;
  std::vector<double> v;
  v.reserve(latency.size());
  for (const double lat : latency) {
    if (!std::isnan(lat)) v.push_back(lat);
  }
  s.started = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  double sum = 0.0;
  for (const double lat : v) sum += lat;
  s.mean = sum / static_cast<double>(v.size());
  s.p50 = v[v.size() / 2];
  s.p95 = v[v.size() * 95 / 100];
  s.max = v.back();
  return s;
}

struct SweepPoint {
  unsigned jobs = 1;
  RunResult result;
  double run_seconds = 0.0;
  double node_ticks_per_sec = 0.0;
  std::uint64_t state_bytes = 0;
  std::uint64_t digest = 0;
};

int main_impl(int argc, char** argv) {
  const Args args(argc, argv);
  const auto n = static_cast<std::uint32_t>(args.get_int("n", 1000000));
  const auto k = static_cast<std::uint32_t>(args.get_int("k", 256));
  const auto degree = static_cast<std::uint32_t>(args.get_int("degree", 16));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  const std::vector<unsigned> sweep = bench::sweep_jobs(args);

  scale::stream::StreamSpec spec;
  spec.seed = seed;
  spec.config.num_nodes = n;
  spec.config.num_blocks = k;
  spec.config.server_upload_capacity =
      static_cast<std::uint32_t>(args.get_int("server-up", 8));
  spec.config.max_ticks = static_cast<Tick>(args.get_int("cap", 0));

  const std::string workload = args.get_string("workload", "flash");
  if (workload == "flash" || workload == "flash-crowd") {
    // The flash crowd: 90% of the swarm lands inside a 16-tick spike.
    spec.workload.arrivals = scale::stream::ArrivalPattern::kFlashCrowd;
    spec.workload.flash_start = static_cast<Tick>(args.get_int("flash-start", 8));
    spec.workload.flash_width =
        static_cast<std::uint32_t>(args.get_int("flash-width", 16));
  } else if (workload == "poisson") {
    // Steady trickle. gap16 = 2 is the densest non-degenerate rate (~16
    // arrivals/tick: the geometric gap has mean gap16 - 1 subticks), so a
    // 10^6-node swarm spends ~62k ticks just arriving — that long, mostly
    // sated tail is exactly what this workload measures against the flash
    // crowd's compressed burst.
    spec.workload.arrivals = scale::stream::ArrivalPattern::kPoisson;
    spec.workload.mean_gap16 =
        static_cast<std::uint32_t>(args.get_int("gap16", n >= 100000 ? 2 : 8));
  } else if (workload == "burst") {
    spec.workload.arrivals = scale::stream::ArrivalPattern::kBurst;
    spec.workload.burst_size =
        static_cast<std::uint32_t>(args.get_int("burst-size", n / 64 + 1));
    spec.workload.burst_period =
        static_cast<std::uint32_t>(args.get_int("burst-period", 4));
  } else if (workload == "batch") {
    spec.workload.arrivals = scale::stream::ArrivalPattern::kAllAtStart;
  } else {
    throw std::invalid_argument("unknown --workload=" + workload +
                                " (flash | poisson | burst | batch)");
  }

  const auto classes = static_cast<std::uint32_t>(args.get_int("classes", 0));
  for (std::uint32_t i = 0; i < classes; ++i) {
    spec.workload.rate_classes.push_back(
        {classes - i, 1 + i, i == 0 ? kUnlimited : 2 * (1 + i)});
  }
  spec.workload.rate_changes = static_cast<std::uint32_t>(args.get_int("churn", 0));
  spec.workload.rate_change_horizon = static_cast<Tick>(args.get_int("horizon", 64));

  spec.demand.window = static_cast<std::uint32_t>(args.get_int("window", 0));
  spec.demand.startup_blocks =
      static_cast<std::uint32_t>(args.get_int("startup", 4));
  spec.demand.interval = static_cast<Tick>(args.get_int("interval", 1));
  spec.demand.deadlines = args.has("deadlines");
  spec.demand.deadline_slack = static_cast<Tick>(args.get_int("slack", 2));

  spec.options.policy = parse_policy(args);
  spec.options.max_probes = static_cast<std::uint32_t>(args.get_int("probes", 16));

  const auto t0 = std::chrono::steady_clock::now();
  Rng topo_rng = Rng(seed).split(0);
  spec.topology = std::make_shared<scale::Topology>(
      scale::Topology::from_graph(make_random_regular(n, degree, topo_rng)));
  const double topo_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  std::vector<SweepPoint> points;
  for (const unsigned jobs : sweep) {
    scale::stream::StreamEngine engine(spec);
    SweepPoint p;
    p.jobs = jobs == 0 ? default_jobs() : jobs;
    p.state_bytes = engine.state_bytes();
    const auto t1 = std::chrono::steady_clock::now();
    p.result = engine.run(jobs);
    p.run_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t1).count();
    p.digest = check::run_result_digest(p.result);
    const std::uint64_t node_ticks =
        static_cast<std::uint64_t>(n) * p.result.ticks_executed;
    if (p.run_seconds > 0.0) {
      p.node_ticks_per_sec = static_cast<double>(node_ticks) / p.run_seconds;
    }
    points.push_back(std::move(p));
  }
  const std::uint64_t rss_kb = bench::peak_rss_kb();
  const SweepPoint& head = points.front();
  const SweepPoint& baseline = points[bench::sweep_baseline_index(sweep)];

  const LatencyStats lat = latency_stats(head.result.startup_latency);
  const std::uint64_t rebuffer_total = head.result.total_rebuffer_ticks();
  const double miss_fraction = head.result.deadline_miss_fraction();

  bench::emit(args, [&] {
    Table table({"n", "k", "workload", "jobs", "ticks", "T", "transfers",
                 "node-ticks/s", "speedup", "start-p50", "start-p95",
                 "rebuf-ticks", "dl-miss"});
    for (const SweepPoint& p : points) {
      const double speedup = baseline.run_seconds > 0.0 && p.run_seconds > 0.0
                                 ? baseline.run_seconds / p.run_seconds
                                 : 0.0;
      table.add_row(
          {std::to_string(n), std::to_string(k), workload, std::to_string(p.jobs),
           std::to_string(p.result.ticks_executed),
           p.result.completed ? std::to_string(p.result.completion_tick)
                              : (p.result.stalled ? "stall" : "cap"),
           std::to_string(p.result.total_transfers),
           fmt(p.node_ticks_per_sec / 1e6, 1) + "M", fmt(speedup, 2) + "x",
           fmt(lat.p50, 1), fmt(lat.p95, 1),
           std::to_string(p.result.total_rebuffer_ticks()),
           fmt(p.result.deadline_miss_fraction(), 4)});
    }
    return table;
  }());
  std::cout << "# graph build " << fmt(topo_seconds, 2) << " s, state "
            << head.state_bytes / (1024 * 1024) << " MiB, peak rss "
            << rss_kb / 1024 << " MiB\n";
  std::cout << "# startup latency: " << lat.started << " started / "
            << head.result.never_started << " censored, mean " << fmt(lat.mean, 2)
            << " p50 " << fmt(lat.p50, 1) << " p95 " << fmt(lat.p95, 1) << " max "
            << fmt(lat.max, 1) << "; rebuffer " << rebuffer_total << " ticks over "
            << head.result.rebuffered_clients << " clients; deadline misses "
            << head.result.deadline_misses << "/" << head.result.deadline_checks
            << " (" << fmt(miss_fraction, 4) << ")\n";
  std::cout << "# digest " << std::hex << head.digest << std::dec << "\n";

  bench::JsonReport json;
  json.str("bench", "stream_throughput")
      .count("n", n)
      .count("k", k)
      .count("degree", degree)
      .count("jobs", head.jobs)
      .str("workload", workload)
      .count("rate_classes", classes)
      .count("rate_changes", spec.workload.rate_changes)
      .count("window", spec.demand.window)
      .count("startup_blocks", spec.demand.startup_blocks)
      .flag("deadlines", spec.demand.deadlines)
      .str("policy", spec.options.policy == BlockPolicy::kRandom ? "random"
                                                                 : "rarest")
      .flag("completed", head.result.completed)
      .count("ticks_executed", head.result.ticks_executed)
      .count("completion_tick", head.result.completion_tick)
      .count("total_transfers", head.result.total_transfers)
      .num("run_seconds", head.run_seconds)
      .num("topology_seconds", topo_seconds)
      .num("node_ticks_per_sec", head.node_ticks_per_sec)
      .count("state_bytes", head.state_bytes)
      .count("peak_rss_kb", rss_kb)
      .count("started_clients", lat.started)
      .count("never_started", head.result.never_started)
      .num("startup_latency_mean", lat.mean)
      .num("startup_latency_p50", lat.p50)
      .num("startup_latency_p95", lat.p95)
      .num("startup_latency_max", lat.max)
      .count("rebuffer_ticks_total", rebuffer_total)
      .count("rebuffered_clients", head.result.rebuffered_clients)
      .count("deadline_misses", head.result.deadline_misses)
      .count("deadline_checks", head.result.deadline_checks)
      .num("deadline_miss_fraction", miss_fraction)
      .count("digest", head.digest);
  bench::add_host_fields(json);
  if (points.size() > 1) {
    std::string jobs_list;
    for (const SweepPoint& p : points) {
      if (!jobs_list.empty()) jobs_list += ',';
      jobs_list += std::to_string(p.jobs);
    }
    json.str("jobs_sweep", jobs_list);
    json.count("speedup_baseline_jobs", baseline.jobs);
    for (const SweepPoint& p : points) {
      const std::string suffix = "_j" + std::to_string(p.jobs);
      json.num("run_seconds" + suffix, p.run_seconds)
          .num("node_ticks_per_sec" + suffix, p.node_ticks_per_sec)
          .num("speedup" + suffix, baseline.run_seconds > 0.0 && p.run_seconds > 0.0
                                       ? baseline.run_seconds / p.run_seconds
                                       : 0.0)
          .count("digest" + suffix, p.digest);
    }
  }
  if (!json.write(args, "BENCH_stream.json")) return 1;
  return head.result.completed || spec.config.max_ticks != 0 ? 0 : 1;
}

}  // namespace
}  // namespace pob

int main(int argc, char** argv) {
  try {
    return pob::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "stream_throughput: " << e.what() << "\n";
    return 2;
  }
}
