// E25: continuous-time mega-swarm throughput — the hybrid tick+event stream
// layer measured at 10^5..10^6 nodes, flash crowd vs steady Poisson.
//
// Runs run 0 of a RunSpec (src/pob/scale/run_spec.h) on
// scale::stream::StreamEngine and reports, next to E22's throughput
// numbers, the stream layer's viewer metrics: the startup-latency
// distribution (censored clients excluded and counted), rebuffer ticks and
// the deadline-miss fraction. Every run is bit-identical at any --jobs; the
// digest is printed, and the bench exits 1 if a --sweep's digests differ.
//
//   stream_throughput                          # 10^6-node flash crowd
//   stream_throughput --arrivals=poisson       # steady trickle instead
//   stream_throughput --n=100000 --k=64        # quicker smoke (CI uses this)
//   stream_throughput --window=8 --deadlines   # VoD: sequential + deadlines
//   stream_throughput --classes=3 --churn=256  # heterogeneous rate classes
//   stream_throughput --sweep=1,2,4,8          # jobs trajectory, one run each
//
// Run flags: pobsim's (see tools/pobsim.cc), defaulting to --engine=stream
// --overlay=regular --degree=16 --n=1000000 --k=256 --servers=8
// --arrivals=flash --flash-width=16 --gap16=2 --burst-size=15626. Bench
// flags: --sweep, --jobs, --json, --csv; any other flag exits 2. The bench
// prints its spec as `# spec: <flags>`: `pobsim <flags>` reruns the swarm.

#include <chrono>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "bench_util.h"
#include "pob/scale/run_spec.h"

namespace pob {
namespace {

int main_impl(int argc, char** argv) {
  const Args args(argc, argv);
  const scale::RunSpec run = scale::parse_run_spec(args, scale::kStreamThroughputDefaults);
  const std::vector<unsigned> sweep = bench::sweep_jobs(args);
  args.reject_unknown({"jobs", "json", "csv"});
  if (run.engine != scale::RunEngine::kStream) {
    throw std::invalid_argument("stream_throughput runs --engine=stream");
  }
  std::cout << "# spec: " << to_flags(run) << "\n";

  const std::uint32_t n = run.n, k = run.k;
  const std::string workload = scale::to_string(run.arrivals);
  const auto t0 = std::chrono::steady_clock::now();
  const scale::stream::StreamSpec spec =
      scale::build_stream_spec(run, scale::run_seed(run, 0));
  const double topo_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const std::vector<bench::SweepPoint> points = bench::run_sweep(
      sweep, n, [&] { return std::make_unique<scale::stream::StreamEngine>(spec); });
  const std::uint64_t rss_kb = bench::peak_rss_kb();
  const bench::SweepPoint& head = points.front();
  const bench::SweepPoint& baseline = points[bench::sweep_baseline_index(sweep)];

  const scale::stream::StartupStats lat = scale::stream::startup_stats(head.result);

  bench::emit(args, [&] {
    Table table({"n", "k", "workload", "jobs", "ticks", "T", "transfers",
                 "node-ticks/s", "speedup", "start-p50", "start-p95",
                 "rebuf-ticks", "dl-miss"});
    for (const bench::SweepPoint& p : points) {
      table.add_row(
          {std::to_string(n), std::to_string(k), workload, std::to_string(p.jobs),
           std::to_string(p.result.ticks_executed),
           p.result.completed ? std::to_string(p.result.completion_tick)
                              : (p.result.stalled ? "stall" : "cap"),
           std::to_string(p.result.total_transfers),
           fmt(p.node_ticks_per_sec / 1e6, 1) + "M",
           fmt(bench::speedup(baseline, p), 2) + "x",
           fmt(lat.p50, 1), fmt(lat.p95, 1),
           std::to_string(p.result.total_rebuffer_ticks()),
           fmt(p.result.deadline_miss_fraction(), 4)});
    }
    return table;
  }());
  std::cout << "# graph build " << fmt(topo_seconds, 2) << " s, state "
            << head.state_bytes / (1024 * 1024) << " MiB, peak rss "
            << rss_kb / 1024 << " MiB\n";
  std::cout << "# " << scale::stream::describe_viewer_metrics(head.result) << "\n";
  const bool digests_agree = bench::print_digests(points);

  bench::JsonReport json;
  json.str("bench", "stream_throughput")
      .str("spec", to_flags(run))
      .count("n", n)
      .count("k", k)
      .count("degree", run.degree)
      .count("jobs", head.jobs)
      .str("workload", workload)
      .count("rate_classes", run.classes)
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
      .count("rebuffer_ticks_total", head.result.total_rebuffer_ticks())
      .count("rebuffered_clients", head.result.rebuffered_clients)
      .count("deadline_misses", head.result.deadline_misses)
      .count("deadline_checks", head.result.deadline_checks)
      .num("deadline_miss_fraction", head.result.deadline_miss_fraction())
      .count("digest", head.digest);
  bench::add_host_fields(json);
  bench::add_sweep_fields(json, points, baseline, false);
  if (!json.write(args, "BENCH_stream.json")) return 1;
  if (!digests_agree) {
    std::cerr << "stream_throughput: RunResult digest differs across job counts\n";
    return 1;
  }
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
