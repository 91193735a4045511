// E22/E23: mega-swarm engine throughput — the "production scale" claim,
// measured, as a multi-core trajectory.
//
// Runs run 0 of a RunSpec (src/pob/scale/run_spec.h) on scale::Engine and
// reports node-ticks/s, transfers/s, per-phase wall-clock (generate / merge
// / apply), peak RSS and engine state. --sweep reruns the identical swarm
// once per job count; every run is bit-identical, its digest is printed
// and archived, and the bench exits 1 if the sweep's digests differ.
// Results land in BENCH_scale.json (override with --json=<path>).
//
//   scale_throughput                         # the full 10^6 x 512 run
//   scale_throughput --sweep=1,2,4,8,16      # the E23 jobs trajectory
//   scale_throughput --n=100000 --k=128      # quicker smoke (CI uses this)
//   scale_throughput --algo=credit-randomized --credit=2 --policy=rarest
//   scale_throughput --algo=riffle           # deterministic Theorem 2/3 run
//   scale_throughput --algo=binomial-pipeline --mechanism=triangular  # §3.3
//
// Run flags: pobsim's (see tools/pobsim.cc), defaulting to --engine=scale
// --algo=randomized --overlay=regular --degree=16 --n=1000000 --k=512.
// Bench flags: --sweep, --jobs, --json, --csv; any other flag exits 2. The
// bench prints its spec as `# spec: <flags>` (and the JSON "spec" field):
// `pobsim <flags>` reruns the same swarm to the same digest.
//
// --algo=randomized probes the overlay, credit-randomized adds the §3.2
// credit limit; binomial-pipeline (Theorem 1; with --mechanism=triangular
// §3.3's triangular barter, the ledger live) and riffle (strict barter,
// Theorems 2/3) are the deterministic schedules, run on the complete graph
// at unit upload and power-of-two n. Every run reports E24's price of
// barter: completion against the Theorem 1 cooperative lower bound.

#include <chrono>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "bench_util.h"
#include "pob/analysis/bounds.h"
#include "pob/flow/certify.h"
#include "pob/scale/run_spec.h"

namespace pob {
namespace {

int main_impl(int argc, char** argv) {
  const Args args(argc, argv);
  const scale::RunSpec spec = scale::parse_run_spec(args, scale::kScaleThroughputDefaults);
  // --sweep=1,2,4,8 runs the same swarm once per job count; without it the
  // single --jobs run keeps the historical E22 behavior.
  const std::vector<unsigned> sweep = bench::sweep_jobs(args);
  args.reject_unknown({"jobs", "json", "csv"});
  if (spec.engine != scale::RunEngine::kScale) {
    throw std::invalid_argument("scale_throughput runs --engine=scale");
  }
  std::cout << "# spec: " << to_flags(spec) << "\n";

  const std::uint32_t n = spec.n, k = spec.k;
  const std::uint64_t seed = scale::run_seed(spec, 0);
  const EngineConfig cfg = scale::build_config(spec);
  scale::ScaleOptions opt = scale::build_scale_options(spec);
  opt.collect_phase_timings = true;

  // Built once and shared by every sweep point; the arithmetic complete
  // Topology of the deterministic schedules costs nothing to "build".
  const auto t0 = std::chrono::steady_clock::now();
  const std::shared_ptr<const scale::Topology> topo = scale::build_topology(spec, seed);
  const double topo_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const std::vector<bench::SweepPoint> points = bench::run_sweep(sweep, n, [&] {
    return std::make_unique<scale::Engine>(cfg, topo, opt, seed);
  });
  const std::uint64_t rss_kb = bench::peak_rss_kb();
  const bench::SweepPoint& head = points.front();
  // Speedups normalize against the real serial run when the sweep has one;
  // a clamped/deduped list without jobs=1 falls back to its first point
  // (and the speedup fields then read "vs jobs=<baseline.jobs>", never a
  // division against a point that was not run).
  const bench::SweepPoint& baseline = points[bench::sweep_baseline_index(sweep)];

  bench::emit(args, [&] {
    Table table({"n", "k", "degree", "jobs", "ticks", "T", "transfers",
                 "node-ticks/s", "xfers/s", "speedup", "gen-s", "merge-s",
                 "apply-s"});
    for (const bench::SweepPoint& p : points) {
      table.add_row({std::to_string(n), std::to_string(k),
                     scale::overlay_bound(spec.algo) ? std::to_string(spec.degree)
                                                     : std::string("-"),
                     std::to_string(p.jobs), std::to_string(p.result.ticks_executed),
                     p.result.completed ? std::to_string(p.result.completion_tick)
                                        : (p.result.stalled ? "stall" : "cap"),
                     std::to_string(p.result.total_transfers),
                     fmt(p.node_ticks_per_sec / 1e6, 1) + "M",
                     fmt(p.transfers_per_sec / 1e6, 1) + "M",
                     fmt(bench::speedup(baseline, p), 2) + "x",
                     fmt(p.phases.generate_seconds, 2),
                     fmt(p.phases.merge_seconds, 2), fmt(p.phases.apply_seconds, 2)});
    }
    return table;
  }());
  std::cout << "# graph build " << fmt(topo_seconds, 2) << " s, state "
            << head.state_bytes / (1024 * 1024) << " MiB ("
            << head.state_bytes_end / (1024 * 1024) << " MiB after the run, "
            << head.ledger_pairs << " ledger pairs), peak rss "
            << rss_kb / 1024 << " MiB\n";

  // The E24 comparison row: completion against the Theorem 1 cooperative
  // optimum (price of barter = T / coop bound). Reported for every
  // scheduler so the randomized/credit rows line up in the same table.
  const Tick coop_bound = cooperative_lower_bound(n, k);
  const Tick strict_bound = strict_barter_lower_bound_equal_bw(n, k);
  const double price = head.result.completed
                           ? static_cast<double>(head.result.completion_tick) /
                                 static_cast<double>(coop_bound)
                           : 0.0;
  std::cout << "# scheduler " << scale::sched_kind_name(opt.scheduler) << ", coop bound "
            << coop_bound << ", strict-barter bound " << strict_bound
            << ", price of barter " << fmt(price, 3) << "\n";

  // The pob/flow certificate on the exact topology this run used: riffle is
  // the only scheduler here bound by strict barter's same-tick coupling.
  const flow::CompletionCertificate cert = flow::certify_completion_bound(
      cfg, *topo,
      opt.scheduler == scale::SchedKind::kRifflePipeline
          ? flow::BarterModel::kStrictBarter
          : flow::BarterModel::kCooperative);
  const double certified = head.result.completed
                               ? flow::certified_price(head.result.completion_tick,
                                                       cert.lower_bound)
                               : 0.0;
  std::cout << "# certificate: T*=" << cert.lower_bound << ", certified price "
            << fmt(certified, 3) << "\n";
  const bool digests_agree = bench::print_digests(points);

  bench::JsonReport json;
  json.str("bench", "scale_throughput")
      .str("spec", to_flags(spec))
      .count("n", n)
      .count("k", k)
      .count("degree", spec.degree)
      .count("jobs", head.jobs)
      .str("scheduler", scale::sched_kind_name(opt.scheduler))
      .count("coop_lower_bound", coop_bound)
      .count("strict_barter_bound", strict_bound)
      .num("price_of_barter", price)
      .certified(cert.lower_bound, certified)
      .count("credit_limit", opt.credit_limit)
      .str("policy", opt.policy == BlockPolicy::kRandom ? "random" : "rarest")
      .flag("completed", head.result.completed)
      .count("ticks_executed", head.result.ticks_executed)
      .count("completion_tick", head.result.completion_tick)
      .count("total_transfers", head.result.total_transfers)
      .count("node_ticks",
             static_cast<std::uint64_t>(n) * head.result.ticks_executed)
      .num("run_seconds", head.run_seconds)
      .num("topology_seconds", topo_seconds)
      .num("engine_build_seconds", head.build_seconds)
      .num("node_ticks_per_sec", head.node_ticks_per_sec)
      .num("transfers_per_sec", head.transfers_per_sec)
      .num("phase_generate_seconds", head.phases.generate_seconds)
      .num("phase_merge_seconds", head.phases.merge_seconds)
      .num("phase_apply_seconds", head.phases.apply_seconds)
      .count("state_bytes", head.state_bytes)
      .count("state_bytes_end", head.state_bytes_end)
      .count("ledger_pairs", head.ledger_pairs)
      .count("peak_rss_kb", rss_kb)
      .count("digest", head.digest);
  bench::add_host_fields(json);
  bench::add_sweep_fields(json, points, baseline, true);
  if (!json.write(args, "BENCH_scale.json")) return 1;
  if (!digests_agree) {
    std::cerr << "scale_throughput: RunResult digest differs across job counts\n";
    return 1;
  }
  return head.result.completed || cfg.max_ticks != 0 ? 0 : 1;
}

}  // namespace
}  // namespace pob

int main(int argc, char** argv) {
  try {
    return pob::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "scale_throughput: " << e.what() << "\n";
    return 2;
  }
}
