// pobsim — run any algorithm / overlay / mechanism combination on any of the
// three engines from the command line.
//
//   pobsim --algo=binomial-pipeline --n=64 --k=32
//   pobsim --algo=randomized --overlay=regular --degree=20 --n=1000 --k=1000
//          --policy=rarest --runs=5
//   pobsim --algo=credit-randomized --overlay=regular --degree=80 --credit=1
//          --n=1000 --k=1000
//   pobsim --algo=riffle --mechanism=strict --n=100 --k=99 --download=2
//   pobsim --engine=scale --n=1000000 --k=512 --overlay=regular --degree=16
//   pobsim --engine=stream --n=200000 --k=64 --overlay=regular --arrivals=flash
//          --deadlines
//   pobsim --engine=scale --n=200000 --k=128 --overlay=regular --degree=16
//          --sweep=1,2,4,8 --json=BENCH_scale.json   # E22/E23 throughput
//
// Every run prints `# spec: <flags>` first — its full RunSpec
// (src/pob/scale/run_spec.h), every field explicit — and run 0's
// `# digest` after the table. Passing that spec back to pobsim reruns the
// same swarm to the same digest. A flag that no parser reads exits 2.
//
// On the scale and stream engines run 0 is a jobs sweep
// (pob/check/jobs_sweep.h): one topology, one fresh engine per job count,
// a `# jobs J:` line per point (build and run time, node-ticks/s,
// transfers/s, speedup, scale phase times, ledger pairs). A plain run is a
// one-point sweep at --jobs. Every point must give one digest and one
// credit-ledger size, or pobsim exits 1. An incomplete run still exits 0.
//
// Run flags (pobsim's defaults in brackets):
//   --engine     core | scale | stream [core]. core validates every tick and
//                runs --runs trials in parallel; scale (the SoA mega-swarm
//                engine, --algo=randomized | credit-randomized |
//                binomial-pipeline | riffle) and stream (event-driven
//                arrivals, rate churn and streaming demand over it,
//                --algo=randomized) parallelize each tick instead. Results
//                are identical at any --jobs.
//   --algo       pipeline | tree | binomial-tree | binomial-pipeline |
//                multi-server | riffle | randomized | credit-randomized |
//                rotating | tit-for-tat | striped-trees [randomized]
//   --overlay    complete | regular | hypercube | ring | karytree [complete],
//                for randomized, credit-randomized and tit-for-tat; every
//                other algo runs on the complete graph
//   --mechanism  none | strict | credit | triangular | cyclic [none]. The core
//                engine enforces it on every algo; credit-randomized and
//                rotating also precheck it (credit-randomized runs credit
//                when it is none; strict exits 2). The scale engine runs
//                credit (randomized), triangular (binomial-pipeline: §3.3's
//                triangular barter) and strict (riffle); stream runs credit
//   --degree [20] --arity [2] --credit [1] --cycle-len [4] --n [64] --k [32]
//   --upload [1] --download [unlimited] --servers [0 = --upload; multi-server
//   m = 2] --cap [0 = default] --stall-window [0 = off] --leave-pct [0]
//   --stripes [4] --period [16] --policy random | rarest [random] --probes [16]
//   stream: --arrivals batch | poisson | flash | burst [batch] --gap16 [16]
//   --flash-start [8] --flash-width [4] --flash-pct [90] --burst-size [64]
//   --burst-period [4] --classes [0] --churn [0] --horizon [64] --window [0]
//   --startup [4] --interval [1] --deadlines [false] --slack [2]
//   --seed [1] --runs [1]   run i has seed trial_seed(seed, i)
//
// Driver flags: --jobs (0 = all cores), --certify (the pob/flow lower bound
// T* of run 0's exact scenario and the certified price T/T*), --fairness,
// --save-trace=<file> (run 0), --replay=<file> (validate a saved trace under
// --mechanism), --trace (print run 0's transfers), --csv. Scale and stream
// only, with --runs=1 for a sweep: --sweep=<jobs,...> (run 0 once per job
// count instead of once at --jobs) and --json=<path> (run 0's report under
// the field names of BENCH_scale.json / BENCH_stream.json, with *_j<jobs>
// groups per sweep point; a scale report carries the certificate, so it
// implies --certify). Either flag on the core engine exits 2.

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "pob/analysis/bounds.h"
#include "pob/check/jobs_sweep.h"
#include "pob/check/oracle.h"
#include "pob/core/engine.h"
#include "pob/core/metrics.h"
#include "pob/exp/cli.h"
#include "pob/exp/parallel.h"
#include "pob/exp/report.h"
#include "pob/exp/sweep.h"
#include "pob/exp/table.h"
#include "pob/exp/trace_io.h"
#include "pob/flow/certify.h"
#include "pob/scale/run_spec.h"

namespace pob {
namespace {

using scale::Algo;
using scale::RunEngine;
using scale::RunSpec;

/// The --certify report: the pob/flow lower-bound oracle evaluated on the
/// exact scenario just simulated. T* is sound for every legal schedule of
/// the scenario, so simulated-T / T* is a certified price — 1.00 means the
/// run is provably optimal on its topology.
flow::CompletionCertificate print_certificate(const EngineConfig& cfg,
                                              const scale::Topology& topo,
                                              flow::BarterModel model, bool completed,
                                              Tick simulated) {
  const flow::CompletionCertificate cert =
      flow::certify_completion_bound(cfg, topo, model);
  std::cout << "# certificate: T*=" << cert.lower_bound << " simulated-T=";
  if (completed) {
    std::cout << simulated << " certified-price="
              << fmt(flow::certified_price(simulated, cert.lower_bound), 3);
  } else {
    std::cout << "DNF";
  }
  std::cout << " (last-block " << cert.last_block_bound << ", ramp "
            << cert.ramp_bound << ", pipe " << cert.pipe_bound;
  if (cert.flow_evaluated) std::cout << ", flow " << cert.flow_bound;
  if (model == flow::BarterModel::kStrictBarter) {
    std::cout << ", seed " << cert.seed_bound << ", strict-ramp "
              << cert.strict_ramp_bound;
  }
  std::cout << "; demand " << cert.demand_clients << ")\n";
  return cert;
}

/// One `# jobs J:` line per sweep point of run 0; speedups are against
/// `baseline`.
void print_points(const std::vector<check::SweepPoint>& points,
                  const check::SweepPoint& baseline, bool phases) {
  for (const check::SweepPoint& p : points) {
    std::cout << "# jobs " << p.jobs << ": build " << fmt(p.build_seconds, 3)
              << " s, run " << fmt(p.run_seconds, 3) << " s, "
              << fmt(p.node_ticks_per_sec / 1e6, 2) << "M node-ticks/s, "
              << fmt(p.transfers_per_sec / 1e6, 2) << "M transfers/s, speedup "
              << fmt(check::speedup(baseline, p), 2) << "x";
    if (phases) {
      std::cout << ", generate " << fmt(p.phases.generate_seconds, 3) << " / merge "
                << fmt(p.phases.merge_seconds, 3) << " / apply "
                << fmt(p.phases.apply_seconds, 3) << " s";
    }
    std::cout << ", " << p.ledger_pairs << " ledger pairs\n";
  }
}

/// The --json report of a scale or stream run: run 0's headline numbers
/// under the field names of the archived BENCH_scale.json and
/// BENCH_stream.json, then one *_j<jobs> group per sweep point. A scale
/// report carries `cert`'s certified pair.
bool write_json(const Args& args, const RunSpec& spec, const check::JobsSweep& run0,
                const check::SweepPoint& baseline,
                const std::optional<flow::CompletionCertificate>& cert) {
  const bool on_scale = spec.engine == RunEngine::kScale;
  const check::SweepPoint& head = run0.points.front();
  const RunResult& r = head.result;
  JsonReport json;
  json.str("bench", "pobsim")
      .str("spec", to_flags(spec))
      .count("n", spec.n)
      .count("k", spec.k)
      .count("degree", spec.degree)
      .count("jobs", head.jobs);
  if (on_scale) {
    // E24's price of barter: completion against the Theorem 1 cooperative
    // optimum, reported for every scheduler so the rows line up.
    const scale::ScaleOptions opt = scale::build_scale_options(spec);
    const Tick coop_bound = cooperative_lower_bound(spec.n, spec.k);
    json.str("scheduler", scale::sched_kind_name(opt.scheduler))
        .count("coop_lower_bound", coop_bound)
        .count("strict_barter_bound", strict_barter_lower_bound_equal_bw(spec.n, spec.k))
        .num("price_of_barter", r.completed ? static_cast<double>(r.completion_tick) /
                                                  static_cast<double>(coop_bound)
                                            : 0.0)
        .certified(cert->lower_bound,
                   r.completed ? flow::certified_price(r.completion_tick, cert->lower_bound)
                               : 0.0)
        .count("credit_limit", opt.credit_limit);
  } else {
    json.str("workload", scale::to_string(spec.arrivals))
        .count("rate_classes", spec.classes)
        .count("rate_changes", spec.churn)
        .count("window", spec.window)
        .count("startup_blocks", spec.startup)
        .flag("deadlines", spec.deadlines);
  }
  json.str("policy", spec.policy == BlockPolicy::kRandom ? "random" : "rarest")
      .flag("completed", r.completed)
      .count("ticks_executed", r.ticks_executed)
      .count("completion_tick", r.completion_tick)
      .count("total_transfers", r.total_transfers);
  if (on_scale) json.count("node_ticks", std::uint64_t{spec.n} * r.ticks_executed);
  json.num("run_seconds", head.run_seconds).num("topology_seconds", run0.topology_seconds);
  if (on_scale) json.num("engine_build_seconds", head.build_seconds);
  json.num("node_ticks_per_sec", head.node_ticks_per_sec);
  if (on_scale) {
    json.num("transfers_per_sec", head.transfers_per_sec)
        .num("phase_generate_seconds", head.phases.generate_seconds)
        .num("phase_merge_seconds", head.phases.merge_seconds)
        .num("phase_apply_seconds", head.phases.apply_seconds);
  }
  json.count("state_bytes", head.state_bytes);
  if (on_scale) {
    json.count("state_bytes_end", head.state_bytes_end)
        .count("ledger_pairs", head.ledger_pairs);
  }
  json.count("peak_rss_kb", peak_rss_kb());
  if (!on_scale) {
    const scale::stream::StartupStats lat = scale::stream::startup_stats(r);
    json.count("started_clients", lat.started)
        .count("never_started", r.never_started)
        .num("startup_latency_mean", lat.mean)
        .num("startup_latency_p50", lat.p50)
        .num("startup_latency_p95", lat.p95)
        .num("startup_latency_max", lat.max)
        .count("rebuffer_ticks_total", r.total_rebuffer_ticks())
        .count("rebuffered_clients", r.rebuffered_clients)
        .count("deadline_misses", r.deadline_misses)
        .count("deadline_checks", r.deadline_checks)
        .num("deadline_miss_fraction", r.deadline_miss_fraction());
  }
  json.count("digest", head.digest);
  add_host_fields(json);
  check::add_sweep_fields(json, run0.points, baseline, on_scale);
  return json.write(args);
}

int main_impl(int argc, char** argv) {
  const Args args(argc, argv);
  const RunSpec spec = scale::parse_run_spec(args);
  const unsigned jobs = jobs_from_flag(args.get_int("jobs", 0));
  const std::vector<unsigned> sweep = sweep_jobs(args);
  const bool json = args.has("json");
  // A scale report carries the certificate, so --json implies --certify.
  const bool certify = args.has("certify") || (json && spec.engine == RunEngine::kScale);
  const bool csv = args.has("csv");
  const bool print_trace = args.has("trace");
  const bool fairness = args.has("fairness");
  const bool save_trace = args.has("save-trace");
  const std::string trace_path = args.get_string("save-trace", "");
  const bool replay = args.has("replay");
  const std::string replay_path = args.get_string("replay", "");
  args.reject_unknown();
  if (spec.engine == RunEngine::kCore && (args.has("sweep") || json)) {
    throw std::invalid_argument("--sweep and --json run --engine=scale|stream");
  }
  if (args.has("sweep") && spec.runs > 1) {
    throw std::invalid_argument("--sweep reruns run 0 only; drop --runs");
  }

  if (replay) {
    std::ifstream in(replay_path);
    if (!in) throw std::invalid_argument("cannot open trace file");
    const LoadedTrace trace = read_trace(in);
    std::unique_ptr<Mechanism> mech = scale::build_mechanism(spec);
    const RunResult r = replay_trace(trace, mech.get());
    std::cout << "replayed " << trace.ticks.size() << " ticks: "
              << (r.completed ? "completed at tick " + std::to_string(r.completion_tick)
                              : "incomplete")
              << " under mechanism '" << to_string(spec.mechanism) << "'\n";
    return r.completed ? 0 : 1;
  }

  std::cout << "# spec: " << to_flags(spec) << "\n";
  EngineConfig cfg = scale::build_config(spec);
  cfg.record_trace = print_trace || save_trace;

  // Core trials run in parallel, one per worker. The scale and stream
  // engines run their trials serially and parallelize each tick instead:
  // run 0 once per --sweep job count, every later run at --jobs.
  RunResult core_first;
  check::JobsSweep run0;
  const auto sweep_start = std::chrono::steady_clock::now();
  const unsigned trial_jobs = spec.engine == RunEngine::kCore ? jobs : 1;
  const TrialStats stats = repeat_trials_parallel(spec.runs, trial_jobs, [&](std::uint32_t i) {
    RunResult core;
    check::JobsSweep swept;
    if (spec.engine == RunEngine::kCore) {
      const scale::BuiltScheduler built =
          scale::build_scheduler(spec, cfg, scale::run_seed(spec, i));
      core = run(cfg, *built.scheduler, built.mechanism.get());
    } else {
      swept = check::run_sweep(spec, i, i == 0 ? sweep : std::vector<unsigned>{jobs},
                               cfg.record_trace);
    }
    const RunResult& r = swept.points.empty() ? core : swept.points.front().result;
    TrialOutcome out;
    out.completed = r.completed;
    if (r.completed) {
      out.completion = static_cast<double>(r.completion_tick);
      out.mean_completion = r.mean_client_completion();
    }
    if (i == 0) {
      core_first = std::move(core);
      run0 = std::move(swept);
    }
    return out;
  });
  const double sweep_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - sweep_start)
          .count();
  const RunResult& first = run0.points.empty() ? core_first : run0.points.front().result;
  const check::SweepPoint* baseline =
      run0.points.empty() ? nullptr : &run0.points[sweep_baseline_index(sweep)];

  const std::string label =
      spec.engine == RunEngine::kCore
          ? std::string(to_string(spec.algo))
          : std::string(to_string(spec.engine)) + ":" + to_string(spec.algo);
  Table table({"algo", "n", "k", "runs", "T", "mean-finish", "coop-bound"});
  const double cap = cfg.max_ticks != 0
                         ? static_cast<double>(cfg.max_ticks)
                         : static_cast<double>(default_tick_cap(spec.n, spec.k));
  table.add_row({label, std::to_string(spec.n), std::to_string(spec.k),
                 std::to_string(spec.runs), completion_cell(stats, cap),
                 stats.all_censored() ? "-" : fmt(stats.mean_completion.mean),
                 std::to_string(cooperative_lower_bound(spec.n, spec.k))});
  if (csv) {
    table.write_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  const std::string jobs_label = run0.points.empty()
                                     ? std::to_string(jobs == 0 ? default_jobs() : jobs)
                                     : check::jobs_list(run0.points);
  std::cout << "# sweep: " << spec.runs << " trials in " << fmt(sweep_seconds, 2)
            << " s (" << fmt(sweep_seconds > 0.0 ? spec.runs / sweep_seconds : 0.0, 1)
            << " trials/s, jobs=" << jobs_label << ")";
  bool agree = true;
  if (baseline == nullptr) {
    std::cout << "\n# digest " << std::hex << check::run_result_digest(first) << std::dec
              << "\n";
  } else {
    const check::SweepPoint& head = run0.points.front();
    std::cout << ", state " << head.state_bytes / (1024 * 1024) << " MiB ("
              << head.state_bytes_end / (1024 * 1024) << " MiB after the run)\n";
    print_points(run0.points, *baseline, spec.engine == RunEngine::kScale);
    agree = check::print_digests(run0.points);
  }

  if (spec.engine == RunEngine::kStream) {
    std::cout << "# " << scale::stream::describe_viewer_metrics(first) << "\n";
  }
  if (fairness) {
    const FairnessSummary f = upload_fairness(first);
    std::cout << "fairness (clients): mean=" << fmt(f.mean, 1) << " min=" << fmt(f.min, 0)
              << " max=" << fmt(f.max, 0) << " gini=" << fmt(f.gini, 3) << "\n";
  }
  if (save_trace) {
    std::ofstream out(trace_path);
    if (!out) throw std::invalid_argument("cannot open trace output file");
    write_trace(out, cfg, first, run0.points.empty() ? TraceEvents{} : run0.points.front().events);
  }
  if (print_trace) {
    for (Tick t = 1; t <= first.trace.size(); ++t) {
      std::cout << "tick " << t << ":";
      for (const Transfer& tr : first.trace[t - 1]) {
        std::cout << "  " << tr.from << "->" << tr.to << " b" << tr.block;
      }
      std::cout << "\n";
    }
  }
  std::optional<flow::CompletionCertificate> cert;
  if (certify) {
    if (spec.engine == RunEngine::kStream && spec.classes != 0) {
      // Rate classes raise per-node capacities above the config scalars the
      // certifier sees, so a bound computed here would not be sound.
      std::cout << "# certificate: skipped (--classes overrides capacities)\n";
    } else {
      // Run 0's topology (the complete graph for a schedule that is not
      // overlay-bound). The riffle and the strict mechanism are the runs
      // bound by strict barter's coupling.
      const flow::BarterModel model =
          spec.algo == Algo::kRiffle || spec.mechanism == scale::MechanismKind::kStrict
              ? flow::BarterModel::kStrictBarter
              : flow::BarterModel::kCooperative;
      const std::shared_ptr<const scale::Topology> topo =
          run0.topology ? run0.topology
                        : scale::build_topology(spec, scale::run_seed(spec, 0));
      cert = print_certificate(cfg, *topo, model, first.completed, first.completion_tick);
    }
  }
  if (json && !write_json(args, spec, run0, *baseline, cert)) return 1;
  if (!agree) {
    std::cerr << "pobsim: run 0's digest or ledger size differs across job counts\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pob

int main(int argc, char** argv) {
  try {
    return pob::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "pobsim: " << e.what() << "\n";
    return 2;
  }
}
