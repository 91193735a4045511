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
//
// Every run prints `# spec: <flags>` first — its full RunSpec
// (src/pob/scale/run_spec.h), every field explicit — and run 0's
// `# digest` after the table. Passing that spec back to pobsim (or, for
// --engine=scale|stream, to scale_throughput / stream_throughput) reruns
// the same swarm to the same digest. A flag that no parser reads exits 2.
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
// --mechanism), --trace (print run 0's transfers), --csv.

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>

#include "pob/analysis/bounds.h"
#include "pob/check/oracle.h"
#include "pob/core/engine.h"
#include "pob/core/metrics.h"
#include "pob/exp/cli.h"
#include "pob/exp/parallel.h"
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
void print_certificate(const EngineConfig& cfg, const scale::Topology& topo,
                       flow::BarterModel model, bool completed, Tick simulated) {
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
}

int main_impl(int argc, char** argv) {
  const Args args(argc, argv);
  const RunSpec spec = scale::parse_run_spec(args, scale::kPobsimDefaults);
  const unsigned jobs = jobs_from_flag(args.get_int("jobs", 0));
  const bool csv = args.has("csv");
  const bool print_trace = args.has("trace");
  const bool fairness = args.has("fairness");
  const bool certify = args.has("certify");
  const bool save_trace = args.has("save-trace");
  const std::string trace_path = args.get_string("save-trace", "");
  const bool replay = args.has("replay");
  const std::string replay_path = args.get_string("replay", "");
  args.reject_unknown();

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

  // Core trials run in parallel, one per worker; the scale and stream
  // engines run their trials serially and parallelize each tick instead.
  RunResult first;
  TraceEvents first_events;
  std::uint64_t state_bytes = 0;      // run 0's engine state before its run
  std::uint64_t state_bytes_end = 0;  // and after it (tick scratch, ledger)
  const auto sweep_start = std::chrono::steady_clock::now();
  const unsigned trial_jobs = spec.engine == RunEngine::kCore ? jobs : 1;
  const TrialStats stats = repeat_trials_parallel(spec.runs, trial_jobs, [&](std::uint32_t i) {
    const std::uint64_t seed = scale::run_seed(spec, i);
    RunResult r;
    if (spec.engine == RunEngine::kCore) {
      const scale::BuiltScheduler core = scale::build_scheduler(spec, cfg, seed);
      r = run(cfg, *core.scheduler, core.mechanism.get());
    } else if (spec.engine == RunEngine::kScale) {
      scale::Engine engine(cfg, scale::build_topology(spec, seed),
                           scale::build_scale_options(spec), seed);
      if (i == 0) state_bytes = engine.state_bytes();
      r = engine.run(jobs);
      if (i == 0) state_bytes_end = engine.state_bytes();
    } else {
      scale::stream::StreamSpec stream = scale::build_stream_spec(spec, seed);
      stream.config.record_trace = cfg.record_trace;
      scale::stream::StreamEngine engine(std::move(stream));
      if (i == 0) state_bytes = engine.state_bytes();
      r = engine.run(jobs);
      if (i == 0) {
        state_bytes_end = engine.state_bytes();
        first_events = engine.trace_events();
      }
    }
    TrialOutcome out;
    out.completed = r.completed;
    if (r.completed) {
      out.completion = static_cast<double>(r.completion_tick);
      out.mean_completion = r.mean_client_completion();
    }
    if (i == 0) first = std::move(r);
    return out;
  });
  const double sweep_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - sweep_start)
          .count();

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
  std::cout << "# sweep: " << spec.runs << " trials in " << fmt(sweep_seconds, 2)
            << " s (" << fmt(sweep_seconds > 0.0 ? spec.runs / sweep_seconds : 0.0, 1)
            << " trials/s, jobs=" << (jobs == 0 ? default_jobs() : jobs) << ")";
  if (spec.engine != RunEngine::kCore) {
    std::cout << ", state " << state_bytes / (1024 * 1024) << " MiB ("
              << state_bytes_end / (1024 * 1024) << " MiB after the run)";
  }
  std::cout << "\n# digest " << std::hex << check::run_result_digest(first) << std::dec
            << "\n";

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
    write_trace(out, cfg, first, first_events);
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
      print_certificate(cfg, *scale::build_topology(spec, scale::run_seed(spec, 0)), model,
                        first.completed, first.completion_tick);
    }
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
