// E23 companion: the randomized generate phase in isolation.
//
// scale_throughput measures whole runs, where merge/apply and the changing
// swarm state fold every effect together; this microbench freezes one
// mid-run swarm and replans the same tick repeatedly, so the probe ladder —
// the part the scan kernels actually touch — is the only thing on the
// clock. The drive: advance the fill with a capped run() window (run() is
// resumable), then call plan() at the frozen tick --iters times per
// configuration. plan() poisons run(), so each configuration gets a fresh
// engine advanced to the identical state (same seed, same windows —
// bit-identical by construction).
//
// Repeated plans at one tick emit the identical intent stream (the bench
// asserts it), but not identical seconds: the first iteration runs cold,
// later ones hit the probe cache and the sated stamps. Per-iteration rows
// expose exactly that warm-up, which whole-run numbers average away.
//
//   micro_scale_generate                       # 200k x 128, warm 120 ticks
//   micro_scale_generate --n=50000 --iters=8
//   micro_scale_generate --warm=40             # an earlier, busier phase

#include <chrono>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "pob/scale/engine.h"

namespace pob {
namespace {

struct ConfigPoint {
  std::string kernel;
  std::uint64_t intents = 0;     // merged intents per plan (identical across)
  std::vector<double> seconds;   // per-iteration generate-phase seconds
  double best = 0.0;             // fastest iteration (warm)
  double mean = 0.0;
};

int main_impl(int argc, char** argv) {
  const Args args(argc, argv);
  const auto n = static_cast<std::uint32_t>(args.get_int("n", 200000));
  const auto k = static_cast<std::uint32_t>(args.get_int("k", 128));
  const auto degree = static_cast<std::uint32_t>(args.get_int("degree", 16));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  // The frozen tick: deep enough that rows are part-full and probing does
  // real differencing work, short of the endgame where sated stamps blank
  // most of the swarm. (200k x 128 completes near tick 200.)
  const auto warm = static_cast<Tick>(args.get_int("warm", 120));
  const auto iters =
      static_cast<std::uint32_t>(std::max<std::int64_t>(1, args.get_int("iters", 5)));

  EngineConfig cfg;
  cfg.num_nodes = n;
  cfg.num_blocks = k;
  cfg.max_ticks = warm;

  Rng topo_rng = Rng(seed).split(0);
  const auto topo = std::make_shared<scale::Topology>(
      scale::Topology::from_graph(make_random_regular(n, degree, topo_rng)));

  // The ablation grid: every scan kernel this build resolves.
  std::vector<ConfigPoint> points;
  std::vector<Transfer> stream;
  std::vector<Transfer> reference;
  for (const scale::ScanKernel kernel :
       {scale::ScanKernel::kAuto, scale::ScanKernel::kScalar}) {
    scale::ScaleOptions opt;
    opt.collect_phase_timings = true;
    opt.scan_kernel = kernel;

    scale::Engine engine(cfg, topo, opt, seed);
    const RunResult warmed = engine.run(1);
    if (warmed.completed) {
      throw std::runtime_error(
          "--warm=" + std::to_string(warm) +
          " already completes this swarm; lower it or grow --n/--k");
    }

    ConfigPoint p;
    p.kernel = scale::scan_kernel_name(kernel);
    const Tick tick = engine.current_tick();
    double base = engine.phase_timings().generate_seconds;
    for (std::uint32_t i = 0; i < iters; ++i) {
      stream.clear();
      engine.plan(tick, stream);
      const double total = engine.phase_timings().generate_seconds;
      p.seconds.push_back(total - base);
      base = total;
    }
    p.intents = stream.size();
    // Every configuration replans the identical frozen swarm, so every plan
    // of every configuration must emit the identical stream — the digest
    // pins prove it for whole runs; this bench spot-checks the same claim
    // where a kernel bug would first show.
    if (reference.empty()) {
      reference = stream;
    } else if (stream.size() != reference.size() ||
               !std::equal(stream.begin(), stream.end(), reference.begin(),
                           [](const Transfer& a, const Transfer& b) {
                             return a.from == b.from && a.to == b.to &&
                                    a.block == b.block;
                           })) {
      throw std::runtime_error("plan() stream diverged across configurations");
    }
    p.best = *std::min_element(p.seconds.begin(), p.seconds.end());
    for (const double s : p.seconds) p.mean += s;
    p.mean /= static_cast<double>(p.seconds.size());
    points.push_back(std::move(p));
  }

  bench::emit(args, [&] {
    Table table({"kernel", "iter", "gen-s", "node-ticks/s"});
    for (const ConfigPoint& p : points) {
      for (std::size_t i = 0; i < p.seconds.size(); ++i) {
        const double rate =
            p.seconds[i] > 0.0 ? static_cast<double>(n) / p.seconds[i] : 0.0;
        table.add_row({p.kernel, std::to_string(i), fmt(p.seconds[i], 4),
                       fmt(rate / 1e6, 1) + "M"});
      }
    }
    return table;
  }());
  std::cout << "# frozen at tick " << warm << ", " << points.front().intents
            << " intents per plan, " << iters << " iterations per config\n";

  bench::JsonReport json;
  json.str("bench", "micro_scale_generate")
      .count("n", n)
      .count("k", k)
      .count("degree", degree)
      .count("warm_ticks", warm)
      .count("iters", iters)
      .count("intents_per_plan", points.front().intents);
  for (const ConfigPoint& p : points) {
    const std::string suffix = "_" + p.kernel;
    json.num("generate_seconds_best" + suffix, p.best)
        .num("generate_seconds_mean" + suffix, p.mean)
        .num("node_ticks_per_sec" + suffix,
             p.best > 0.0 ? static_cast<double>(n) / p.best : 0.0);
  }
  bench::add_host_fields(json);
  if (!json.write(args, "BENCH_micro_generate.json")) return 1;
  return 0;
}

}  // namespace
}  // namespace pob

int main(int argc, char** argv) {
  try {
    return pob::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "micro_scale_generate: " << e.what() << "\n";
    return 2;
  }
}
