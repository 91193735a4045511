// The four benchmark workloads. Each builds its inputs from the workload
// seed, runs them through the library's public API, checks every result
// against a closed form or an invariant, and records per-repeat samples:
// end-to-end samples on untraced repeats, per-layer samples on traced ones.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "pob/analysis/bounds.h"
#include "pob/check/oracle.h"
#include "pob/core/engine.h"
#include "pob/exp/parallel.h"
#include "pob/flow/certify.h"
#include "pob/overlay/builders.h"
#include "pob/overlay/overlay.h"
#include "pob/rand/randomized.h"
#include "pob/scale/engine.h"
#include "pob/scale/stream/stream_engine.h"
#include "pob/scale/topology.h"

namespace pobbench {
namespace {

using pob::EngineConfig;
using pob::RunResult;
using pob::Tick;
namespace scale = pob::scale;
namespace flow = pob::flow;

constexpr double kMiB = 1024.0 * 1024.0;

/// Nearest-rank quantile of an unsorted sample (q in [0, 1]).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

/// One scale::Engine simulation, driven either by run() (untraced) or tick
/// by tick through step() with phase timings on (traced).
struct SimResult {
  bool completed = false;
  Tick completion = 0;
  Tick ticks = 0;
  std::uint64_t transfers = 0;
  std::uint64_t slots = 0;  ///< sum over ticks of active upload slots
  std::uint64_t digest = 0;
  double seconds = 0.0;
  scale::PhaseTimings phases;
  double step_seconds = 0.0;    ///< traced: sum of step spans
  std::vector<double> tick_ms;  ///< traced: one entry per step
};

SimResult simulate(scale::Engine& engine, unsigned jobs, bool traced, Tracer& tr) {
  SimResult out;
  const Clock::time_point t0 = Clock::now();
  if (!traced) {
    const RunResult res = engine.run(jobs);
    out.seconds = seconds_since(t0);
    out.completed = res.completed;
    out.completion = res.completion_tick;
    out.ticks = res.ticks_executed;
    out.transfers = res.total_transfers;
    for (const pob::Count s : res.active_slots_per_tick) out.slots += s;
    out.digest = pob::check::run_result_digest(res);
    return out;
  }
  // The stepped drive: the same loop head and phases run() executes, one
  // tick per call. Its digest folds the per-tick transfer counts and every
  // node's completion tick and upload total.
  pob::ThreadPool pool(jobs);
  const EngineConfig& cfg = engine.config();
  const Tick cap = pob::default_tick_cap(cfg.num_nodes, cfg.num_blocks);
  std::uint64_t digest = kDigestBasis;
  while (!engine.all_complete() && engine.current_tick() < cap) {
    out.slots += engine.active_upload_slots();
    const Clock::time_point s0 = Clock::now();
    const std::size_t accepted = engine.step(&pool).size();
    const Clock::time_point s1 = Clock::now();
    tr.record("engine.step", s0, s1);
    const double step_s = std::chrono::duration<double>(s1 - s0).count();
    out.step_seconds += step_s;
    out.tick_ms.push_back(step_s * 1e3);
    out.transfers += accepted;
    digest = fold_digest(digest, accepted);
  }
  out.seconds = seconds_since(t0);
  out.completed = engine.all_complete();
  out.ticks = engine.current_tick();
  out.completion = out.completed ? out.ticks : 0;
  for (pob::NodeId u = 0; u < cfg.num_nodes; ++u) {
    digest = fold_digest(digest, engine.node_completion(u));
    digest = fold_digest(digest, engine.node_uploads(u));
  }
  out.digest = digest;
  out.phases = engine.phase_timings();
  return out;
}

/// Remembers the first digest seen per drive mode and checks later repeats
/// against it; the first digest of each mode also enters the run digest.
class RepeatDigests {
 public:
  void check(Context& ctx, bool traced, std::uint64_t digest, const std::string& what) {
    std::uint64_t& first = traced ? traced_ : untraced_;
    if (first == 0) {
      first = digest;
      ctx.digest = fold_digest(ctx.digest, digest);
      return;
    }
    ctx.checks.expect(digest == first, what + ": same digest on every repeat");
  }

 private:
  std::uint64_t untraced_ = 0;
  std::uint64_t traced_ = 0;
};

/// The tick-level per-layer samples shared by the stepped workloads.
void add_tick_samples(Context& ctx, const std::vector<const SimResult*>& sims) {
  double gen = 0.0, merge = 0.0, apply = 0.0, steps = 0.0;
  std::uint64_t ticks = 0, transfers = 0, slots = 0;
  std::vector<double> tick_ms;
  for (const SimResult* s : sims) {
    gen += s->phases.generate_seconds;
    merge += s->phases.merge_seconds;
    apply += s->phases.apply_seconds;
    steps += s->step_seconds;
    ticks += s->ticks;
    transfers += s->transfers;
    slots += s->slots;
    tick_ms.insert(tick_ms.end(), s->tick_ms.begin(), s->tick_ms.end());
  }
  ctx.samples.add("engine.generate_s", gen);
  ctx.samples.add("engine.merge_s", merge);
  ctx.samples.add("engine.apply_s", apply);
  ctx.samples.add("engine.loop_s", steps - gen - merge - apply);
  ctx.samples.add("engine.tick_p50_ms", quantile(tick_ms, 0.50));
  ctx.samples.add("engine.tick_p99_ms", quantile(tick_ms, 0.99));
  ctx.samples.add("engine.ticks", static_cast<double>(ticks));
  ctx.samples.add("engine.slot_util",
                  slots == 0 ? 0.0 : static_cast<double>(transfers) / static_cast<double>(slots));
}

void note_engine(Context& ctx, const scale::Engine& engine) {
  ctx.manifest["scan_kernel"] = scale::scan_kernel_name(engine.options().scan_kernel);
  ctx.manifest["batch_window"] = std::to_string(engine.batch_window());
  ctx.manifest["compact_threshold"] = std::to_string(engine.compact_threshold());
}

/// A counting-only certificate (the flow component is skipped on these
/// sizes). It takes milliseconds, so it is computed several times and its
/// median time reported.
struct TimedCert {
  flow::CompletionCertificate cert;
  double seconds = 0.0;
};

constexpr int kCountingCertCalls = 15;

TimedCert certify(Context& ctx, const EngineConfig& cfg, const scale::Topology& topo,
                  flow::BarterModel model, Tracer& tr, const char* span) {
  TimedCert out;
  std::vector<double> times;
  for (int i = 0; i < kCountingCertCalls; ++i) {
    Tracer::Scope s(tr, span);
    const Clock::time_point t0 = Clock::now();
    const flow::CompletionCertificate cert = flow::certify_completion_bound(cfg, topo, model);
    times.push_back(seconds_since(t0));
    if (i == 0) out.cert = cert;
    ctx.checks.expect(cert.lower_bound == out.cert.lower_bound,
                      std::string(span) + ": same bound on every call");
  }
  out.seconds = quantile(times, 0.5);
  return out;
}

/// Adds the end-to-end samples (untraced) or the traced run time.
void add_run_samples(Context& ctx, bool traced, double setup_s, double sim_s,
                     double certify_s, std::uint64_t transfers, double trials) {
  const double run_s = sim_s + certify_s;
  if (traced) {
    ctx.samples.add("traced_run_s", run_s);
    return;
  }
  ctx.samples.add("setup_s", setup_s);
  ctx.samples.add("run_s", run_s);
  ctx.samples.add("transfers_per_s", static_cast<double>(transfers) / sim_s);
  ctx.samples.add("trials_per_s", trials / sim_s);
}

std::shared_ptr<scale::Topology> random_regular_topology(std::uint32_t n, std::uint32_t degree,
                                                         std::uint64_t seed, Tracer& tr,
                                                         double& overlay_s, double& topo_s) {
  Clock::time_point t0 = Clock::now();
  pob::Graph graph = [&] {
    Tracer::Scope s(tr, "overlay.build");
    pob::Rng rng = pob::Rng(seed).split(0);
    return pob::make_random_regular(n, degree, rng);
  }();
  overlay_s = seconds_since(t0);
  t0 = Clock::now();
  Tracer::Scope s(tr, "topology.build");
  auto topo = std::make_shared<scale::Topology>(scale::Topology::from_graph(graph));
  topo_s = seconds_since(t0);
  return topo;
}

}  // namespace

// --- swarm-random ---------------------------------------------------------
// §2.4 randomized cooperative protocol on a random regular overlay, default
// engine options. Generate does most of the tick.

void run_swarm_random(Context& ctx) {
  const std::uint32_t n = ctx.toy ? 2000 : 50000;
  const std::uint32_t k = ctx.toy ? 64 : 256;
  const std::uint32_t degree = ctx.toy ? 8 : 16;
  EngineConfig cfg;
  cfg.num_nodes = n;
  cfg.num_blocks = k;
  const std::uint64_t expect_transfers =
      static_cast<std::uint64_t>(n - 1) * k + (ctx.corrupt ? 1 : 0);
  RepeatDigests digests;

  repeat_for(ctx, 3, [&](unsigned, bool traced) {
    Tracer& tr = ctx.spans(traced);
    Tracer::Scope root(tr, "swarm-random");
    double overlay_s = 0.0, topo_s = 0.0;
    const auto topo = random_regular_topology(n, degree, ctx.seed, tr, overlay_s, topo_s);
    scale::ScaleOptions opt;
    opt.collect_phase_timings = traced;
    const Clock::time_point tb = Clock::now();
    std::unique_ptr<scale::Engine> engine;
    {
      Tracer::Scope s(tr, "engine.build");
      engine = std::make_unique<scale::Engine>(cfg, topo, opt, ctx.seed);
    }
    const double build_s = seconds_since(tb);
    note_engine(ctx, *engine);

    SimResult sim;
    {
      Tracer::Scope s(tr, "engine.run");
      sim = simulate(*engine, ctx.jobs, traced, tr);
    }
    const TimedCert cert =
        certify(ctx, cfg, *topo, flow::BarterModel::kCooperative, tr, "flow.certify");

    ctx.checks.expect(sim.completed, "swarm-random: completed");
    ctx.checks.expect(sim.transfers == expect_transfers, "swarm-random: transfers == (n-1)k");
    ctx.checks.expect(sim.completed && cert.cert.lower_bound <= sim.completion,
                      "swarm-random: certified T* <= T");
    digests.check(ctx, traced, sim.digest, "swarm-random");

    add_run_samples(ctx, traced, overlay_s + topo_s + build_s, sim.seconds, cert.seconds,
                    sim.transfers, 1.0);
    if (traced) {
      ctx.samples.add("overlay.build_s", overlay_s);
      ctx.samples.add("topology.build_s", topo_s);
      ctx.samples.add("engine.build_s", build_s);
      ctx.samples.add("engine.state_mb", static_cast<double>(engine->state_bytes()) / kMiB);
      ctx.samples.add("engine.arena_released_mb",
                      static_cast<double>(engine->arena_released_bytes()) / kMiB);
      ctx.samples.add("flow.counting_s", cert.seconds);
      add_tick_samples(ctx, {&sim});
    }
  });
}

// --- barter-det -----------------------------------------------------------
// The deterministic price-of-barter trio on the complete topology: binomial
// pipeline (Theorem 1), the same schedule under the live CyclicBarter(3,1)
// ledger (§3.3) and the strict-barter riffle (Theorems 2-3).

void run_barter_det(Context& ctx) {
  const std::uint32_t log2n = ctx.toy ? 8 : 16;
  const std::uint32_t n = 1u << log2n;
  const std::uint32_t k = ctx.toy ? 16 : 256;
  const Tick binomial_t = k - 1 + log2n + (ctx.corrupt ? 1 : 0);
  const Tick riffle_t = n + k - 2;
  const std::uint64_t expect_transfers = static_cast<std::uint64_t>(n - 1) * k;
  RepeatDigests binomial_digests;
  RepeatDigests riffle_digests;

  EngineConfig coop_cfg;
  coop_cfg.num_nodes = n;
  coop_cfg.num_blocks = k;
  EngineConfig riffle_cfg = coop_cfg;
  riffle_cfg.download_capacity = 2;  // Theorem 3's d = 2u regime

  repeat_for(ctx, 3, [&](unsigned, bool traced) {
    Tracer& tr = ctx.spans(traced);
    Tracer::Scope root(tr, "barter-det");
    Clock::time_point t0 = Clock::now();
    std::shared_ptr<scale::Topology> topo;
    {
      Tracer::Scope s(tr, "topology.build");
      topo = std::make_shared<scale::Topology>(scale::Topology::complete(n));
    }
    const double topo_s = seconds_since(t0);

    scale::ScaleOptions opt;
    opt.collect_phase_timings = traced;
    scale::ScaleOptions binomial_opt = opt;
    binomial_opt.scheduler = scale::SchedKind::kBinomialPipeline;
    scale::ScaleOptions triangular_opt = opt;
    triangular_opt.scheduler = scale::SchedKind::kTriangularBarter;
    triangular_opt.credit_limit = 1;
    scale::ScaleOptions riffle_opt = opt;
    riffle_opt.scheduler = scale::SchedKind::kRifflePipeline;

    t0 = Clock::now();
    std::unique_ptr<scale::Engine> binomial, triangular, riffle;
    {
      Tracer::Scope s(tr, "engine.build");
      binomial = std::make_unique<scale::Engine>(coop_cfg, topo, binomial_opt, ctx.seed);
      triangular = std::make_unique<scale::Engine>(coop_cfg, topo, triangular_opt, ctx.seed);
      riffle = std::make_unique<scale::Engine>(riffle_cfg, topo, riffle_opt, ctx.seed);
    }
    const double build_s = seconds_since(t0);
    note_engine(ctx, *binomial);

    SimResult b, t, r;
    {
      Tracer::Scope s(tr, "sched.binomial");
      b = simulate(*binomial, ctx.jobs, traced, tr);
    }
    {
      Tracer::Scope s(tr, "sched.triangular");
      t = simulate(*triangular, ctx.jobs, traced, tr);
    }
    {
      Tracer::Scope s(tr, "sched.riffle");
      r = simulate(*riffle, ctx.jobs, traced, tr);
    }
    const TimedCert coop =
        certify(ctx, coop_cfg, *topo, flow::BarterModel::kCooperative, tr, "flow.certify");
    const TimedCert strict =
        certify(ctx, riffle_cfg, *topo, flow::BarterModel::kStrictBarter, tr, "flow.certify");

    ctx.checks.expect(b.completed && b.completion == binomial_t,
                      "barter-det: binomial T == k - 1 + log2 n");
    ctx.checks.expect(t.completed && t.digest == b.digest,
                      "barter-det: triangular digest == binomial digest");
    ctx.checks.expect(r.completed && r.completion == riffle_t, "barter-det: riffle T == n + k - 2");
    for (const SimResult* s : {&b, &t, &r}) {
      ctx.checks.expect(s->transfers == expect_transfers, "barter-det: transfers == (n-1)k");
    }
    ctx.checks.expect(coop.cert.lower_bound <= b.completion, "barter-det: coop T* <= T");
    ctx.checks.expect(strict.cert.lower_bound <= r.completion, "barter-det: strict T* <= T");
    binomial_digests.check(ctx, traced, b.digest, "barter-det binomial");
    riffle_digests.check(ctx, traced, r.digest, "barter-det riffle");

    add_run_samples(ctx, traced, topo_s + build_s, b.seconds + t.seconds + r.seconds,
                    coop.seconds + strict.seconds, b.transfers + t.transfers + r.transfers,
                    3.0);
    if (traced) {
      ctx.samples.add("overlay.build_s", 0.0);
      ctx.samples.add("topology.build_s", topo_s);
      ctx.samples.add("engine.build_s", build_s);
      ctx.samples.add("engine.state_mb",
                      static_cast<double>(binomial->state_bytes() + triangular->state_bytes() +
                                          riffle->state_bytes()) /
                          kMiB);
      ctx.samples.add("engine.arena_released_mb",
                      static_cast<double>(binomial->arena_released_bytes() +
                                          triangular->arena_released_bytes() +
                                          riffle->arena_released_bytes()) /
                          kMiB);
      ctx.samples.add("sched.binomial_s", b.seconds);
      ctx.samples.add("sched.triangular_s", t.seconds);
      ctx.samples.add("sched.riffle_s", r.seconds);
      ctx.samples.add("sched.riffle_tick_us",
                      r.ticks == 0 ? 0.0 : r.seconds / static_cast<double>(r.ticks) * 1e6);
      // Both runs emit the identical stream, so the apply difference is the
      // ledger commit.
      ctx.samples.add("mech.ledger_commit_s",
                      t.phases.apply_seconds - b.phases.apply_seconds);
      ctx.samples.add("flow.counting_s", coop.seconds + strict.seconds);
      add_tick_samples(ctx, {&b, &t, &r});
    }
  });
}

// --- stream-vod -----------------------------------------------------------
// Video-on-demand on the stream layer: Poisson arrivals, three rate classes
// with mid-run rate changes, a sequential playback window and deadlines.

void run_stream_vod(Context& ctx) {
  const std::uint32_t n = ctx.toy ? 1000 : 20000;
  const std::uint32_t k = ctx.toy ? 32 : 128;
  const std::uint32_t degree = ctx.toy ? 8 : 16;
  const std::uint64_t expect_transfers =
      static_cast<std::uint64_t>(n - 1) * k + (ctx.corrupt ? 1 : 0);
  RepeatDigests digests;

  scale::stream::StreamSpec base;
  base.seed = ctx.seed;
  base.config.num_nodes = n;
  base.config.num_blocks = k;
  base.config.server_upload_capacity = 8;
  base.workload.arrivals = scale::stream::ArrivalPattern::kPoisson;
  base.workload.mean_gap16 = 2;
  base.workload.rate_classes = {{3, 1, pob::kUnlimited}, {2, 2, 4}, {1, 3, 6}};
  base.workload.rate_changes = ctx.toy ? 16 : 256;
  base.demand.window = 8;
  base.demand.startup_blocks = 4;
  base.demand.deadlines = true;
  base.demand.deadline_slack = 2;

  // The certificate sees every client at the fastest class's capacities:
  // rate classes and rate changes only ever lower a client below that, and
  // late arrivals only delay, so T* stays a lower bound on the real run.
  EngineConfig cert_cfg = base.config;
  cert_cfg.upload_capacities.assign(n, 3);
  cert_cfg.upload_capacities[0] = base.config.server_upload_capacity;

  repeat_for(ctx, 3, [&](unsigned, bool traced) {
    Tracer& tr = ctx.spans(traced);
    Tracer::Scope root(tr, "stream-vod");
    double overlay_s = 0.0, topo_s = 0.0;
    scale::stream::StreamSpec spec = base;
    spec.topology = random_regular_topology(n, degree, ctx.seed, tr, overlay_s, topo_s);
    spec.options.collect_phase_timings = traced;
    const Clock::time_point tb = Clock::now();
    std::unique_ptr<scale::stream::StreamEngine> stream;
    {
      Tracer::Scope s(tr, "stream.build");
      stream = std::make_unique<scale::stream::StreamEngine>(spec);
    }
    const double build_s = seconds_since(tb);
    note_engine(ctx, stream->engine());
    const std::uint32_t arrivals = stream->pending_arrivals();

    const Clock::time_point t0 = Clock::now();
    RunResult res;
    {
      Tracer::Scope s(tr, "stream.run");
      res = stream->run(ctx.jobs);
    }
    const double sim_s = seconds_since(t0);
    const TimedCert cert =
        certify(ctx, cert_cfg, *spec.topology, flow::BarterModel::kCooperative, tr, "flow.certify");

    ctx.checks.expect(res.completed, "stream-vod: completed");
    ctx.checks.expect(res.never_started == 0, "stream-vod: never_started == 0");
    ctx.checks.expect(res.total_transfers == expect_transfers, "stream-vod: transfers == (n-1)k");
    ctx.checks.expect(res.completed && cert.cert.lower_bound <= res.completion_tick,
                      "stream-vod: certified T* <= T");
    digests.check(ctx, traced, pob::check::run_result_digest(res), "stream-vod");

    add_run_samples(ctx, traced, overlay_s + topo_s + build_s, sim_s, cert.seconds,
                    res.total_transfers, 1.0);
    if (traced) {
      const scale::PhaseTimings ph = stream->engine().phase_timings();
      std::uint64_t slots = 0;
      for (const pob::Count s : res.active_slots_per_tick) slots += s;
      ctx.samples.add("overlay.build_s", overlay_s);
      ctx.samples.add("topology.build_s", topo_s);
      ctx.samples.add("stream.build_s", build_s);
      ctx.samples.add("engine.state_mb",
                      static_cast<double>(stream->engine().state_bytes()) / kMiB);
      ctx.samples.add("engine.arena_released_mb",
                      static_cast<double>(stream->engine().arena_released_bytes()) / kMiB);
      ctx.samples.add("engine.generate_s", ph.generate_seconds);
      ctx.samples.add("engine.merge_s", ph.merge_seconds);
      ctx.samples.add("engine.apply_s", ph.apply_seconds);
      ctx.samples.add("engine.ticks", static_cast<double>(res.ticks_executed));
      ctx.samples.add("engine.slot_util", slots == 0 ? 0.0
                                                     : static_cast<double>(res.total_transfers) /
                                                           static_cast<double>(slots));
      ctx.samples.add("stream.run_s", sim_s);
      ctx.samples.add("stream.arrivals", arrivals);
      ctx.samples.add("stream.self_s",
                      sim_s - ph.generate_seconds - ph.merge_seconds - ph.apply_seconds);
      ctx.samples.add("flow.counting_s", cert.seconds);
    }
  });
}

// --- core-certify ---------------------------------------------------------
// The validated core engine on the paper's own figure setup (n = k = 1000,
// random regular overlays) through the parallel trial runner, then
// certificates whose max-flow component runs: a ring, and several seeded
// 4-regular overlays (the flow search's cost depends on the graph drawn, so
// one draw per seed would make the certificate time follow the seed).

namespace {

struct CoreTrial {
  std::shared_ptr<const pob::Overlay> overlay;
  bool credit = false;
};

struct RegularCheck {
  std::unique_ptr<scale::Topology> topology;
  std::shared_ptr<const pob::Overlay> overlay;
};

}  // namespace

void run_core_certify(Context& ctx) {
  const std::uint32_t n = ctx.toy ? 128 : 1000;
  const std::uint32_t k = ctx.toy ? 64 : 1000;
  const std::uint32_t degree = 30;
  const std::uint32_t trials = ctx.toy ? 8 : 16;
  const std::uint32_t ring_n = ctx.toy ? 16 : 64;
  const std::uint32_t ring_k = ctx.toy ? 8 : 32;
  const std::uint32_t reg_n = ctx.toy ? 32 : 128;
  const std::uint32_t reg_k = ctx.toy ? 8 : 32;
  const std::uint32_t reg_graphs = 4;
  const Tick coop_bound = pob::cooperative_lower_bound(n, k);
  const Tick ring_t = ring_n / 2 - 1 + ring_k + (ctx.corrupt ? 1 : 0);

  EngineConfig cfg;
  cfg.num_nodes = n;
  cfg.num_blocks = k;
  cfg.max_ticks = 6 * coop_bound;
  cfg.stall_window = 250;  // censor credit-starved crawls early
  EngineConfig ring_cfg;
  ring_cfg.num_nodes = ring_n;
  ring_cfg.num_blocks = ring_k;
  EngineConfig reg_cfg;
  reg_cfg.num_nodes = reg_n;
  reg_cfg.num_blocks = reg_k;
  RepeatDigests digests;

  repeat_for(ctx, 3, [&](unsigned, bool traced) {
    Tracer& tr = ctx.spans(traced);
    Tracer::Scope root(tr, "core-certify");

    // Setup: one overlay per trial, the ring and the 4-regular overlays.
    Clock::time_point t0 = Clock::now();
    std::vector<CoreTrial> plan(trials);
    std::vector<pob::Graph> reg_graph(reg_graphs);
    {
      Tracer::Scope s(tr, "overlay.build");
      for (std::uint32_t i = 0; i < trials; ++i) {
        pob::Rng rng(pob::trial_seed(ctx.seed, i));
        plan[i].overlay =
            std::make_shared<pob::GraphOverlay>(pob::make_random_regular(n, degree, rng));
        plan[i].credit = i % 2 == 1;
      }
      for (std::uint32_t g = 0; g < reg_graphs; ++g) {
        pob::Rng rng = pob::Rng(ctx.seed).split(1 + g);
        reg_graph[g] = pob::make_random_regular(reg_n, 4, rng);
      }
    }
    const double overlay_s = seconds_since(t0);
    t0 = Clock::now();
    std::unique_ptr<scale::Topology> ring_topo;
    std::vector<RegularCheck> regular(reg_graphs);
    {
      Tracer::Scope s(tr, "topology.build");
      ring_topo = std::make_unique<scale::Topology>(
          scale::Topology::from_graph(pob::make_ring(ring_n)));
      for (std::uint32_t g = 0; g < reg_graphs; ++g) {
        regular[g].topology =
            std::make_unique<scale::Topology>(scale::Topology::from_graph(reg_graph[g]));
      }
    }
    const double topo_s = seconds_since(t0);
    for (std::uint32_t g = 0; g < reg_graphs; ++g) {
      regular[g].overlay = std::make_shared<pob::GraphOverlay>(std::move(reg_graph[g]));
    }

    // The trial sweep: half cooperative Random, half credit-limited (s = 1)
    // Rarest-First. Trials time themselves; results land per index.
    std::vector<std::uint64_t> trial_digest(trials, 0);
    std::vector<std::uint64_t> trial_transfers(trials, 0);
    std::vector<Clock::time_point> trial_start(trials), trial_end(trials);
    t0 = Clock::now();
    pob::TrialStats stats;
    {
      Tracer::Scope s(tr, "parallel.sweep");
      stats = pob::repeat_trials_parallel(trials, ctx.jobs, [&](std::uint32_t i) {
        trial_start[i] = Clock::now();
        const std::uint64_t seed = pob::trial_seed(ctx.seed ^ 0x5eedULL, i);
        pob::RandomizedOptions opt;
        RunResult res;
        if (plan[i].credit) {
          opt.policy = pob::BlockPolicy::kRarestFirst;
          pob::CreditRandomized cr = pob::make_credit_randomized(plan[i].overlay, opt,
                                                                 pob::Rng(seed), 1);
          res = pob::run(cfg, *cr.scheduler, cr.mechanism.get());
        } else {
          pob::RandomizedScheduler sched(plan[i].overlay, opt, pob::Rng(seed));
          res = pob::run(cfg, sched);
        }
        trial_digest[i] = pob::check::run_result_digest(res);
        trial_transfers[i] = res.total_transfers;
        trial_end[i] = Clock::now();
        pob::TrialOutcome out;
        out.completed = res.completed;
        if (res.completed) {
          out.completion = static_cast<double>(res.completion_tick);
          out.mean_completion = res.mean_client_completion();
        }
        return out;
      });
      for (std::uint32_t i = 0; i < trials; ++i) {
        tr.record("core.trial", trial_start[i], trial_end[i]);
      }
    }
    const double sweep_s = seconds_since(t0);

    // Certificates with the flow component, each 4-regular one followed by
    // a simulated run on its overlay that the certificate must not exceed.
    // The check runs belong to the correctness gate, not to run_s.
    t0 = Clock::now();
    flow::CompletionCertificate ring_cert;
    {
      Tracer::Scope s(tr, "flow.certify_ring");
      ring_cert = flow::certify_completion_bound(ring_cfg, *ring_topo,
                                                 flow::BarterModel::kCooperative);
    }
    const double ring_s = seconds_since(t0);
    std::uint64_t digest = fold_digest(kDigestBasis, ring_cert.lower_bound);
    double reg_s = 0.0;
    double evaluated = ring_cert.flow_evaluated ? 1.0 : 0.0;
    for (std::uint32_t g = 0; g < reg_graphs; ++g) {
      t0 = Clock::now();
      flow::CompletionCertificate cert;
      {
        Tracer::Scope s(tr, "flow.certify_regular");
        cert = flow::certify_completion_bound(reg_cfg, *regular[g].topology,
                                              flow::BarterModel::kCooperative);
      }
      reg_s += seconds_since(t0);
      RunResult check;
      {
        Tracer::Scope s(tr, "core.check_run");
        pob::RandomizedScheduler sched(regular[g].overlay, pob::RandomizedOptions{},
                                       pob::Rng(pob::trial_seed(ctx.seed, trials + g)));
        check = pob::run(reg_cfg, sched);
      }
      evaluated += cert.flow_evaluated ? 1.0 : 0.0;
      ctx.checks.expect(cert.flow_evaluated, "core-certify: 4-regular flow evaluated");
      ctx.checks.expect(check.completed && cert.lower_bound <= check.completion_tick,
                        "core-certify: 4-regular T* <= simulated T");
      digest = fold_digest(digest, cert.lower_bound);
      digest = fold_digest(digest, pob::check::run_result_digest(check));
    }

    std::uint64_t transfers = 0;
    std::vector<double> trial_s(trials);
    double busy = 0.0;
    for (std::uint32_t i = 0; i < trials; ++i) {
      digest = fold_digest(digest, trial_digest[i]);
      transfers += trial_transfers[i];
      trial_s[i] = std::chrono::duration<double>(trial_end[i] - trial_start[i]).count();
      busy += trial_s[i];
    }

    ctx.checks.expect(stats.censored == 0 && stats.runs == trials,
                      "core-certify: every trial completes");
    ctx.checks.expect(stats.censored == stats.runs ||
                          stats.completion.min >= static_cast<double>(coop_bound),
                      "core-certify: every trial T >= cooperative bound");
    ctx.checks.expect(ring_cert.lower_bound == ring_t, "core-certify: ring T* == n/2 - 1 + k");
    digests.check(ctx, traced, digest, "core-certify");

    add_run_samples(ctx, traced, overlay_s + topo_s, sweep_s, ring_s + reg_s, transfers,
                    static_cast<double>(trials));
    if (traced) {
      ctx.samples.add("overlay.build_s", overlay_s);
      ctx.samples.add("topology.build_s", topo_s);
      ctx.samples.add("core.trial_p50_s", quantile(trial_s, 0.50));
      ctx.samples.add("core.trial_max_s", quantile(trial_s, 1.0));
      ctx.samples.add("parallel.busy_frac", busy / (ctx.jobs * sweep_s));
      ctx.samples.add("flow.certify_ring_s", ring_s);
      ctx.samples.add("flow.certify_regular_s", reg_s);
      ctx.samples.add("flow.evaluated", evaluated);
    }
  });
}

}  // namespace pobbench
