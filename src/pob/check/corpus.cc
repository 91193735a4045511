#include "pob/check/corpus.h"

#include <cstdio>
#include <sstream>

#include "pob/async/policies.h"
#include "pob/exp/trace_io.h"

namespace pob::check {
namespace {

using scale::Algo;

Scenario base(Algo algo, std::uint32_t n, std::uint32_t k) {
  Scenario sc;
  sc.spec.algo = algo;
  sc.spec.n = n;
  sc.spec.k = k;
  sc.spec.seed = 0x9e3779b97f4a7c15ull;  // fixed: corpus runs must be reproducible
  return sc;
}

std::vector<CorpusEntry> make_corpus() {
  std::vector<CorpusEntry> corpus;
  const auto add = [&](std::string filename, Scenario sc, bool completes = true) {
    sanitize(sc);
    corpus.push_back({std::move(filename), std::move(sc), completes});
  };

  add("pipeline.pobtrace", base(Algo::kPipeline, 12, 9));
  {
    Scenario sc = base(Algo::kTree, 14, 9);
    sc.spec.arity = 3;
    add("multicast-tree.pobtrace", sc);
  }
  add("binomial-tree.pobtrace", base(Algo::kBinomialTree, 19, 6));
  add("binomial-pipeline.pobtrace", base(Algo::kBinomialPipeline, 16, 21));
  {
    // k = 3 * (n - 1): full riffle cycles, so the recorded schedule is also
    // legal under strict barter — the replay exercises the mechanism path.
    Scenario sc = base(Algo::kRiffle, 11, 30);
    sc.spec.download = 2;
    sc.spec.mechanism = scale::MechanismKind::kStrict;
    add("riffle.pobtrace", sc);
  }
  {
    Scenario sc = base(Algo::kStripedTrees, 25, 24);
    sc.spec.stripes = 4;
    sc.spec.download = 4;
    add("striped-trees.pobtrace", sc);
  }
  {
    Scenario sc = base(Algo::kMultiServer, 20, 16);
    sc.spec.servers = 4;
    add("multi-server.pobtrace", sc);
  }
  add("randomized.pobtrace", base(Algo::kRandomized, 40, 30));
  {
    // Heterogeneous capacities: exercises the v2 !up / !down directives.
    Scenario sc = base(Algo::kRandomized, 10, 8);
    sc.upload_caps = {1, 2, 3, 1, 2, 1, 3, 1, 2, 1};
    sc.download_caps = {kUnlimited, 2, 3, kUnlimited, 2,
                        kUnlimited, 3, 2, kUnlimited, 2};
    add("hetero-randomized.pobtrace", sc);
  }
  {
    // Lossy churn against a rigid schedule: the pipeline keeps naming the
    // departed nodes, drop mode forgives, and the run honestly fails to
    // complete — exercising !depart/!drop and dropped_transfers accounting.
    Scenario sc = base(Algo::kBinomialPipeline, 16, 21);
    sc.departures = {{6, 3}, {9, 10}};
    add("churn-binomial-pipeline.pobtrace", sc, /*completes=*/false);
  }
  {
    // Churn against an adaptive scheduler: the randomized swarm routes
    // around the departure and still completes.
    Scenario sc = base(Algo::kRandomized, 18, 10);
    sc.departures = {{4, 2}};
    add("churn-randomized.pobtrace", sc);
  }
  {
    // The deterministic mechanisms ported to the scale engine, one golden
    // each: binomial pipeline, the same schedule under the triangular
    // 3-cycle ledger, and the strict-barter riffle (k = 3(n - 1): full
    // cycles, so the trace replays clean under StrictBarter).
    Scenario sc = base(Algo::kBinomialPipeline, 16, 12);
    sc.spec.engine = scale::RunEngine::kScale;
    add("scale-binomial-pipeline.pobtrace", sc);
  }
  {
    Scenario sc = base(Algo::kBinomialPipeline, 16, 12);
    sc.spec.engine = scale::RunEngine::kScale;
    sc.spec.mechanism = scale::MechanismKind::kTriangular;
    add("scale-triangular-barter.pobtrace", sc);
  }
  {
    Scenario sc = base(Algo::kRiffle, 8, 21);
    sc.spec.engine = scale::RunEngine::kScale;
    sc.spec.download = 2;
    add("scale-riffle.pobtrace", sc);
  }
  {
    // Stream layer, flash crowd with random demand: exercises the v3
    // !arrive preamble. Uniform capacities and no rate classes, so the
    // core-engine replay (which ignores arrivals — every node present from
    // the start only has more freedom) stays legal.
    Scenario sc = base(Algo::kRandomized, 24, 10);
    sc.spec.engine = scale::RunEngine::kStream;
    sc.spec.arrivals = scale::stream::ArrivalPattern::kFlashCrowd;
    sc.spec.startup = 2;
    add("stream-flash-crowd.pobtrace", sc);
  }
  {
    // Stream layer, VoD shape: Poisson trickle arrivals with in-order
    // sequential demand through a sliding playback window and hard
    // per-block deadlines (deadlines shape the metrics, not the schedule).
    Scenario sc = base(Algo::kRandomized, 20, 12);
    sc.spec.engine = scale::RunEngine::kStream;
    sc.spec.arrivals = scale::stream::ArrivalPattern::kPoisson;
    sc.spec.window = 4;
    sc.spec.startup = 3;
    sc.spec.deadlines = true;
    add("stream-vod-window.pobtrace", sc);
  }
  return corpus;
}

std::string fmt(double t) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", t);
  return buf;
}

}  // namespace

const std::vector<CorpusEntry>& golden_corpus() {
  static const std::vector<CorpusEntry> corpus = make_corpus();
  return corpus;
}

std::string render_corpus_entry(const CorpusEntry& entry) {
  const Scenario& sc = entry.scenario;
  EngineConfig cfg;
  RunResult result;
  TraceEvents events;
  if (sc.spec.engine == scale::RunEngine::kCore) {
    BuiltScenario built = build_scenario(sc);
    cfg = built.config;
    cfg.record_trace = true;
    SwarmState state(cfg.num_nodes, cfg.num_blocks);
    result = run_with_state(cfg, *built.run.scheduler, built.run.mechanism.get(), state);
  } else {
    scale::stream::StreamSpec spec = build_scale_scenario(sc);
    spec.config.record_trace = true;
    cfg = spec.config;
    if (sc.spec.engine == scale::RunEngine::kStream) {
      scale::stream::StreamEngine engine(std::move(spec));
      result = engine.run(1);
      events = engine.trace_events();
    } else {
      scale::Engine engine(cfg, spec.topology, spec.options, spec.seed);
      result = engine.run(1);
    }
  }
  std::ostringstream os;
  os << "# golden trace: " << sc.describe() << "\n";
  os << "# regenerate with: pobfuzz --write-corpus=tests/check/corpus\n";
  write_trace(os, cfg, result, events);
  return os.str();
}

AsyncGolden async_golden() {
  AsyncGolden g;
  g.filename = "async-swarm.pobasync";
  g.config.num_nodes = 12;
  g.config.num_blocks = 8;
  g.config.upload_rate = {1.0, 1.0, 2.0, 1.0, 0.5, 1.0, 1.0, 2.0, 1.0, 1.0, 0.5, 1.0};
  g.config.download_ports = 2;
  g.config.record_log = true;

  const auto overlay = std::make_shared<CompleteOverlay>(g.config.num_nodes);
  AsyncSwarmPolicy policy(overlay, BlockPolicy::kRarestFirst, g.config.download_ports,
                          Rng(0xC0FFEEull));
  g.result = run_async(g.config, policy);

  std::ostringstream os;
  os << "# golden async trace: swarm n=" << g.config.num_nodes
     << " k=" << g.config.num_blocks << " ports=" << g.config.download_ports
     << " rarest-first seed=0xC0FFEE\n";
  os << "pobasync 1 " << g.config.num_nodes << ' ' << g.config.num_blocks << ' '
     << g.config.download_ports << "\n";
  os << "!rate";
  for (const double r : g.config.upload_rate) os << ' ' << fmt(r);
  os << "\n";
  for (const AsyncTransfer& e : g.result.log) {
    os << e.transfer.from << ':' << e.transfer.to << ':' << e.transfer.block << ' '
       << fmt(e.start) << ' ' << fmt(e.finish) << "\n";
  }
  g.text = os.str();
  return g;
}

}  // namespace pob::check
