#include "pob/check/scenario.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "pob/analysis/bounds.h"
#include "pob/core/rng.h"
#include "pob/exp/parallel.h"
#include "pob/sched/riffle_pipeline.h"
#include "pob/check/stream_check.h"
#include "pob/flow/certify.h"
#include "pob/scale/mirror.h"

namespace pob::check {
namespace {

using scale::Algo;
using scale::MechanismKind;
using scale::RunEngine;

constexpr std::uint32_t kMaxNodes = 64;
constexpr std::uint32_t kMaxBlocks = 48;
/// Scale scenarios get a far larger node budget: the point of the SoA engine
/// is n beyond what the per-node-object path is sized for, and the reference
/// oracle still replays these sizes in reasonable time.
constexpr std::uint32_t kMaxScaleNodes = 4096;

bool is_randomized_family(Algo algo) {
  return algo == Algo::kRandomized || algo == Algo::kCreditRandomized ||
         algo == Algo::kRotating || algo == Algo::kTitForTat;
}

bool may_have_churn(Algo algo) {
  return is_randomized_family(algo) || algo == Algo::kPipeline ||
         algo == Algo::kBinomialPipeline;
}

/// A run knob taken from the seed: lo + (seed >> shift) % span.
std::uint32_t seed_knob(std::uint64_t seed, int shift, std::uint32_t lo, std::uint32_t span) {
  return lo + static_cast<std::uint32_t>((seed >> shift) % span);
}

/// build_config(spec) plus the fuzz-only fields.
EngineConfig scenario_config(const Scenario& sc) {
  EngineConfig cfg = scale::build_config(sc.spec);
  cfg.upload_capacities = sc.upload_caps;
  cfg.download_capacities = sc.download_caps;
  cfg.departures = sc.departures;
  cfg.drop_transfers_involving_inactive = sc.drop_on_churn;
  cfg.depart_on_complete = sc.depart_on_complete;
  return cfg;
}

/// Appends a same-tick forward of the first planned transfer's block — the
/// deliberately broken scheduler of FaultKind::kSameTickForward.
class FaultyScheduler final : public Scheduler {
 public:
  FaultyScheduler(Scheduler& inner, std::uint32_t num_nodes)
      : inner_(&inner), n_(num_nodes) {}

  std::string_view name() const override { return "faulty"; }

  void plan_tick(Tick tick, const SwarmState& state, std::vector<Transfer>& out) override {
    const std::size_t before = out.size();
    inner_->plan_tick(tick, state, out);
    if (out.size() == before) return;
    const Transfer first = out[before];
    // The receiver forwards the block it is only now being sent. With no
    // third node to forward to, bounce it back to the sender (equally
    // illegal: the sender already holds it).
    NodeId target = first.from;
    for (NodeId w = 0; w < n_; ++w) {
      if (w != first.from && w != first.to) {
        target = w;
        break;
      }
    }
    out.push_back({first.to, target, first.block});
  }

 private:
  Scheduler* inner_;
  std::uint32_t n_;
};

}  // namespace

MechanismSpec mechanism_spec(const scale::RunSpec& s) {
  MechanismSpec m;
  m.credit_limit = s.credit;
  m.max_cycle_len = s.mechanism == MechanismKind::kTriangular ? 3 : s.cycle_len;
  switch (s.mechanism) {
    case MechanismKind::kNone:
      // build_scheduler's fallback for credit-randomized.
      m.kind = s.algo == Algo::kCreditRandomized ? MechanismSpec::Kind::kCreditLimited
                                                 : MechanismSpec::Kind::kNone;
      break;
    case MechanismKind::kStrict: m.kind = MechanismSpec::Kind::kStrictBarter; break;
    case MechanismKind::kCredit: m.kind = MechanismSpec::Kind::kCreditLimited; break;
    case MechanismKind::kTriangular:
    case MechanismKind::kCyclic: m.kind = MechanismSpec::Kind::kCyclicBarter; break;
  }
  return m;
}

std::string Scenario::describe() const {
  const scale::RunSpec& s = spec;
  std::ostringstream os;
  if (s.engine != RunEngine::kCore) os << "scale:";
  // describe() feeds the corpus headers and the fuzz digest, so it keeps
  // two spellings of its own: multicast-tree (flag tree) and flash-crowd
  // (flag flash).
  os << (s.algo == Algo::kTree ? "multicast-tree" : to_string(s.algo)) << " n=" << s.n
     << " k=" << s.k << " u=" << s.upload << " d=";
  if (s.download == kUnlimited) {
    os << "inf";
  } else {
    os << s.download;
  }
  if (s.servers != 0) os << " su=" << s.servers;
  os << " mech=" << mechanism_spec(s).describe();
  if (scale::overlay_bound(s.algo)) {
    os << " overlay=" << to_string(s.overlay);
    if (s.overlay == OverlayKind::kRegular) os << ":" << s.degree;
    if (s.overlay == OverlayKind::kKaryTree) os << ":" << s.arity;
  }
  switch (s.algo) {
    case Algo::kTree: os << " arity=" << s.arity; break;
    case Algo::kStripedTrees: os << " stripes=" << s.stripes; break;
    case Algo::kMultiServer: os << " servers=" << s.servers; break;
    case Algo::kRotating: os << " degree=" << s.degree << " period=" << s.period; break;
    default: break;
  }
  if (!upload_caps.empty()) os << " hetero-up";
  if (!download_caps.empty()) os << " hetero-down";
  if (!departures.empty()) {
    os << " depart=";
    for (std::size_t i = 0; i < departures.size(); ++i) {
      if (i != 0) os << ',';
      os << departures[i].first << ':' << departures[i].second;
    }
  }
  if (drop_on_churn) os << " drop";
  if (depart_on_complete) os << " depart-on-complete";
  if (s.engine == RunEngine::kStream) {
    os << " stream=" << scale::stream::arrival_pattern_name(s.arrivals);
    if (s.window != 0) os << " window=" << s.window;
    os << " startup=" << s.startup << " ivl=" << s.interval;
    if (s.deadlines) os << " deadlines";
    if (s.classes != 0) os << " classes=" << s.classes;
    if (s.churn != 0) os << " rate-churn=" << s.churn;
  }
  if (fault == FaultKind::kSameTickForward) os << " FAULT=same-tick-forward";
  os << " seed=" << s.seed;
  return os.str();
}

std::string Scenario::to_gtest(const std::string& diagnosis) const {
  std::ostringstream os;
  os << "TEST(PobFuzzRepro, Seed" << spec.seed << ") {\n";
  os << "  // " << describe() << "\n";
  if (!diagnosis.empty()) os << "  // failed with: " << diagnosis << "\n";
  os << "  using namespace pob::check;\n";
  os << "  Scenario sc;\n";
  os << "  sc.spec = pob::scale::parse_run_spec(\"" << to_flags(spec) << "\");\n";
  const auto caps = [&](const char* field, const std::vector<std::uint32_t>& v) {
    if (v.empty()) return;
    os << "  sc." << field << " = {";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i != 0) os << ", ";
      if (v[i] == kUnlimited) {
        os << "pob::kUnlimited";
      } else {
        os << v[i];
      }
    }
    os << "};\n";
  };
  caps("upload_caps", upload_caps);
  caps("download_caps", download_caps);
  for (const auto& [t, c] : departures) {
    os << "  sc.departures.push_back({" << t << ", " << c << "});\n";
  }
  if (drop_on_churn) os << "  sc.drop_on_churn = true;\n";
  if (depart_on_complete) os << "  sc.depart_on_complete = true;\n";
  if (fault == FaultKind::kSameTickForward) {
    os << "  sc.fault = FaultKind::kSameTickForward;\n";
  }
  os << "  const ScenarioOutcome out = run_scenario(sc);\n";
  os << "  EXPECT_TRUE(out.ok) << out.diagnosis;\n";
  os << "}\n";
  return os.str();
}

void sanitize(Scenario& sc) {
  scale::RunSpec& s = sc.spec;
  // The stream axis rides the scale engine's randomized protocol only, and
  // fault injection targets the oracle's mirror path — a faulted stream
  // scenario runs on the scale engine. This runs first so every rule below
  // sees the final (engine, algo) pair.
  if (sc.fault != FaultKind::kNone && s.engine == RunEngine::kStream) {
    s.engine = RunEngine::kScale;
  }
  const bool scale_engine = s.engine != RunEngine::kCore;
  // The scale engine implements the randomized cooperative protocol, its
  // credit-limited variant, and the deterministic mechanisms ported from
  // core: binomial pipeline, riffle pipeline, and triangular barter (the
  // binomial pipeline under the 3-cycle ledger, since the §3.3 result is
  // that the binomial schedule itself satisfies it). Everything else, and
  // every stream run, collapses to randomized so the churn / heterogeneity
  // rules below (keyed on kRandomized) apply unchanged.
  if (s.engine == RunEngine::kStream ||
      (scale_engine && s.algo != Algo::kBinomialPipeline && s.algo != Algo::kRiffle)) {
    s.algo = Algo::kRandomized;
  }
  s.n = std::clamp(s.n, 2u, scale_engine ? kMaxScaleNodes : kMaxNodes);
  s.k = std::clamp(s.k, 1u, kMaxBlocks);
  s.upload = std::clamp(s.upload, 1u, 2u);
  s.arity = std::clamp(s.arity, 2u, 4u);
  s.period = std::clamp<Tick>(s.period, 1, 32);
  s.credit = std::clamp(s.credit, 1u, 3u);
  s.cycle_len = std::clamp(s.cycle_len, 2u, 4u);

  // Deterministic schedules are materialized for unit capacities; the riffle
  // additionally takes (u, d) but the schedule builder is only exercised at
  // u = 1 here.
  if (!is_randomized_family(s.algo)) s.upload = 1;
  if (s.download != kUnlimited && s.download < s.upload) s.download = s.upload;

  switch (s.algo) {
    case Algo::kRiffle:
      // Theorem 3's schedule; d = 2u is the tight regime, d = u serializes.
      if (s.download == kUnlimited || s.download > 2 * s.upload) s.download = 2 * s.upload;
      if (s.mechanism != MechanismKind::kStrict) s.mechanism = MechanismKind::kNone;
      break;
    case Algo::kStripedTrees:
      s.n = std::max(s.n, 3u);
      s.stripes = std::clamp(s.stripes, 2u, std::min(4u, s.n - 1));
      if (s.download != kUnlimited) s.download = std::max(s.download, s.stripes);
      s.mechanism = MechanismKind::kNone;
      break;
    case Algo::kMultiServer:
      // --servers is both the server upload and the schedule's m.
      s.n = std::max(s.n, 3u);
      s.servers = std::clamp(s.servers, 2u, std::min(4u, s.n - 1));
      s.mechanism = MechanismKind::kNone;
      break;
    case Algo::kCreditRandomized:
      // The may_upload precheck only guarantees end-of-tick legality when
      // each client sends at most one block per tick.
      s.upload = 1;
      if (s.mechanism != MechanismKind::kCredit && s.mechanism != MechanismKind::kCyclic) {
        s.mechanism = MechanismKind::kCredit;
      }
      break;
    case Algo::kBinomialPipeline:
      // On the scale engine a cyclic draw marks the triangular-barter
      // variant: the identical binomial schedule run under a live 3-cycle
      // ledger. Everywhere else the schedule is purely cooperative.
      s.mechanism = scale_engine && (s.mechanism == MechanismKind::kCyclic ||
                                     s.mechanism == MechanismKind::kTriangular)
                        ? MechanismKind::kTriangular
                        : MechanismKind::kNone;
      break;
    case Algo::kRandomized:
      // The scale planner prechecks its own §3.2 credit predicate, so it
      // may run under credit; the other mechanisms it does not model.
      if (!scale_engine || s.mechanism != MechanismKind::kCredit) {
        s.mechanism = MechanismKind::kNone;
      }
      break;
    case Algo::kPipeline:
    case Algo::kTree:
    case Algo::kBinomialTree:
    case Algo::kRotating:
    case Algo::kTitForTat: s.mechanism = MechanismKind::kNone; break;
  }
  if (s.algo != Algo::kMultiServer) s.servers = std::min(s.servers, 2u);

  // Heterogeneous capacities: plain randomized only (the scheduler options
  // must mirror the config, and only RandomizedOptions carries the vectors).
  if (s.algo != Algo::kRandomized) {
    sc.upload_caps.clear();
    sc.download_caps.clear();
  }
  if (!sc.upload_caps.empty()) {
    sc.upload_caps.resize(s.n, 1);
    for (auto& c : sc.upload_caps) c = std::clamp(c, 1u, 3u);
  }
  if (!sc.upload_caps.empty() && sc.download_caps.empty() && s.download != kUnlimited) {
    // A limited scalar download under heterogeneous uploads would violate
    // d >= u wherever the node's upload exceeds it; materialize per-node
    // downloads so the fixup below can raise them.
    sc.download_caps.assign(s.n, s.download);
  }
  if (!sc.download_caps.empty()) {
    sc.download_caps.resize(s.n, kUnlimited);
    const auto up_of = [&](std::size_t i) {
      return sc.upload_caps.empty() ? s.upload : sc.upload_caps[i];
    };
    for (std::size_t i = 0; i < sc.download_caps.size(); ++i) {
      if (sc.download_caps[i] != kUnlimited) {
        sc.download_caps[i] = std::max(sc.download_caps[i], up_of(i));
      }
    }
  }

  if (s.overlay == OverlayKind::kRing && s.n < 3) s.overlay = OverlayKind::kComplete;

  // Regular-graph degree (used by the regular overlay and by rotation):
  // make_random_regular needs degree < n with degree * n even.
  {
    const std::uint32_t hi = s.n - 1;
    s.degree = std::clamp(s.degree, std::min(2u, hi), hi);
    if (s.degree % 2 != 0 && s.n % 2 != 0) {
      // n odd forces even degree; hi = n - 1 is even, so the odd degree is
      // strictly below it and bumping up stays in range.
      s.degree = s.degree < hi ? s.degree + 1 : s.degree - 1;
    }
  }

  // Churn: only schedulers whose interplay with lossy drop mode is defined
  // (randomized family reads live state; pipelines are the drop-forgiveness
  // regression family). Any timed departure forces drop mode — rigid
  // schedules keep naming departed nodes, and that must be lossy, not fatal.
  if (!may_have_churn(s.algo)) {
    sc.departures.clear();
    sc.depart_on_complete = false;
  }
  if (sc.departures.size() > 3) sc.departures.resize(3);
  for (auto& [t, c] : sc.departures) {
    if (t < 1 || t > 40) t = 1 + t % 40;
    if (c < 1 || c >= s.n) c = 1 + c % (s.n - 1);
  }
  if (sc.depart_on_complete && s.algo != Algo::kRandomized) sc.depart_on_complete = false;
  sc.drop_on_churn = !sc.departures.empty() || sc.depart_on_complete;

  // Deterministic scale schedules are pure index arithmetic on power-of-two
  // hypercubes with unit uniform capacities and no churn; snap every axis
  // into that space (the scale engine hard-rejects anything outside it).
  // This runs last because the churn section above would otherwise re-admit
  // departures for the binomial pipeline.
  const bool deterministic_scale = scale_engine && !is_randomized_family(s.algo);
  if (deterministic_scale) {
    if (s.algo == Algo::kRiffle) {
      // The reference oracle replays all T = n + k - 2 ticks; cap n so the
      // mirrored run stays affordable.
      s.n = std::min(s.n, 512u);
    }
    s.n = std::bit_floor(s.n);
    s.upload = 1;
    s.servers = std::min(s.servers, 1u);
    sc.upload_caps.clear();
    sc.download_caps.clear();
    sc.departures.clear();
    sc.depart_on_complete = false;
    sc.drop_on_churn = false;
    if (s.algo == Algo::kRiffle) {
      // Strict barter on the complete graph; d = 2 because a server
      // hand-off may land on a client that is bartering the same tick.
      s.overlay = OverlayKind::kComplete;
      s.download = 2;
      s.mechanism = MechanismKind::kStrict;
    } else if (s.overlay != OverlayKind::kComplete) {
      s.overlay = OverlayKind::kHypercube;
    }
  }

  // Stream clamps. The async mirror replays every recorded transfer through
  // pob/async, so keep the file small; arrivals replace config departures
  // outright, and rate classes replace the static heterogeneous cap vectors.
  if (s.engine == RunEngine::kStream) {
    s.k = std::min(s.k, 24u);
    sc.departures.clear();
    sc.depart_on_complete = false;
    sc.drop_on_churn = false;
    if (s.classes != 0) {
      s.classes = std::clamp(s.classes, 2u, 3u);
      sc.upload_caps.clear();
      sc.download_caps.clear();
    }
    // kRate events need classes to draw from.
    s.churn = s.classes == 0 ? 0 : std::min(s.churn, 8u);
    s.startup = std::clamp(s.startup, 1u, s.k);
    s.interval = std::clamp<Tick>(s.interval, 1, 4);
    if (s.window != 0) s.window = std::clamp(s.window, 1u, s.k);
  }

  // The knobs the sampler does not draw are pure functions of the seed.
  // The block policy alternates (tit-for-tat keeps its rarest-first piece
  // policy); small probe budgets exercise the planner's give-up path; the
  // stream patterns stay tight so sampled runs resolve in tens of ticks:
  // sub-tick to multi-tick Poisson gaps, a spike inside the first dozen
  // ticks, cohorts of a handful to ~100 clients.
  const std::uint64_t seed = s.seed;
  s.policy = s.algo == Algo::kTitForTat || seed % 2 != 0 ? BlockPolicy::kRarestFirst
                                                         : BlockPolicy::kRandom;
  s.probes = seed_knob(seed, 8, 2, 23);
  s.gap16 = seed_knob(seed, 4, 4, 29);
  s.flash_start = seed_knob(seed, 9, 2, 7);
  s.flash_width = seed_knob(seed, 12, 1, 6);
  s.flash_pct = seed_knob(seed, 15, 50, 51);
  s.burst_period = seed_knob(seed, 21, 1, 6);
  s.burst_size = seed_knob(seed, 24, 4, 97);
  s.horizon = 32;
  // Cut hopeless runs (disconnected overlays, churned-out pipelines) early
  // instead of spinning to the generous default tick cap. The deterministic
  // scale schedules are exempt: a sparse riffle tick moves O(n) blocks out
  // of O(n k) outstanding, far below the stall heuristic's utilization
  // floor, yet the schedule provably finishes at n + k - 2.
  s.stall_window = deterministic_scale ? 0 : 64;
}

Scenario sample_scenario(std::uint64_t base_seed, std::uint32_t index) {
  Rng rng(trial_seed(base_seed, index));
  Scenario sc;
  scale::RunSpec& s = sc.spec;
  s.seed = rng.next();
  constexpr Algo kAlgos[] = {
      Algo::kPipeline,         Algo::kTree,       Algo::kBinomialTree,
      Algo::kBinomialPipeline, Algo::kRiffle,     Algo::kStripedTrees,
      Algo::kMultiServer,      Algo::kRandomized, Algo::kRandomized,
      Algo::kRandomized,       Algo::kCreditRandomized, Algo::kCreditRandomized,
      Algo::kRotating,         Algo::kTitForTat,
  };
  s.algo = kAlgos[rng.below(static_cast<std::uint32_t>(std::size(kAlgos)))];
  constexpr OverlayKind kOverlays[] = {
      OverlayKind::kComplete, OverlayKind::kComplete, OverlayKind::kRegular,
      OverlayKind::kHypercube, OverlayKind::kRing, OverlayKind::kKaryTree,
  };
  s.overlay = kOverlays[rng.below(static_cast<std::uint32_t>(std::size(kOverlays)))];
  s.n = 2 + rng.below(kMaxNodes - 1);
  s.k = 1 + rng.below(kMaxBlocks);
  s.upload = 1 + rng.below(2);
  switch (rng.below(3)) {  // d in {u, 2u, inf}
    case 0: s.download = s.upload; break;
    case 1: s.download = 2 * s.upload; break;
    default: s.download = kUnlimited; break;
  }
  const std::uint32_t server_upload = rng.below(4) == 0 ? 2 : 0;
  s.arity = 2 + rng.below(3);
  s.stripes = 2 + rng.below(3);
  const std::uint32_t multi_servers = 2 + rng.below(3);
  s.degree = 3 + rng.below(8);
  s.period = 2 + rng.below(16);
  switch (rng.below(3)) {
    case 0: s.mechanism = MechanismKind::kCredit; break;
    case 1: s.mechanism = MechanismKind::kCyclic; break;
    default:
      s.mechanism = s.algo == Algo::kRiffle ? MechanismKind::kStrict : MechanismKind::kNone;
      break;
  }
  s.credit = 1 + rng.below(3);
  s.cycle_len = 3 + rng.below(2);
  if (s.algo == Algo::kRandomized && rng.below(3) == 0) {
    sc.upload_caps.resize(s.n);
    for (auto& c : sc.upload_caps) c = 1 + rng.below(3);
    if (rng.below(2) == 0) {
      sc.download_caps.resize(s.n);
      for (std::size_t i = 0; i < s.n; ++i) {
        sc.download_caps[i] =
            rng.below(2) == 0 ? kUnlimited : sc.upload_caps[i] + rng.below(2);
      }
    }
  }
  if (may_have_churn(s.algo) && rng.below(3) == 0) {
    const std::uint32_t count = 1 + rng.below(3);
    for (std::uint32_t i = 0; i < count; ++i) {
      sc.departures.emplace_back(1 + rng.below(40), 1 + rng.below(s.n - 1));
    }
  }
  if (s.algo == Algo::kRandomized && rng.below(8) == 0) sc.depart_on_complete = true;
  // The engine axis, drawn last so the scenario stream for the fields above
  // is unchanged: ~1 in 4 scenarios run on the scale engine (sanitize then
  // coerces them into its protocol family), and some of those leave the core
  // sampler's node range entirely.
  if (rng.below(4) == 0) {
    s.engine = RunEngine::kScale;
    if (rng.below(8) == 0) s.n = kMaxNodes + 1 + rng.below(960);
    // Half the scale draws run a deterministic mechanism ported from core;
    // sanitize snaps n to a power of two and clears churn for those.
    switch (rng.below(6)) {
      case 0:
        s.algo = Algo::kBinomialPipeline;
        s.mechanism = MechanismKind::kNone;
        break;
      case 1:  // triangular barter: the binomial schedule + 3-cycle ledger
        s.algo = Algo::kBinomialPipeline;
        s.mechanism = MechanismKind::kTriangular;
        break;
      case 2: s.algo = Algo::kRiffle; break;
      default: break;  // the randomized family, as sanitize coerces
    }
    // A third of the randomized scale draws become stream scenarios: the
    // hybrid tick+event driver, mirrored through pob/async at these sizes.
    // The mirror's replay is O(transfers), so the stream sampler stays well
    // under the scale cap (sanitize admits up to kMaxScaleNodes for
    // hand-written repros).
    if (s.algo == Algo::kRandomized && rng.below(3) == 0) {
      s.engine = RunEngine::kStream;
      s.n = 4 + rng.below(509);
      s.arrivals = static_cast<scale::stream::ArrivalPattern>(rng.below(4));
      s.classes = rng.below(2) == 0 ? 0 : 2 + rng.below(2);
      s.churn = s.classes == 0 ? 0 : rng.below(9);
      s.window = rng.below(2) == 0 ? 0 : 1 + rng.below(8);
      s.startup = 1 + rng.below(4);
      s.interval = 1 + rng.below(2);
      s.deadlines = rng.below(2) == 0;
    }
  }
  // A core multi-server run's server upload is its m; every other run keeps
  // the drawn server upload.
  s.servers = s.engine == RunEngine::kCore && s.algo == Algo::kMultiServer ? multi_servers
                                                                          : server_upload;
  sanitize(sc);
  return sc;
}

BuiltScenario build_scenario(const Scenario& sc) {
  BuiltScenario built;
  built.config = scenario_config(sc);
  built.run = scale::build_scheduler(sc.spec, built.config, sc.spec.seed);
  return built;
}

scale::stream::StreamSpec build_scale_scenario(const Scenario& sc) {
  const scale::RunSpec& s = sc.spec;
  scale::stream::StreamSpec spec;
  if (s.engine == RunEngine::kStream) {
    spec = scale::build_stream_spec(s, s.seed);
  } else {
    // The sampled overlay even for the binomial pipeline, which
    // build_topology would run on the complete graph.
    Rng overlay_rng = Rng(s.seed).split(0);
    spec.topology = scale::make_topology(s.overlay, s.n, s.degree, s.arity, overlay_rng);
    spec.options = scale::build_scale_options(s);
    spec.seed = s.seed;
  }
  spec.config = scenario_config(sc);
  // Tiny shard sizes put shard boundaries mid-swarm (the jobs-determinism
  // hazard). Half the scenarios run with phase timing collection on: the
  // clock reads must never perturb the stream (jobs=1 vs jobs=4 digests
  // still compare).
  spec.options.shard_nodes = seed_knob(s.seed, 16, 1, 48);
  spec.options.collect_phase_timings = ((s.seed >> 40) & 1) != 0;
  return spec;
}

namespace {

/// The certificate soundness axis: a completed run's completion tick must
/// never undercut the flow/counting certificate (pob/flow) for its scenario
/// — T* <= T is the oracle's contract on every topology, capacity shape,
/// churn pattern, and mechanism family the fuzzer samples. Violations fail
/// the scenario and therefore minimize to a paste-ready gtest like every
/// other axis. Only the strict-barter mechanism certifies against the
/// barter-coupled model; credit and cyclic barter permit client seeding, so
/// they (soundly) certify against the cooperative relaxation.
ScenarioOutcome check_certificate_soundness(const Scenario& sc,
                                            const EngineConfig& config,
                                            const scale::Topology& topology,
                                            const RunResult& r) {
  if (!r.completed) return {true, ""};
  const flow::BarterModel model =
      sc.spec.mechanism == MechanismKind::kStrict ? flow::BarterModel::kStrictBarter
          : flow::BarterModel::kCooperative;
  const flow::CompletionCertificate cert =
      flow::certify_completion_bound(config, topology, model);
  if (cert.lower_bound > r.completion_tick) {
    std::ostringstream os;
    os << "completion tick " << r.completion_tick
       << " beats the certified lower bound " << cert.lower_bound
       << " (last_block " << cert.last_block_bound << ", ramp " << cert.ramp_bound
       << ", pipe " << cert.pipe_bound << " @" << cert.pipe_client << ", flow "
       << cert.flow_bound << ", seed " << cert.seed_bound << ", strict_ramp "
       << cert.strict_ramp_bound << "; demand " << cert.demand_clients << ")";
    return {false, os.str()};
  }
  return {true, ""};
}

/// The scale-engine scenario check: the engine must agree with itself across
/// job counts, and its mirrored transfer stream must be accepted by
/// core::Engine + mechanism + reference oracle and reproduce the identical
/// RunResult — bookkeeping divergence is as much a bug as an illegal stream.
ScenarioOutcome run_scale_scenario(const Scenario& sc) {
  const scale::RunSpec& s = sc.spec;
  const scale::stream::StreamSpec built = build_scale_scenario(sc);
  EngineConfig config = built.config;
  config.record_trace = true;  // compare full transfer streams, not summaries
  const std::shared_ptr<const scale::Topology>& topo = built.topology;
  const scale::ScaleOptions& opt = built.options;

  scale::Engine serial(config, topo, opt, s.seed);
  const RunResult r_serial = serial.run(1);
  scale::Engine threaded(config, topo, opt, s.seed);
  const RunResult r_threaded = threaded.run(4);
  if (const std::string d = diff_run_results(r_serial, r_threaded); !d.empty()) {
    return {false, "scale engine diverges between jobs=1 and jobs=4: " + d};
  }

  auto mirrored = std::make_unique<scale::Engine>(config, topo, opt, s.seed);
  scale::MirrorScheduler mirror(std::move(mirrored));
  Scheduler* scheduler = &mirror;
  FaultyScheduler faulty(mirror, s.n);
  if (sc.fault == FaultKind::kSameTickForward) scheduler = &faulty;

  const OracleReport report = differential_check(config, *scheduler, mechanism_spec(s));
  if (!report.ok) {
    return {false, "oracle disagreement (scale mirror): " + report.diagnosis};
  }
  if (report.violated) {
    return {false, "scale stream rejected by both engines: " + report.violation_message};
  }
  if (const std::string d = diff_run_results(r_serial, report.fast); !d.empty()) {
    return {false, "scale engine vs mirrored core run diverge: " + d};
  }

  // Theorem 1: the scale engine is still a cooperative schedule; with unit
  // capacities it cannot beat k - 1 + ceil(log2 n).
  const bool uniform_unit = s.upload == 1 && s.servers <= 1 && sc.upload_caps.empty();
  if (r_serial.completed && uniform_unit && sc.departures.empty()) {
    const Tick bound = cooperative_lower_bound(s.n, s.k);
    if (r_serial.completion_tick < bound) {
      return {false, "beats Theorem 1: completed at tick " +
                         std::to_string(r_serial.completion_tick) +
                         " < lower bound " + std::to_string(bound)};
    }
  }

  // Certificate soundness, plus the per-tick flow predicate as a second,
  // flow-flavored differential oracle over the recorded stream: every tick
  // both engines accepted must route in the bipartite capacity network.
  if (const ScenarioOutcome cert =
          check_certificate_soundness(sc, config, *topo, r_serial);
      !cert.ok) {
    return cert;
  }
  if (s.n <= 256) {
    const flow::CapacityShape shape = flow::CapacityShape::from_config(config);
    for (std::size_t t = 0; t < r_serial.trace.size(); ++t) {
      if (const auto diag = flow::tick_flow_feasible(shape, *topo, r_serial.trace[t])) {
        return {false, "tick " + std::to_string(t + 1) +
                           " rejected by the flow predicate: " + *diag};
      }
    }
  }

  // Closed forms for the ported deterministic schedules. The binomial
  // pipeline (and its triangular-barter variant, which runs the identical
  // schedule under the 3-cycle ledger) achieves Theorem 1's bound exactly
  // at power-of-two n; the riffle must match the core scheduler's length,
  // which is Theorem 2's n + k - 2 whenever the last cycle is full.
  if (s.algo == Algo::kBinomialPipeline) {
    const Tick want = cooperative_lower_bound(s.n, s.k);
    if (!r_serial.completed || r_serial.completion_tick != want) {
      return {false, "scale binomial/triangular missed Theorem 1's k - 1 + "
                     "ceil(log2 n) = " + std::to_string(want) + " (got " +
                         (r_serial.completed
                              ? std::to_string(r_serial.completion_tick)
                              : "DNF") + ")"};
    }
  }
  if (s.algo == Algo::kRiffle) {
    const Tick want = RifflePipelineScheduler(s.n, s.k, 1, 2).schedule_length();
    if (!r_serial.completed || r_serial.completion_tick != want) {
      return {false, "scale riffle missed the core schedule length " +
                         std::to_string(want) + " (got " +
                         (r_serial.completed
                              ? std::to_string(r_serial.completion_tick)
                              : "DNF") + ")"};
    }
    if (s.k % (s.n - 1) == 0 &&
        want != RifflePipelineScheduler::ideal_completion_time(s.n, s.k)) {
      return {false, "scale riffle with full cycles missed Theorem 2's "
                     "n + k - 2"};
    }
  }
  return {true, ""};
}

/// The stream-scenario check: the hybrid tick+event driver must (a) be
/// accepted by pob/async replaying its exact transfer stream in continuous
/// time and reproduce every field — including the streaming metrics,
/// recomputed independently from the log — and (b) agree with itself across
/// job counts.
ScenarioOutcome run_stream_scenario(const Scenario& sc) {
  const scale::stream::StreamSpec built = build_scale_scenario(sc);
  const StreamMirrorReport mirror = stream_mirror_check(built, 1);
  if (!mirror.ok) {
    return {false, "stream mirror (pob/async) disagrees: " + mirror.diagnosis};
  }
  const RunResult& r_serial = mirror.scale;  // recorded with record_trace on

  {
    scale::stream::StreamSpec spec = built;
    spec.config.record_trace = true;
    scale::stream::StreamEngine threaded(std::move(spec));
    const RunResult r4 = threaded.run(4);
    if (const std::string d = diff_run_results(r_serial, r4); !d.empty()) {
      return {false, "stream engine diverges between jobs=1 and jobs=4: " + d};
    }
  }

  // Certificate soundness: arrivals only delay clients relative to the
  // everyone-present-at-start relaxation the certifier assumes, so T* <= T
  // must hold for completed stream runs too. Rate classes raise capacities
  // above the scalar config the certifier would read, so those scenarios
  // are excluded (certifying them against understated capacities would be
  // an unsound *upper* estimate of the bound).
  if (sc.spec.classes == 0) {
    if (const ScenarioOutcome cert = check_certificate_soundness(
            sc, built.config, *built.topology, r_serial);
        !cert.ok) {
      return cert;
    }
  }

  // Metric sanity on top of the mirror's field-for-field agreement: a
  // completed run has no censored startup latencies, and the deadline
  // counters are consistent.
  if (r_serial.completed && r_serial.never_started != 0) {
    return {false, "completed stream run reports " +
                       std::to_string(r_serial.never_started) +
                       " never-started clients"};
  }
  if (r_serial.deadline_misses > r_serial.deadline_checks) {
    return {false, "deadline_misses exceeds deadline_checks"};
  }
  return {true, ""};
}

}  // namespace

ScenarioOutcome run_scenario(const Scenario& sc) {
  const scale::RunSpec& s = sc.spec;
  if (s.engine == RunEngine::kStream) return run_stream_scenario(sc);
  if (s.engine == RunEngine::kScale) return run_scale_scenario(sc);
  BuiltScenario built = build_scenario(sc);
  Scheduler* scheduler = built.run.scheduler.get();
  FaultyScheduler faulty(*scheduler, s.n);
  if (sc.fault == FaultKind::kSameTickForward) scheduler = &faulty;

  const OracleReport report = differential_check(built.config, *scheduler, mechanism_spec(s),
                                                 built.run.mechanism.get());
  if (!report.ok) {
    return {false, "oracle disagreement: " + report.diagnosis};
  }
  if (report.violated) {
    // Both engines rejected the schedule in agreement — for a sampled
    // (legal-by-construction) scenario that still means the *scheduler*
    // planned an illegal transfer, which is a bug worth failing on.
    return {false, "schedule rejected by both engines: " + report.violation_message};
  }

  const RunResult& r = report.fast;
  const bool uniform_unit = s.upload == 1 && s.servers <= 1 && sc.upload_caps.empty();

  // Theorem 1: no cooperative schedule with unit capacities beats
  // k - 1 + ceil(log2 n).
  if (r.completed && uniform_unit && sc.departures.empty()) {
    const Tick bound = cooperative_lower_bound(s.n, s.k);
    if (r.completion_tick < bound) {
      return {false, "beats Theorem 1: completed at tick " +
                         std::to_string(r.completion_tick) + " < lower bound " +
                         std::to_string(bound)};
    }
  }

  // Certificate soundness. Core schedules that are not overlay-bound ignore
  // their sampled overlay (the rotating scheduler draws its own rotation
  // graphs), so build_topology certifies them against the complete graph —
  // the only edge set that provably contains every transfer they plan.
  if (const ScenarioOutcome cert = check_certificate_soundness(
          sc, built.config, *scale::build_topology(s, s.seed), r);
      !cert.ok) {
    return cert;
  }

  // Closed forms for the deterministic schedules (no churn, no mechanism).
  const bool clean = sc.departures.empty() && !sc.depart_on_complete &&
                     s.mechanism == MechanismKind::kNone;
  if (clean && s.algo == Algo::kPipeline && s.servers <= 1) {
    const Tick want = pipeline_completion(s.n, s.k);
    if (!r.completed || r.completion_tick != want) {
      return {false, "pipeline missed its closed form k + n - 2 = " +
                         std::to_string(want) + " (got " +
                         (r.completed ? std::to_string(r.completion_tick) : "DNF") + ")"};
    }
  }
  if (clean && s.algo == Algo::kBinomialTree && s.servers <= 1) {
    const Tick want = binomial_tree_completion(s.n, s.k);
    if (!r.completed || r.completion_tick != want) {
      return {false, "binomial tree missed its closed form k*ceil(log2 n) = " +
                         std::to_string(want) + " (got " +
                         (r.completed ? std::to_string(r.completion_tick) : "DNF") + ")"};
    }
  }
  // Theorem 3: the riffle pipeline with d = 2u and full cycles meets the
  // strict-barter lower bound k + n - 2 exactly (mechanism on or off).
  if (s.algo == Algo::kRiffle && sc.departures.empty() && s.servers <= 1 &&
      s.upload == 1 && s.download == 2 && s.k % (s.n - 1) == 0) {
    const Tick want = RifflePipelineScheduler::ideal_completion_time(s.n, s.k);
    if (!r.completed || r.completion_tick != want) {
      return {false, "riffle missed Theorem 3's k + n - 2 = " + std::to_string(want) +
                         " (got " +
                         (r.completed ? std::to_string(r.completion_tick) : "DNF") + ")"};
    }
  }
  // Deterministic schedules must complete outright when nothing departs.
  if (sc.departures.empty() && !sc.depart_on_complete &&
      !is_randomized_family(s.algo) && !r.completed) {
    return {false, std::string("deterministic schedule did not complete (") +
                       (r.stalled ? "stalled" : "hit tick cap") + ")"};
  }
  return {true, ""};
}

}  // namespace pob::check
