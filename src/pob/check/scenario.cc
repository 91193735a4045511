#include "pob/check/scenario.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "pob/analysis/bounds.h"
#include "pob/core/rng.h"
#include "pob/exp/parallel.h"
#include "pob/overlay/builders.h"
#include "pob/rand/randomized.h"
#include "pob/rand/rotation.h"
#include "pob/rand/tit_for_tat.h"
#include "pob/sched/binomial_pipeline.h"
#include "pob/sched/binomial_tree.h"
#include "pob/sched/multi_server.h"
#include "pob/sched/multicast_tree.h"
#include "pob/sched/pipeline.h"
#include "pob/sched/riffle_pipeline.h"
#include "pob/sched/striped_trees.h"
#include "pob/check/stream_check.h"
#include "pob/flow/certify.h"
#include "pob/scale/engine.h"
#include "pob/scale/mirror.h"

namespace pob::check {
namespace {

constexpr std::uint32_t kMaxNodes = 64;
constexpr std::uint32_t kMaxBlocks = 48;
/// Scale scenarios get a far larger node budget: the point of the SoA engine
/// is n beyond what the per-node-object path is sized for, and the reference
/// oracle still replays these sizes in reasonable time.
constexpr std::uint32_t kMaxScaleNodes = 4096;

bool is_randomized_family(SchedulerKind kind) {
  return kind == SchedulerKind::kRandomized || kind == SchedulerKind::kCreditRandomized ||
         kind == SchedulerKind::kRotating || kind == SchedulerKind::kTitForTat;
}

bool may_have_churn(SchedulerKind kind) {
  return is_randomized_family(kind) || kind == SchedulerKind::kPipeline ||
         kind == SchedulerKind::kBinomialPipeline;
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

const char* to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kPipeline: return "pipeline";
    case SchedulerKind::kMulticastTree: return "multicast-tree";
    case SchedulerKind::kBinomialTree: return "binomial-tree";
    case SchedulerKind::kBinomialPipeline: return "binomial-pipeline";
    case SchedulerKind::kRiffle: return "riffle";
    case SchedulerKind::kStripedTrees: return "striped-trees";
    case SchedulerKind::kMultiServer: return "multi-server";
    case SchedulerKind::kRandomized: return "randomized";
    case SchedulerKind::kCreditRandomized: return "credit-randomized";
    case SchedulerKind::kRotating: return "rotating";
    case SchedulerKind::kTitForTat: return "tit-for-tat";
  }
  return "?";
}

const char* to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kCore: return "core";
    case EngineKind::kScale: return "scale";
  }
  return "?";
}

EngineConfig Scenario::to_config() const {
  EngineConfig cfg;
  cfg.num_nodes = n;
  cfg.num_blocks = k;
  cfg.upload_capacity = upload;
  cfg.download_capacity = download;
  cfg.server_upload_capacity = server_upload;
  cfg.upload_capacities = upload_caps;
  cfg.download_capacities = download_caps;
  cfg.departures = departures;
  cfg.drop_transfers_involving_inactive = drop_on_churn;
  cfg.depart_on_complete = depart_on_complete;
  // Cut hopeless runs (disconnected overlays, churned-out pipelines) early
  // instead of spinning to the generous default tick cap. The deterministic
  // scale schedules are exempt: a sparse riffle tick moves O(n) blocks out
  // of O(n k) outstanding, far below the stall heuristic's utilization
  // floor, yet the schedule provably finishes at n + k - 2.
  cfg.stall_window = 64;
  if (engine == EngineKind::kScale && scheduler != SchedulerKind::kRandomized &&
      scheduler != SchedulerKind::kCreditRandomized) {
    cfg.stall_window = 0;
  }
  return cfg;
}

std::string Scenario::describe() const {
  std::ostringstream os;
  if (engine == EngineKind::kScale) os << "scale:";
  os << to_string(scheduler) << " n=" << n << " k=" << k << " u=" << upload << " d=";
  if (download == kUnlimited) {
    os << "inf";
  } else {
    os << download;
  }
  if (server_upload != 0) os << " su=" << server_upload;
  os << " mech=" << mechanism.describe();
  if (is_randomized_family(scheduler) && scheduler != SchedulerKind::kRotating) {
    os << " overlay=" << to_string(overlay);
    if (overlay == OverlayKind::kRegular) os << ":" << degree;
    if (overlay == OverlayKind::kKaryTree) os << ":" << arity;
  }
  switch (scheduler) {
    case SchedulerKind::kMulticastTree: os << " arity=" << arity; break;
    case SchedulerKind::kStripedTrees: os << " stripes=" << stripes; break;
    case SchedulerKind::kMultiServer: os << " servers=" << servers; break;
    case SchedulerKind::kRotating: os << " degree=" << degree << " period=" << period; break;
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
  if (stream) {
    os << " stream=" << scale::stream::arrival_pattern_name(arrival_pattern);
    if (playback_window != 0) os << " window=" << playback_window;
    os << " startup=" << startup_blocks << " ivl=" << playback_interval;
    if (hard_deadlines) os << " deadlines";
    if (rate_class_count != 0) os << " classes=" << rate_class_count;
    if (rate_changes != 0) os << " rate-churn=" << rate_changes;
  }
  if (fault == FaultKind::kSameTickForward) os << " FAULT=same-tick-forward";
  os << " seed=" << seed;
  return os.str();
}

std::string Scenario::to_gtest(const std::string& diagnosis) const {
  std::ostringstream os;
  os << "TEST(PobFuzzRepro, Seed" << seed << ") {\n";
  os << "  // " << describe() << "\n";
  if (!diagnosis.empty()) os << "  // failed with: " << diagnosis << "\n";
  os << "  using namespace pob::check;\n";
  os << "  Scenario sc;\n";
  os << "  sc.seed = " << seed << "ull;\n";
  if (engine == EngineKind::kScale) os << "  sc.engine = EngineKind::kScale;\n";
  os << "  sc.scheduler = SchedulerKind::k";
  switch (scheduler) {
    case SchedulerKind::kPipeline: os << "Pipeline"; break;
    case SchedulerKind::kMulticastTree: os << "MulticastTree"; break;
    case SchedulerKind::kBinomialTree: os << "BinomialTree"; break;
    case SchedulerKind::kBinomialPipeline: os << "BinomialPipeline"; break;
    case SchedulerKind::kRiffle: os << "Riffle"; break;
    case SchedulerKind::kStripedTrees: os << "StripedTrees"; break;
    case SchedulerKind::kMultiServer: os << "MultiServer"; break;
    case SchedulerKind::kRandomized: os << "Randomized"; break;
    case SchedulerKind::kCreditRandomized: os << "CreditRandomized"; break;
    case SchedulerKind::kRotating: os << "Rotating"; break;
    case SchedulerKind::kTitForTat: os << "TitForTat"; break;
  }
  os << ";\n";
  os << "  sc.overlay = OverlayKind::k";
  switch (overlay) {
    case OverlayKind::kComplete: os << "Complete"; break;
    case OverlayKind::kRegular: os << "Regular"; break;
    case OverlayKind::kHypercube: os << "Hypercube"; break;
    case OverlayKind::kRing: os << "Ring"; break;
    case OverlayKind::kKaryTree: os << "KaryTree"; break;
  }
  os << ";\n";
  os << "  sc.mechanism.kind = MechanismSpec::Kind::k";
  switch (mechanism.kind) {
    case MechanismSpec::Kind::kNone: os << "None"; break;
    case MechanismSpec::Kind::kStrictBarter: os << "StrictBarter"; break;
    case MechanismSpec::Kind::kCreditLimited: os << "CreditLimited"; break;
    case MechanismSpec::Kind::kCyclicBarter: os << "CyclicBarter"; break;
  }
  os << ";\n";
  os << "  sc.mechanism.credit_limit = " << mechanism.credit_limit << ";\n";
  os << "  sc.mechanism.max_cycle_len = " << mechanism.max_cycle_len << ";\n";
  os << "  sc.n = " << n << ";\n  sc.k = " << k << ";\n";
  os << "  sc.upload = " << upload << ";\n";
  if (download == kUnlimited) {
    os << "  sc.download = pob::kUnlimited;\n";
  } else {
    os << "  sc.download = " << download << ";\n";
  }
  os << "  sc.server_upload = " << server_upload << ";\n";
  os << "  sc.arity = " << arity << ";\n  sc.stripes = " << stripes << ";\n";
  os << "  sc.servers = " << servers << ";\n  sc.degree = " << degree << ";\n";
  os << "  sc.period = " << period << ";\n";
  if (!upload_caps.empty()) {
    os << "  sc.upload_caps = {";
    for (std::size_t i = 0; i < upload_caps.size(); ++i) {
      os << (i == 0 ? "" : ", ") << upload_caps[i];
    }
    os << "};\n";
  }
  if (!download_caps.empty()) {
    os << "  sc.download_caps = {";
    for (std::size_t i = 0; i < download_caps.size(); ++i) {
      if (i != 0) os << ", ";
      if (download_caps[i] == kUnlimited) {
        os << "pob::kUnlimited";
      } else {
        os << download_caps[i];
      }
    }
    os << "};\n";
  }
  for (const auto& [t, c] : departures) {
    os << "  sc.departures.push_back({" << t << ", " << c << "});\n";
  }
  os << "  sc.drop_on_churn = " << (drop_on_churn ? "true" : "false") << ";\n";
  os << "  sc.depart_on_complete = " << (depart_on_complete ? "true" : "false") << ";\n";
  if (stream) {
    os << "  sc.stream = true;\n";
    os << "  sc.arrival_pattern = pob::scale::stream::ArrivalPattern::k";
    switch (arrival_pattern) {
      case scale::stream::ArrivalPattern::kAllAtStart: os << "AllAtStart"; break;
      case scale::stream::ArrivalPattern::kPoisson: os << "Poisson"; break;
      case scale::stream::ArrivalPattern::kFlashCrowd: os << "FlashCrowd"; break;
      case scale::stream::ArrivalPattern::kBurst: os << "Burst"; break;
    }
    os << ";\n";
    os << "  sc.rate_class_count = " << rate_class_count << ";\n";
    os << "  sc.rate_changes = " << rate_changes << ";\n";
    os << "  sc.playback_window = " << playback_window << ";\n";
    os << "  sc.startup_blocks = " << startup_blocks << ";\n";
    os << "  sc.playback_interval = " << playback_interval << ";\n";
    os << "  sc.hard_deadlines = " << (hard_deadlines ? "true" : "false") << ";\n";
  }
  if (fault == FaultKind::kSameTickForward) {
    os << "  sc.fault = FaultKind::kSameTickForward;\n";
  }
  os << "  const ScenarioOutcome out = run_scenario(sc);\n";
  os << "  EXPECT_TRUE(out.ok) << out.diagnosis;\n";
  os << "}\n";
  return os.str();
}

void sanitize(Scenario& sc) {
  // The stream axis rides the scale engine's randomized protocol only, and
  // fault injection targets the core oracle path — a faulted scenario stays
  // a core scenario. This runs first so every rule below sees the final
  // (engine, scheduler) pair.
  if (sc.fault != FaultKind::kNone) sc.stream = false;
  if (sc.stream) {
    sc.engine = EngineKind::kScale;
    sc.scheduler = SchedulerKind::kRandomized;
  }
  // The scale engine implements the randomized cooperative protocol, its
  // credit-limited variant, and the deterministic mechanisms ported from
  // core: binomial pipeline, riffle pipeline, and triangular barter (the
  // latter encoded as kBinomialPipeline + CyclicBarter, since the §3.3
  // result is that the binomial schedule itself satisfies the 3-cycle
  // ledger). Everything else collapses to randomized so the churn /
  // heterogeneity rules below (keyed on kRandomized) apply unchanged.
  if (sc.engine == EngineKind::kScale &&
      sc.scheduler != SchedulerKind::kBinomialPipeline &&
      sc.scheduler != SchedulerKind::kRiffle) {
    sc.scheduler = SchedulerKind::kRandomized;
  }
  sc.n = std::clamp(sc.n, 2u,
                    sc.engine == EngineKind::kScale ? kMaxScaleNodes : kMaxNodes);
  sc.k = std::clamp(sc.k, 1u, kMaxBlocks);
  sc.upload = std::clamp(sc.upload, 1u, 2u);
  sc.arity = std::clamp(sc.arity, 2u, 4u);
  sc.period = std::clamp<Tick>(sc.period, 1, 32);
  sc.mechanism.credit_limit = std::clamp(sc.mechanism.credit_limit, 1u, 3u);
  sc.mechanism.max_cycle_len = std::clamp(sc.mechanism.max_cycle_len, 2u, 4u);

  // Deterministic schedules are materialized for unit capacities; the riffle
  // additionally takes (u, d) but the schedule builder is only exercised at
  // u = 1 here.
  if (!is_randomized_family(sc.scheduler)) sc.upload = 1;
  if (sc.download != kUnlimited && sc.download < sc.upload) sc.download = sc.upload;

  switch (sc.scheduler) {
    case SchedulerKind::kRiffle:
      // Theorem 3's schedule; d = 2u is the tight regime, d = u serializes.
      if (sc.download == kUnlimited || sc.download > 2 * sc.upload) {
        sc.download = 2 * sc.upload;
      }
      if (sc.mechanism.kind != MechanismSpec::Kind::kStrictBarter) {
        sc.mechanism.kind = MechanismSpec::Kind::kNone;
      }
      break;
    case SchedulerKind::kStripedTrees:
      sc.n = std::max(sc.n, 3u);
      sc.stripes = std::clamp(sc.stripes, 2u, std::min(4u, sc.n - 1));
      if (sc.download != kUnlimited) sc.download = std::max(sc.download, sc.stripes);
      sc.mechanism.kind = MechanismSpec::Kind::kNone;
      break;
    case SchedulerKind::kMultiServer:
      sc.n = std::max(sc.n, 3u);
      sc.servers = std::clamp(sc.servers, 2u, std::min(4u, sc.n - 1));
      sc.server_upload = sc.servers;
      sc.mechanism.kind = MechanismSpec::Kind::kNone;
      break;
    case SchedulerKind::kCreditRandomized:
      // The may_upload precheck only guarantees end-of-tick legality when
      // each client sends at most one block per tick.
      sc.upload = 1;
      if (sc.mechanism.kind != MechanismSpec::Kind::kCreditLimited &&
          sc.mechanism.kind != MechanismSpec::Kind::kCyclicBarter) {
        sc.mechanism.kind = MechanismSpec::Kind::kCreditLimited;
      }
      break;
    case SchedulerKind::kPipeline:
    case SchedulerKind::kMulticastTree:
    case SchedulerKind::kBinomialTree:
      sc.mechanism.kind = MechanismSpec::Kind::kNone;
      break;
    case SchedulerKind::kBinomialPipeline:
      // On the scale engine, CyclicBarter marks the triangular-barter
      // variant: the identical binomial schedule run under a live 3-cycle
      // ledger. Everywhere else the schedule is purely cooperative.
      if (sc.engine == EngineKind::kScale &&
          sc.mechanism.kind == MechanismSpec::Kind::kCyclicBarter) {
        sc.mechanism.max_cycle_len = 3;
      } else {
        sc.mechanism.kind = MechanismSpec::Kind::kNone;
      }
      break;
    case SchedulerKind::kRandomized:
      if (sc.engine == EngineKind::kScale) {
        // The scale planner prechecks its own §3.2 credit predicate, so it
        // may run under CreditLimited; the other mechanisms it does not model.
        if (sc.mechanism.kind != MechanismSpec::Kind::kCreditLimited) {
          sc.mechanism.kind = MechanismSpec::Kind::kNone;
        }
      } else {
        sc.mechanism.kind = MechanismSpec::Kind::kNone;
      }
      break;
    case SchedulerKind::kRotating:
    case SchedulerKind::kTitForTat:
      sc.mechanism.kind = MechanismSpec::Kind::kNone;
      break;
  }
  if (sc.scheduler != SchedulerKind::kMultiServer) {
    sc.server_upload = std::min(sc.server_upload, 2u);
  }

  // Heterogeneous capacities: plain randomized only (the scheduler options
  // must mirror the config, and only RandomizedOptions carries the vectors).
  if (sc.scheduler != SchedulerKind::kRandomized) {
    sc.upload_caps.clear();
    sc.download_caps.clear();
  }
  if (!sc.upload_caps.empty()) {
    sc.upload_caps.resize(sc.n, 1);
    for (auto& c : sc.upload_caps) c = std::clamp(c, 1u, 3u);
  }
  if (!sc.upload_caps.empty() && sc.download_caps.empty() && sc.download != kUnlimited) {
    // A limited scalar download under heterogeneous uploads would violate
    // d >= u wherever the node's upload exceeds it; materialize per-node
    // downloads so the fixup below can raise them.
    sc.download_caps.assign(sc.n, sc.download);
  }
  if (!sc.download_caps.empty()) {
    sc.download_caps.resize(sc.n, kUnlimited);
    const auto up_of = [&](std::size_t i) {
      return sc.upload_caps.empty() ? sc.upload : sc.upload_caps[i];
    };
    for (std::size_t i = 0; i < sc.download_caps.size(); ++i) {
      if (sc.download_caps[i] != kUnlimited) {
        sc.download_caps[i] = std::max(sc.download_caps[i], up_of(i));
      }
    }
  }

  if (sc.overlay == OverlayKind::kRing && sc.n < 3) sc.overlay = OverlayKind::kComplete;

  // Regular-graph degree (used by the regular overlay and by rotation):
  // make_random_regular needs degree < n with degree * n even.
  {
    const std::uint32_t hi = sc.n - 1;
    sc.degree = std::clamp(sc.degree, std::min(2u, hi), hi);
    if (sc.degree % 2 != 0 && sc.n % 2 != 0) {
      // n odd forces even degree; hi = n - 1 is even, so the odd degree is
      // strictly below it and bumping up stays in range.
      sc.degree = sc.degree < hi ? sc.degree + 1 : sc.degree - 1;
    }
  }

  // Churn: only schedulers whose interplay with lossy drop mode is defined
  // (randomized family reads live state; pipelines are the drop-forgiveness
  // regression family). Any timed departure forces drop mode — rigid
  // schedules keep naming departed nodes, and that must be lossy, not fatal.
  if (!may_have_churn(sc.scheduler)) {
    sc.departures.clear();
    sc.depart_on_complete = false;
  }
  if (sc.departures.size() > 3) sc.departures.resize(3);
  for (auto& [t, c] : sc.departures) {
    if (t < 1 || t > 40) t = 1 + t % 40;
    if (c < 1 || c >= sc.n) c = 1 + c % (sc.n - 1);
  }
  if (sc.depart_on_complete && sc.scheduler != SchedulerKind::kRandomized) {
    sc.depart_on_complete = false;
  }
  sc.drop_on_churn = !sc.departures.empty() || sc.depart_on_complete;

  // Deterministic scale schedules are pure index arithmetic on power-of-two
  // hypercubes with unit uniform capacities and no churn; snap every axis
  // into that space (the scale engine hard-rejects anything outside it).
  // This runs last because the churn section above would otherwise re-admit
  // departures for kBinomialPipeline.
  if (sc.engine == EngineKind::kScale && !is_randomized_family(sc.scheduler)) {
    if (sc.scheduler == SchedulerKind::kRiffle) {
      // The reference oracle replays all T = n + k - 2 ticks; cap n so the
      // mirrored run stays affordable.
      sc.n = std::min(sc.n, 512u);
    }
    sc.n = std::bit_floor(sc.n);
    sc.upload = 1;
    sc.server_upload = std::min(sc.server_upload, 1u);
    sc.upload_caps.clear();
    sc.download_caps.clear();
    sc.departures.clear();
    sc.depart_on_complete = false;
    sc.drop_on_churn = false;
    if (sc.scheduler == SchedulerKind::kRiffle) {
      // Strict barter on the complete graph; d = 2 because a server
      // hand-off may land on a client that is bartering the same tick.
      sc.overlay = OverlayKind::kComplete;
      sc.download = 2;
      sc.mechanism.kind = MechanismSpec::Kind::kStrictBarter;
    } else if (sc.overlay != OverlayKind::kComplete) {
      sc.overlay = OverlayKind::kHypercube;
    }
  }

  // Stream clamps (sc.engine/scheduler were already coerced above). The
  // async mirror replays every recorded transfer through pob/async, so keep
  // the file small; arrivals replace config departures outright, and rate
  // classes replace the static heterogeneous cap vectors.
  if (sc.stream) {
    sc.k = std::min(sc.k, 24u);
    sc.departures.clear();
    sc.depart_on_complete = false;
    sc.drop_on_churn = false;
    if (sc.rate_class_count != 0) {
      sc.rate_class_count = std::clamp(sc.rate_class_count, 2u, 3u);
      sc.upload_caps.clear();
      sc.download_caps.clear();
    }
    if (sc.rate_class_count == 0) {
      sc.rate_changes = 0;  // kRate events need classes to draw from
    } else {
      sc.rate_changes = std::min(sc.rate_changes, 8u);
    }
    sc.startup_blocks = std::clamp(sc.startup_blocks, 1u, sc.k);
    sc.playback_interval = std::clamp<Tick>(sc.playback_interval, 1, 4);
    if (sc.playback_window != 0) {
      sc.playback_window = std::clamp(sc.playback_window, 1u, sc.k);
    }
  }
}

Scenario sample_scenario(std::uint64_t base_seed, std::uint32_t index) {
  Rng rng(trial_seed(base_seed, index));
  Scenario sc;
  sc.seed = rng.next();
  constexpr SchedulerKind kKinds[] = {
      SchedulerKind::kPipeline,       SchedulerKind::kMulticastTree,
      SchedulerKind::kBinomialTree,   SchedulerKind::kBinomialPipeline,
      SchedulerKind::kRiffle,         SchedulerKind::kStripedTrees,
      SchedulerKind::kMultiServer,    SchedulerKind::kRandomized,
      SchedulerKind::kRandomized,     SchedulerKind::kRandomized,
      SchedulerKind::kCreditRandomized, SchedulerKind::kCreditRandomized,
      SchedulerKind::kRotating,       SchedulerKind::kTitForTat,
  };
  sc.scheduler = kKinds[rng.below(static_cast<std::uint32_t>(std::size(kKinds)))];
  constexpr OverlayKind kOverlays[] = {
      OverlayKind::kComplete, OverlayKind::kComplete, OverlayKind::kRegular,
      OverlayKind::kHypercube, OverlayKind::kRing, OverlayKind::kKaryTree,
  };
  sc.overlay = kOverlays[rng.below(static_cast<std::uint32_t>(std::size(kOverlays)))];
  sc.n = 2 + rng.below(kMaxNodes - 1);
  sc.k = 1 + rng.below(kMaxBlocks);
  sc.upload = 1 + rng.below(2);
  switch (rng.below(3)) {  // d in {u, 2u, inf}
    case 0: sc.download = sc.upload; break;
    case 1: sc.download = 2 * sc.upload; break;
    default: sc.download = kUnlimited; break;
  }
  sc.server_upload = rng.below(4) == 0 ? 2 : 0;
  sc.arity = 2 + rng.below(3);
  sc.stripes = 2 + rng.below(3);
  sc.servers = 2 + rng.below(3);
  sc.degree = 3 + rng.below(8);
  sc.period = 2 + rng.below(16);
  switch (rng.below(3)) {
    case 0:
      sc.mechanism.kind = MechanismSpec::Kind::kCreditLimited;
      break;
    case 1:
      sc.mechanism.kind = MechanismSpec::Kind::kCyclicBarter;
      break;
    default:
      sc.mechanism.kind = sc.scheduler == SchedulerKind::kRiffle
                              ? MechanismSpec::Kind::kStrictBarter
                              : MechanismSpec::Kind::kNone;
      break;
  }
  sc.mechanism.credit_limit = 1 + rng.below(3);
  sc.mechanism.max_cycle_len = 3 + rng.below(2);
  if (sc.scheduler == SchedulerKind::kRandomized && rng.below(3) == 0) {
    sc.upload_caps.resize(sc.n);
    for (auto& c : sc.upload_caps) c = 1 + rng.below(3);
    if (rng.below(2) == 0) {
      sc.download_caps.resize(sc.n);
      for (std::size_t i = 0; i < sc.n; ++i) {
        sc.download_caps[i] =
            rng.below(2) == 0 ? kUnlimited : sc.upload_caps[i] + rng.below(2);
      }
    }
  }
  if (may_have_churn(sc.scheduler) && rng.below(3) == 0) {
    const std::uint32_t count = 1 + rng.below(3);
    for (std::uint32_t i = 0; i < count; ++i) {
      sc.departures.emplace_back(1 + rng.below(40), 1 + rng.below(sc.n - 1));
    }
  }
  if (sc.scheduler == SchedulerKind::kRandomized && rng.below(8) == 0) {
    sc.depart_on_complete = true;
  }
  // The engine axis, drawn last so the scenario stream for the fields above
  // is unchanged: ~1 in 4 scenarios run on the scale engine (sanitize then
  // coerces them into its protocol family), and some of those leave the core
  // sampler's node range entirely.
  if (rng.below(4) == 0) {
    sc.engine = EngineKind::kScale;
    if (rng.below(8) == 0) sc.n = kMaxNodes + 1 + rng.below(960);
    // Half the scale draws run a deterministic mechanism ported from core;
    // sanitize snaps n to a power of two and clears churn for those.
    switch (rng.below(6)) {
      case 0:
        sc.scheduler = SchedulerKind::kBinomialPipeline;
        sc.mechanism.kind = MechanismSpec::Kind::kNone;
        break;
      case 1:  // triangular barter: the binomial schedule + 3-cycle ledger
        sc.scheduler = SchedulerKind::kBinomialPipeline;
        sc.mechanism.kind = MechanismSpec::Kind::kCyclicBarter;
        break;
      case 2:
        sc.scheduler = SchedulerKind::kRiffle;
        break;
      default:
        break;  // the randomized family, as sanitize coerces
    }
    // A third of the randomized scale draws become stream scenarios: the
    // hybrid tick+event driver, mirrored through pob/async at these sizes.
    // The mirror's replay is O(transfers), so the stream sampler stays well
    // under the scale cap (sanitize admits up to kMaxScaleNodes for
    // hand-written repros).
    if (sc.scheduler == SchedulerKind::kRandomized && rng.below(3) == 0) {
      sc.stream = true;
      sc.n = 4 + rng.below(509);
      constexpr scale::stream::ArrivalPattern kPatterns[] = {
          scale::stream::ArrivalPattern::kAllAtStart,
          scale::stream::ArrivalPattern::kPoisson,
          scale::stream::ArrivalPattern::kFlashCrowd,
          scale::stream::ArrivalPattern::kBurst,
      };
      sc.arrival_pattern =
          kPatterns[rng.below(static_cast<std::uint32_t>(std::size(kPatterns)))];
      sc.rate_class_count = rng.below(2) == 0 ? 0 : 2 + rng.below(2);
      sc.rate_changes = sc.rate_class_count == 0 ? 0 : rng.below(9);
      sc.playback_window = rng.below(2) == 0 ? 0 : 1 + rng.below(8);
      sc.startup_blocks = 1 + rng.below(4);
      sc.playback_interval = 1 + rng.below(2);
      sc.hard_deadlines = rng.below(2) == 0;
    }
  }
  sanitize(sc);
  return sc;
}

BuiltScenario build_scenario(const Scenario& sc) {
  BuiltScenario built;
  built.config = sc.to_config();
  Rng rng(sc.seed);

  if (is_randomized_family(sc.scheduler) && sc.scheduler != SchedulerKind::kRotating) {
    Rng overlay_rng = rng.split(0);
    built.overlay = make_overlay(sc.overlay, sc.n, sc.degree, sc.arity, overlay_rng);
  }

  RandomizedOptions opt;
  opt.upload_capacity = sc.upload;
  opt.download_capacity = sc.download;
  opt.upload_capacities = sc.upload_caps;
  opt.download_capacities = sc.download_caps;
  opt.policy = sc.seed % 2 == 0 ? BlockPolicy::kRandom : BlockPolicy::kRarestFirst;

  switch (sc.scheduler) {
    case SchedulerKind::kPipeline:
      built.scheduler = std::make_unique<PipelineScheduler>(sc.n, sc.k);
      break;
    case SchedulerKind::kMulticastTree:
      built.scheduler = std::make_unique<MulticastTreeScheduler>(sc.n, sc.k, sc.arity);
      break;
    case SchedulerKind::kBinomialTree:
      built.scheduler = std::make_unique<BinomialTreeScheduler>(sc.n, sc.k);
      break;
    case SchedulerKind::kBinomialPipeline:
      built.scheduler = std::make_unique<BinomialPipelineScheduler>(sc.n, sc.k);
      break;
    case SchedulerKind::kRiffle:
      built.scheduler = std::make_unique<RifflePipelineScheduler>(
          sc.n, sc.k, sc.upload,
          sc.download == kUnlimited ? 2 * sc.upload : sc.download);
      break;
    case SchedulerKind::kStripedTrees:
      built.scheduler = std::make_unique<StripedTreesScheduler>(sc.n, sc.k, sc.stripes);
      break;
    case SchedulerKind::kMultiServer:
      built.scheduler = std::make_unique<MultiServerScheduler>(sc.n, sc.k, sc.servers);
      break;
    case SchedulerKind::kRandomized:
      built.scheduler =
          std::make_unique<RandomizedScheduler>(built.overlay, opt, rng.split(1));
      break;
    case SchedulerKind::kCreditRandomized:
      built.mechanism = make_mechanism(sc.mechanism);
      built.scheduler = std::make_unique<RandomizedScheduler>(
          built.overlay, opt, rng.split(1), built.mechanism.get());
      break;
    case SchedulerKind::kRotating:
      built.scheduler = std::make_unique<RotatingRandomizedScheduler>(
          sc.n, sc.degree, sc.period, opt, rng.split(1));
      break;
    case SchedulerKind::kTitForTat: {
      TitForTatOptions tft;
      tft.upload_capacity = sc.upload;
      tft.download_capacity = sc.download;
      built.scheduler =
          std::make_unique<TitForTatScheduler>(built.overlay, tft, rng.split(1));
      break;
    }
  }
  if (built.mechanism == nullptr) built.mechanism = make_mechanism(sc.mechanism);
  return built;
}

/// The CSR form of build_scenario's overlay (same seed-derived rng stream).
/// The complete graph never materializes — that is the point at mega-swarm
/// sizes.
std::shared_ptr<const scale::Topology> make_scale_topology(const Scenario& sc) {
  Rng overlay_rng = Rng(sc.seed).split(0);
  return scale::make_topology(sc.overlay, sc.n, sc.degree, sc.arity, overlay_rng);
}

scale::ScaleOptions make_scale_options(const Scenario& sc) {
  scale::ScaleOptions opt;
  opt.policy = sc.seed % 2 == 0 ? BlockPolicy::kRandom : BlockPolicy::kRarestFirst;
  switch (sc.scheduler) {
    case SchedulerKind::kBinomialPipeline:
      if (sc.mechanism.kind == MechanismSpec::Kind::kCyclicBarter) {
        opt.scheduler = scale::SchedKind::kTriangularBarter;
        opt.credit_limit = sc.mechanism.credit_limit;
      } else {
        opt.scheduler = scale::SchedKind::kBinomialPipeline;
      }
      break;
    case SchedulerKind::kRiffle:
      opt.scheduler = scale::SchedKind::kRifflePipeline;
      break;
    default:
      if (sc.mechanism.kind == MechanismSpec::Kind::kCreditLimited) {
        opt.credit_limit = sc.mechanism.credit_limit;
      }
      break;
  }
  // Vary the planner's knobs off their defaults: tiny shard sizes put shard
  // boundaries mid-swarm (the jobs-determinism hazard), and small probe
  // budgets exercise the give-up path.
  opt.max_probes = 2 + static_cast<std::uint32_t>((sc.seed >> 8) % 23);
  opt.shard_nodes = 1 + static_cast<std::uint32_t>((sc.seed >> 16) % 48);
  // Half the scenarios run with phase timing collection on: the clock reads
  // must never perturb the stream (jobs=1 vs jobs=4 digests still compare).
  opt.collect_phase_timings = ((sc.seed >> 40) & 1) != 0;
  return opt;
}

scale::stream::StreamSpec make_stream_spec(const Scenario& sc) {
  scale::stream::StreamSpec spec;
  spec.config = sc.to_config();
  spec.topology = make_scale_topology(sc);
  spec.options = make_scale_options(sc);
  spec.seed = sc.seed;

  scale::stream::StreamWorkload& wl = spec.workload;
  wl.arrivals = sc.arrival_pattern;
  // Pattern parameters are seed-derived (pure, like the planner knobs in
  // make_scale_options) and kept tight so sampled runs resolve in tens of
  // ticks: sub-tick to multi-tick Poisson gaps, a spike inside the first
  // dozen ticks, cohorts of a handful to ~100 clients.
  wl.mean_gap16 = 4 + static_cast<std::uint32_t>((sc.seed >> 4) % 29);
  wl.flash_start = 2 + static_cast<Tick>((sc.seed >> 9) % 7);
  wl.flash_width = 1 + static_cast<std::uint32_t>((sc.seed >> 12) % 6);
  wl.flash_pct = 50 + static_cast<std::uint32_t>((sc.seed >> 15) % 51);
  wl.burst_period = 1 + static_cast<std::uint32_t>((sc.seed >> 21) % 6);
  wl.burst_size = 4 + static_cast<std::uint32_t>((sc.seed >> 24) % 97);
  for (std::uint32_t i = 0; i < sc.rate_class_count; ++i) {
    scale::stream::RateClass cls;
    cls.weight = 1 + i;
    cls.up = 1 + i;
    // down >= up always holds (the model rule build_workload enforces);
    // the first class keeps unlimited download like the scalar default.
    cls.down = i == 0 ? kUnlimited : 2 * (1 + i);
    wl.rate_classes.push_back(cls);
  }
  wl.rate_changes = sc.rate_changes;
  wl.rate_change_horizon = 32;

  spec.demand.window = sc.playback_window;
  spec.demand.startup_blocks = sc.startup_blocks;
  spec.demand.interval = sc.playback_interval;
  spec.demand.deadlines = sc.hard_deadlines;
  spec.demand.deadline_slack = 2;
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
      sc.mechanism.kind == MechanismSpec::Kind::kStrictBarter
          ? flow::BarterModel::kStrictBarter
          : flow::BarterModel::kCooperative;
  // Fuzz-tier options: the counting components always run; the flow search
  // stays cheap enough to keep scenario throughput up.
  flow::CertifyOptions opts;
  opts.max_flow_sinks = 2;
  opts.flow_arc_budget = 250'000;
  const flow::CompletionCertificate cert =
      flow::certify_completion_bound(config, topology, model, opts);
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
  EngineConfig config = sc.to_config();
  config.record_trace = true;  // compare full transfer streams, not summaries

  const std::shared_ptr<const scale::Topology> topo = make_scale_topology(sc);
  const scale::ScaleOptions opt = make_scale_options(sc);

  scale::Engine serial(config, topo, opt, sc.seed);
  const RunResult r_serial = serial.run(1);
  scale::Engine threaded(config, topo, opt, sc.seed);
  const RunResult r_threaded = threaded.run(4);
  if (const std::string d = diff_run_results(r_serial, r_threaded); !d.empty()) {
    return {false, "scale engine diverges between jobs=1 and jobs=4: " + d};
  }

  auto mirrored = std::make_unique<scale::Engine>(config, topo, opt, sc.seed);
  scale::MirrorScheduler mirror(std::move(mirrored));
  Scheduler* scheduler = &mirror;
  FaultyScheduler faulty(mirror, sc.n);
  if (sc.fault == FaultKind::kSameTickForward) scheduler = &faulty;

  const OracleReport report = differential_check(config, *scheduler, sc.mechanism);
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
  const bool uniform_unit =
      sc.upload == 1 && sc.server_upload <= 1 && sc.upload_caps.empty();
  if (r_serial.completed && uniform_unit && sc.departures.empty()) {
    const Tick bound = cooperative_lower_bound(sc.n, sc.k);
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
  if (sc.n <= 256) {
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
  if (sc.scheduler == SchedulerKind::kBinomialPipeline) {
    const Tick want = cooperative_lower_bound(sc.n, sc.k);
    if (!r_serial.completed || r_serial.completion_tick != want) {
      return {false, "scale binomial/triangular missed Theorem 1's k - 1 + "
                     "ceil(log2 n) = " + std::to_string(want) + " (got " +
                         (r_serial.completed
                              ? std::to_string(r_serial.completion_tick)
                              : "DNF") + ")"};
    }
  }
  if (sc.scheduler == SchedulerKind::kRiffle) {
    const Tick want = RifflePipelineScheduler(sc.n, sc.k, 1, 2).schedule_length();
    if (!r_serial.completed || r_serial.completion_tick != want) {
      return {false, "scale riffle missed the core schedule length " +
                         std::to_string(want) + " (got " +
                         (r_serial.completed
                              ? std::to_string(r_serial.completion_tick)
                              : "DNF") + ")"};
    }
    if (sc.k % (sc.n - 1) == 0 &&
        want != RifflePipelineScheduler::ideal_completion_time(sc.n, sc.k)) {
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
  const StreamMirrorReport mirror = stream_mirror_check(make_stream_spec(sc), 1);
  if (!mirror.ok) {
    return {false, "stream mirror (pob/async) disagrees: " + mirror.diagnosis};
  }
  const RunResult& r_serial = mirror.scale;  // recorded with record_trace on

  {
    scale::stream::StreamSpec spec = make_stream_spec(sc);
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
  if (sc.rate_class_count == 0) {
    const scale::stream::StreamSpec spec = make_stream_spec(sc);
    if (const ScenarioOutcome cert = check_certificate_soundness(
            sc, spec.config, *spec.topology, r_serial);
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
  if (sc.stream) return run_stream_scenario(sc);
  if (sc.engine == EngineKind::kScale) return run_scale_scenario(sc);
  BuiltScenario built = build_scenario(sc);
  Scheduler* scheduler = built.scheduler.get();
  FaultyScheduler faulty(*built.scheduler, sc.n);
  if (sc.fault == FaultKind::kSameTickForward) scheduler = &faulty;

  const OracleReport report =
      differential_check(built.config, *scheduler, sc.mechanism, built.mechanism.get());
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
  const bool uniform_unit = sc.upload == 1 && sc.server_upload <= 1 &&
                            sc.upload_caps.empty();

  // Theorem 1: no cooperative schedule with unit capacities beats
  // k - 1 + ceil(log2 n).
  if (r.completed && uniform_unit && sc.departures.empty()) {
    const Tick bound = cooperative_lower_bound(sc.n, sc.k);
    if (r.completion_tick < bound) {
      return {false, "beats Theorem 1: completed at tick " +
                         std::to_string(r.completion_tick) + " < lower bound " +
                         std::to_string(bound)};
    }
  }

  // Certificate soundness. Core schedulers other than the overlay-driven
  // randomized family ignore their sampled overlay (the rotating scheduler
  // draws its own rotation graphs), so they certify against the complete
  // topology — the only edge set that provably contains every transfer
  // they plan.
  {
    const bool overlay_respected = is_randomized_family(sc.scheduler) &&
                                   sc.scheduler != SchedulerKind::kRotating;
    const std::shared_ptr<const scale::Topology> cert_topo =
        overlay_respected
            ? make_scale_topology(sc)
            : std::make_shared<scale::Topology>(scale::Topology::complete(sc.n));
    if (const ScenarioOutcome cert =
            check_certificate_soundness(sc, built.config, *cert_topo, r);
        !cert.ok) {
      return cert;
    }
  }

  // Closed forms for the deterministic schedules (no churn, no mechanism).
  const bool clean = sc.departures.empty() && !sc.depart_on_complete &&
                     sc.mechanism.kind == MechanismSpec::Kind::kNone;
  if (clean && sc.scheduler == SchedulerKind::kPipeline && sc.server_upload <= 1) {
    const Tick want = pipeline_completion(sc.n, sc.k);
    if (!r.completed || r.completion_tick != want) {
      return {false, "pipeline missed its closed form k + n - 2 = " +
                         std::to_string(want) + " (got " +
                         (r.completed ? std::to_string(r.completion_tick) : "DNF") + ")"};
    }
  }
  if (clean && sc.scheduler == SchedulerKind::kBinomialTree && sc.server_upload <= 1) {
    const Tick want = binomial_tree_completion(sc.n, sc.k);
    if (!r.completed || r.completion_tick != want) {
      return {false, "binomial tree missed its closed form k*ceil(log2 n) = " +
                         std::to_string(want) + " (got " +
                         (r.completed ? std::to_string(r.completion_tick) : "DNF") + ")"};
    }
  }
  // Theorem 3: the riffle pipeline with d = 2u and full cycles meets the
  // strict-barter lower bound k + n - 2 exactly (mechanism on or off).
  if (sc.scheduler == SchedulerKind::kRiffle && sc.departures.empty() &&
      sc.server_upload <= 1 && sc.upload == 1 && sc.download == 2 &&
      sc.k % (sc.n - 1) == 0) {
    const Tick want = RifflePipelineScheduler::ideal_completion_time(sc.n, sc.k);
    if (!r.completed || r.completion_tick != want) {
      return {false, "riffle missed Theorem 3's k + n - 2 = " + std::to_string(want) +
                         " (got " +
                         (r.completed ? std::to_string(r.completion_tick) : "DNF") + ")"};
    }
  }
  // Deterministic schedules must complete outright when nothing departs.
  if (sc.departures.empty() && !sc.depart_on_complete &&
      !is_randomized_family(sc.scheduler) && !r.completed) {
    return {false, std::string("deterministic schedule did not complete (") +
                       (r.stalled ? "stalled" : "hit tick cap") + ")"};
  }
  return {true, ""};
}

}  // namespace pob::check
