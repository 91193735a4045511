#include "pob/scale/run_spec.h"

#include <charconv>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "pob/exp/parallel.h"
#include "pob/rand/rotation.h"
#include "pob/rand/tit_for_tat.h"
#include "pob/sched/binomial_pipeline.h"
#include "pob/sched/binomial_tree.h"
#include "pob/sched/multi_server.h"
#include "pob/sched/multicast_tree.h"
#include "pob/sched/pipeline.h"
#include "pob/sched/riffle_pipeline.h"
#include "pob/sched/striped_trees.h"

namespace pob::scale {
namespace {

constexpr const char* kEngineNames[] = {"core", "scale", "stream"};
constexpr const char* kAlgoNames[] = {
    "pipeline", "tree", "binomial-tree", "binomial-pipeline", "multi-server", "riffle",
    "randomized", "credit-randomized", "rotating", "tit-for-tat", "striped-trees"};
constexpr const char* kMechanismNames[] = {"none", "strict", "credit", "triangular",
                                           "cyclic"};
constexpr const char* kArrivalsNames[] = {"batch", "poisson", "flash", "burst"};

/// The unsigned scalar fields (Tick is 32-bit too) and their flags.
constexpr std::pair<const char*, std::uint32_t RunSpec::*> kScalars[] = {
    {"degree", &RunSpec::degree}, {"arity", &RunSpec::arity},
    {"credit", &RunSpec::credit}, {"cycle-len", &RunSpec::cycle_len},
    {"n", &RunSpec::n}, {"k", &RunSpec::k}, {"upload", &RunSpec::upload},
    {"servers", &RunSpec::servers}, {"cap", &RunSpec::cap},
    {"stall-window", &RunSpec::stall_window}, {"stripes", &RunSpec::stripes},
    {"period", &RunSpec::period}, {"probes", &RunSpec::probes},
    {"gap16", &RunSpec::gap16}, {"flash-start", &RunSpec::flash_start},
    {"flash-width", &RunSpec::flash_width}, {"flash-pct", &RunSpec::flash_pct},
    {"burst-size", &RunSpec::burst_size}, {"burst-period", &RunSpec::burst_period},
    {"classes", &RunSpec::classes}, {"churn", &RunSpec::churn},
    {"horizon", &RunSpec::horizon}, {"window", &RunSpec::window},
    {"startup", &RunSpec::startup}, {"interval", &RunSpec::interval},
    {"slack", &RunSpec::slack}, {"runs", &RunSpec::runs}};

/// The enumerator of E (0 .. count-1) whose to_string is the flag's value.
template <typename E>
E parse_kind(const Args& args, std::string_view flag, E fallback, std::size_t count) {
  const std::string value = args.get_string(flag, to_string(fallback));
  std::string known;
  for (std::size_t i = 0; i < count; ++i) {
    const auto e = static_cast<E>(i);
    if (value == to_string(e)) return e;
    known += std::string(i == 0 ? "" : " | ") + to_string(e);
  }
  throw std::invalid_argument("unknown --" + std::string(flag) + "=" + value + " (" +
                              known + ")");
}

}  // namespace

const char* to_string(RunEngine e) { return kEngineNames[static_cast<std::size_t>(e)]; }
const char* to_string(Algo a) { return kAlgoNames[static_cast<std::size_t>(a)]; }
const char* to_string(MechanismKind m) {
  return kMechanismNames[static_cast<std::size_t>(m)];
}
const char* to_string(stream::ArrivalPattern p) {
  return kArrivalsNames[static_cast<std::size_t>(p)];
}

bool overlay_bound(Algo algo) {
  return algo == Algo::kRandomized || algo == Algo::kCreditRandomized ||
         algo == Algo::kTitForTat;
}

RunSpec parse_run_spec(const Args& args) {
  RunSpec s;
  s.engine = parse_kind(args, "engine", s.engine, std::size(kEngineNames));
  s.algo = parse_kind(args, "algo", s.algo, std::size(kAlgoNames));
  s.overlay = parse_kind(args, "overlay", s.overlay, 5);  // the five OverlayKinds
  s.mechanism = parse_kind(args, "mechanism", s.mechanism, std::size(kMechanismNames));
  s.arrivals = parse_kind(args, "arrivals", s.arrivals, std::size(kArrivalsNames));
  if (args.has("policy")) s.policy = parse_policy(args);
  for (const auto& [flag, field] : kScalars) s.*field = args.get_u32(flag, s.*field);
  if (args.get_string("download", "") == "unlimited") {
    s.download = kUnlimited;
  } else {
    s.download = args.get_u32("download", s.download);
  }
  s.leave_pct = args.get_double("leave-pct", s.leave_pct);
  s.deadlines = args.get_bool("deadlines", s.deadlines);
  s.seed = args.get_u64("seed", s.seed);

  if (s.n < 2) throw std::invalid_argument("--n must be >= 2 (server plus a client)");
  if (s.k < 1) throw std::invalid_argument("--k must be >= 1");
  if (s.runs < 1) throw std::invalid_argument("--runs must be >= 1");
  if (!(s.leave_pct >= 0.0 && s.leave_pct <= 100.0)) {
    throw std::invalid_argument("--leave-pct must be in [0, 100]");
  }
  return s;
}

RunSpec parse_run_spec(std::string_view flags) {
  std::vector<std::string> tokens{"run-spec"};
  std::istringstream is{std::string(flags)};
  for (std::string t; is >> t;) tokens.push_back(std::move(t));
  std::vector<const char*> argv;
  for (const std::string& t : tokens) argv.push_back(t.c_str());
  const Args args(static_cast<int>(argv.size()), argv.data());
  const RunSpec spec = parse_run_spec(args);
  args.reject_unknown();
  return spec;
}

std::string to_flags(const RunSpec& s) {
  std::string out = std::string("--engine=") + to_string(s.engine) +
                    " --algo=" + to_string(s.algo) + " --overlay=" + to_string(s.overlay) +
                    " --mechanism=" + to_string(s.mechanism) +
                    " --arrivals=" + to_string(s.arrivals) + " --policy=" +
                    (s.policy == BlockPolicy::kRandom ? "random" : "rarest");
  for (const auto& [flag, field] : kScalars) {
    out += std::string(" --") + flag + "=" + std::to_string(s.*field);
  }
  char pct[32];
  const auto pct_end = std::to_chars(pct, pct + sizeof(pct), s.leave_pct).ptr;
  out += " --download=" +
         (s.download == kUnlimited ? std::string("unlimited") : std::to_string(s.download)) +
         " --leave-pct=" + std::string(pct, pct_end) +
         " --deadlines=" + (s.deadlines ? "true" : "false") +
         " --seed=" + std::to_string(s.seed);
  return out;
}

std::uint64_t run_seed(const RunSpec& spec, std::uint32_t run) {
  return trial_seed(spec.seed, run);
}

EngineConfig build_config(const RunSpec& s) {
  EngineConfig cfg;
  cfg.num_nodes = s.n;
  cfg.num_blocks = s.k;
  cfg.upload_capacity = s.upload;
  cfg.download_capacity =
      s.algo == Algo::kRiffle && s.download == kUnlimited ? 2 * s.upload : s.download;
  cfg.server_upload_capacity =
      s.algo == Algo::kMultiServer && s.servers == 0 ? 2 : s.servers;
  cfg.max_ticks = s.cap;
  cfg.stall_window = s.stall_window;
  if (s.leave_pct > 0.0) {
    // Random departures in the first half of the nominal schedule; every
    // run of the spec loses the same clients (lossy mode).
    Rng churn_rng(s.seed ^ 0xC4A0);
    std::vector<NodeId> clients(s.n - 1);
    for (NodeId c = 1; c < s.n; ++c) clients[c - 1] = c;
    churn_rng.shuffle(clients);
    const Tick horizon = (s.k + ceil_log2(s.n)) / 2 + 1;
    const auto leavers = static_cast<std::uint32_t>(s.leave_pct / 100.0 * (s.n - 1));
    for (std::uint32_t i = 0; i < leavers; ++i) {
      cfg.departures.push_back({1 + churn_rng.below(horizon), clients[i]});
    }
    cfg.drop_transfers_involving_inactive = true;
  }
  return cfg;
}

std::unique_ptr<Mechanism> build_mechanism(const RunSpec& s) {
  switch (s.mechanism) {
    case MechanismKind::kNone: return nullptr;
    case MechanismKind::kStrict: return std::make_unique<StrictBarter>();
    case MechanismKind::kCredit: return std::make_unique<CreditLimited>(s.credit);
    case MechanismKind::kTriangular: return std::make_unique<CyclicBarter>(3, s.credit);
    case MechanismKind::kCyclic:
      return std::make_unique<CyclicBarter>(s.cycle_len, s.credit);
  }
  return nullptr;  // unreachable
}

BuiltScheduler build_scheduler(const RunSpec& s, const EngineConfig& cfg,
                               std::uint64_t seed) {
  const std::uint32_t n = s.n, k = s.k;
  BuiltScheduler b;
  b.mechanism = build_mechanism(s);
  const bool prechecked = s.algo == Algo::kCreditRandomized || s.algo == Algo::kRotating;
  if (prechecked && s.mechanism == MechanismKind::kStrict) {
    throw std::invalid_argument(std::string("--algo=") + to_string(s.algo) +
                                " prechecks --mechanism=credit|triangular|cyclic, not strict");
  }
  if (s.algo == Algo::kCreditRandomized && b.mechanism == nullptr) {
    b.mechanism = std::make_unique<CreditLimited>(s.credit);
  }
  const Mechanism* precheck = prechecked ? b.mechanism.get() : nullptr;
  RandomizedOptions opt;
  opt.policy = s.policy;
  opt.upload_capacity = cfg.upload_capacity;
  opt.download_capacity = cfg.download_capacity;
  opt.upload_capacities = cfg.upload_capacities;
  opt.download_capacities = cfg.download_capacities;
  Rng sched_rng = Rng(seed).split(1);  // the seed rule's scheduler stream
  switch (s.algo) {
    case Algo::kPipeline: b.scheduler = std::make_unique<PipelineScheduler>(n, k); break;
    case Algo::kTree:
      b.scheduler = std::make_unique<MulticastTreeScheduler>(n, k, s.arity);
      break;
    case Algo::kBinomialTree: b.scheduler = std::make_unique<BinomialTreeScheduler>(n, k); break;
    case Algo::kBinomialPipeline:
      b.scheduler = std::make_unique<BinomialPipelineScheduler>(n, k);
      break;
    case Algo::kMultiServer:
      b.scheduler = std::make_unique<MultiServerScheduler>(n, k, cfg.server_upload_capacity);
      break;
    case Algo::kRiffle:
      b.scheduler = std::make_unique<RifflePipelineScheduler>(n, k, cfg.upload_capacity,
                                                              cfg.download_capacity);
      break;
    case Algo::kRandomized:
    case Algo::kCreditRandomized:
      b.scheduler = std::make_unique<RandomizedScheduler>(build_overlay(s, seed), opt,
                                                          sched_rng, precheck);
      break;
    case Algo::kRotating:
      b.scheduler = std::make_unique<RotatingRandomizedScheduler>(n, s.degree, s.period, opt,
                                                                  sched_rng, precheck);
      break;
    case Algo::kTitForTat: {
      TitForTatOptions tft;
      tft.policy = s.policy;
      tft.upload_capacity = cfg.upload_capacity;
      tft.download_capacity = cfg.download_capacity;
      b.scheduler = std::make_unique<TitForTatScheduler>(build_overlay(s, seed), tft, sched_rng);
      break;
    }
    case Algo::kStripedTrees:
      b.scheduler = std::make_unique<StripedTreesScheduler>(n, k, s.stripes);
      break;
  }
  return b;
}

std::shared_ptr<const Overlay> build_overlay(const RunSpec& s, std::uint64_t seed) {
  Rng overlay_rng = Rng(seed).split(0);
  return make_overlay(s.overlay, s.n, s.degree, s.arity, overlay_rng);
}

std::shared_ptr<const Topology> build_topology(const RunSpec& s, std::uint64_t seed) {
  if (!overlay_bound(s.algo)) return std::make_shared<Topology>(Topology::complete(s.n));
  Rng overlay_rng = Rng(seed).split(0);
  return make_topology(s.overlay, s.n, s.degree, s.arity, overlay_rng);
}

ScaleOptions build_scale_options(const RunSpec& s) {
  ScaleOptions opt;
  opt.policy = s.policy;
  opt.max_probes = s.probes;
  const bool randomized = s.algo == Algo::kRandomized || s.algo == Algo::kCreditRandomized;
  const bool credit = randomized && s.mechanism == MechanismKind::kCredit;
  const bool triangular =
      s.algo == Algo::kBinomialPipeline && s.mechanism == MechanismKind::kTriangular;
  const bool strict_riffle = s.algo == Algo::kRiffle && s.mechanism == MechanismKind::kStrict;
  if (s.mechanism != MechanismKind::kNone && !credit && !triangular && !strict_riffle) {
    throw std::invalid_argument(
        "the scale engine enforces --mechanism=credit under a randomized --algo, "
        "--mechanism=triangular under binomial-pipeline and --mechanism=strict under "
        "riffle, no other");
  }
  // The riffle is strict barter by construction and keeps no credit ledger.
  if (s.algo == Algo::kCreditRandomized || credit || triangular) opt.credit_limit = s.credit;
  switch (s.algo) {
    case Algo::kRandomized:
    case Algo::kCreditRandomized: break;
    case Algo::kBinomialPipeline:
      opt.scheduler = triangular ? SchedKind::kTriangularBarter : SchedKind::kBinomialPipeline;
      break;
    case Algo::kRiffle: opt.scheduler = SchedKind::kRifflePipeline; break;
    default:
      throw std::invalid_argument(
          std::string("the scale engine runs --algo=randomized|credit-randomized|"
                      "binomial-pipeline|riffle, not ") +
          to_string(s.algo));
  }
  return opt;
}

stream::StreamSpec build_stream_spec(const RunSpec& s, std::uint64_t seed) {
  if (s.algo != Algo::kRandomized ||
      (s.mechanism != MechanismKind::kNone && s.mechanism != MechanismKind::kCredit)) {
    throw std::invalid_argument(
        "the stream engine runs --algo=randomized under --mechanism=none|credit");
  }
  stream::StreamSpec spec;
  spec.config = build_config(s);
  spec.topology = build_topology(s, seed);
  spec.options = build_scale_options(s);
  spec.seed = seed;
  spec.workload = {.arrivals = s.arrivals,
                   .mean_gap16 = s.gap16,
                   .flash_start = s.flash_start,
                   .flash_width = s.flash_width,
                   .flash_pct = s.flash_pct,
                   .burst_period = s.burst_period,
                   .burst_size = s.burst_size,
                   .rate_classes = {},
                   .rate_changes = s.churn,
                   .rate_change_horizon = s.horizon};
  // Class i of N: weight N - i, upload 1 + i, download unlimited for the
  // first class and 2 (1 + i) after it (down >= up, the model rule).
  for (std::uint32_t i = 0; i < s.classes; ++i) {
    spec.workload.rate_classes.push_back(
        {s.classes - i, 1 + i, i == 0 ? kUnlimited : 2 * (1 + i)});
  }
  spec.demand = {.window = s.window,
                 .startup_blocks = s.startup,
                 .interval = s.interval,
                 .deadlines = s.deadlines,
                 .deadline_slack = s.slack};
  return spec;
}

}  // namespace pob::scale
