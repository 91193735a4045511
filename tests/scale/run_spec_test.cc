// RunSpec: the one flag parser, printer and builder set behind pobsim and
// the fuzzer. parse(to_flags(s)) == s over the whole enum grid, the core and
// scale builders walk identical neighbour lists, the defaults are pinned,
// and the prechecked core schedules run the spec's mechanism.

#include "pob/scale/run_spec.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "pob/check/oracle.h"
#include "pob/exp/parallel.h"

namespace pob::scale {
namespace {

/// The core engine's run 0 of `flags`, as pobsim runs it.
std::uint64_t core_digest(const std::string& flags) {
  const RunSpec s = parse_run_spec(flags);
  const EngineConfig cfg = build_config(s);
  const BuiltScheduler b = build_scheduler(s, cfg, run_seed(s, 0));
  return check::run_result_digest(run(cfg, *b.scheduler, b.mechanism.get()));
}

std::string parse_error(const std::string& flags) {
  try {
    parse_run_spec(flags);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(RunSpec, ParseOfToFlagsRoundTripsOverTheEnumGrid) {
  std::uint32_t i = 0;
  for (unsigned e = 0; e < 3; ++e) {
    for (unsigned a = 0; a < 11; ++a) {
      for (unsigned o = 0; o < 5; ++o) {
        for (unsigned m = 0; m < 5; ++m) {
          for (unsigned p = 0; p < 4; ++p, ++i) {
            RunSpec s;
            s.engine = static_cast<RunEngine>(e);
            s.algo = static_cast<Algo>(a);
            s.overlay = static_cast<OverlayKind>(o);
            s.mechanism = static_cast<MechanismKind>(m);
            s.arrivals = static_cast<stream::ArrivalPattern>(p);
            // Vary the scalars that have a special spelling too.
            s.download = i % 2 == 0 ? kUnlimited : 1 + i % 5;
            s.leave_pct = (i % 7) * 12.5 + 0.1;
            s.deadlines = i % 3 == 0;
            s.policy = i % 2 == 0 ? BlockPolicy::kRandom : BlockPolicy::kRarestFirst;
            s.seed = i % 4 == 0 ? ~std::uint64_t{0} : trial_seed(i, 0);
            s.n = 2 + i;
            ASSERT_EQ(parse_run_spec(to_flags(s)), s) << to_flags(s);
          }
        }
      }
    }
  }
}

TEST(RunSpec, CoreOverlayAndScaleTopologyWalkIdenticalNeighbourLists) {
  for (const OverlayKind kind : {OverlayKind::kRegular, OverlayKind::kHypercube,
                                 OverlayKind::kRing, OverlayKind::kKaryTree}) {
    RunSpec s;
    s.overlay = kind;
    s.n = 200;
    s.degree = 6;
    s.arity = 3;
    const std::uint64_t seed = run_seed(s, 0);
    const std::shared_ptr<const Overlay> core = build_overlay(s, seed);
    const std::shared_ptr<const Topology> topo = build_topology(s, seed);
    ASSERT_EQ(core->num_nodes(), topo->num_nodes());
    ASSERT_FALSE(topo->is_complete()) << to_string(kind);
    for (NodeId u = 0; u < s.n; ++u) {
      ASSERT_EQ(core->degree(u), topo->degree(u)) << to_string(kind) << " node " << u;
      for (std::uint32_t j = 0; j < core->degree(u); ++j) {
        ASSERT_EQ(core->neighbor(u, j), topo->neighbor(u, j)) << to_string(kind);
      }
    }
  }
  // A schedule that is not overlay-bound runs on the complete graph.
  RunSpec riffle;
  riffle.algo = Algo::kRiffle;
  riffle.overlay = OverlayKind::kRegular;
  EXPECT_TRUE(build_topology(riffle, run_seed(riffle, 0))->is_complete());
}

TEST(RunSpec, EachDriversDefaultSpecIsPinned) {
  EXPECT_EQ(to_flags(RunSpec{}),
            "--engine=core --algo=randomized --overlay=complete --mechanism=none "
            "--arrivals=batch --policy=random --degree=20 --arity=2 --credit=1 "
            "--cycle-len=4 --n=64 --k=32 --upload=1 --servers=0 --cap=0 --stall-window=0 "
            "--stripes=4 --period=16 --probes=16 --gap16=16 --flash-start=8 "
            "--flash-width=4 --flash-pct=90 --burst-size=64 --burst-period=4 --classes=0 "
            "--churn=0 --horizon=64 --window=0 --startup=4 --interval=1 --slack=2 "
            "--runs=1 --download=unlimited --leave-pct=0 --deadlines=false --seed=1");
  // No flags at all parse to the defaults.
  EXPECT_EQ(parse_run_spec(""), RunSpec{});
}

TEST(RunSpec, RejectsOutOfRangeIntegersByName) {
  EXPECT_NE(parse_error("--degree=-1").find("--degree=-1"), std::string::npos);
  EXPECT_NE(parse_error("--runs=-1").find("--runs"), std::string::npos);
  EXPECT_NE(parse_error("--k=4294967296").find("--k"), std::string::npos);
  EXPECT_NE(parse_error("--n=abc").find("--n=abc"), std::string::npos);
  EXPECT_NE(parse_error("--seed=-3").find("--seed"), std::string::npos);
  EXPECT_NE(parse_error("--n=1").find("--n"), std::string::npos);
  EXPECT_NE(parse_error("--k=0").find("--k"), std::string::npos);
  EXPECT_NE(parse_error("--runs=0").find("--runs"), std::string::npos);
  EXPECT_NE(parse_error("--leave-pct=101").find("--leave-pct"), std::string::npos);
  EXPECT_EQ(parse_run_spec("--degree=4294967295").degree, 4294967295u);
  EXPECT_EQ(parse_run_spec("--seed=18446744073709551615").seed,
            ~std::uint64_t{0});
}

TEST(RunSpec, RejectsUnknownValuesListingTheVocabulary) {
  EXPECT_NE(parse_error("--algo=rifle").find("riffle"), std::string::npos);
  EXPECT_NE(parse_error("--engine=gpu").find("core | scale | stream"), std::string::npos);
  EXPECT_NE(parse_error("--arrivals=flash-crowd").find("batch | poisson | flash | burst"),
            std::string::npos);
  EXPECT_NE(parse_error("--deadlines=maybe").find("--deadlines"), std::string::npos);
  EXPECT_NE(parse_error("--degre=4").find("unknown flag --degre"), std::string::npos);
}

TEST(RunSpec, BuildersRejectRunsTheirEngineCannotRepresent) {
  RunSpec tree;
  tree.algo = Algo::kTree;
  EXPECT_THROW(build_scale_options(tree), std::invalid_argument);
  RunSpec strict;
  strict.mechanism = MechanismKind::kStrict;
  EXPECT_THROW(build_scale_options(strict), std::invalid_argument);
  RunSpec riffle_credit;
  riffle_credit.algo = Algo::kRiffle;
  riffle_credit.mechanism = MechanismKind::kCredit;
  EXPECT_THROW(build_scale_options(riffle_credit), std::invalid_argument);
  riffle_credit.mechanism = MechanismKind::kStrict;  // strict barter by construction
  EXPECT_EQ(build_scale_options(riffle_credit).credit_limit, 0u);
  RunSpec randomized_triangular;
  randomized_triangular.mechanism = MechanismKind::kTriangular;
  EXPECT_THROW(build_scale_options(randomized_triangular), std::invalid_argument);
  RunSpec binomial_stream;
  binomial_stream.algo = Algo::kBinomialPipeline;
  EXPECT_THROW(build_stream_spec(binomial_stream, 1), std::invalid_argument);
}

TEST(RunSpec, PrecheckedSchedulesRunTheSpecsMechanism) {
  // The schedules that precheck a barter mechanism run the one --mechanism
  // names; credit-randomized falls back to credit, and strict is refused.
  const std::string randomized =
      "--algo=credit-randomized --overlay=regular --degree=8 --n=64 --k=32 --policy=rarest";
  EXPECT_EQ(core_digest(randomized), core_digest(randomized + " --mechanism=credit"));
  EXPECT_NE(core_digest(randomized + " --mechanism=credit"),
            core_digest(randomized + " --mechanism=cyclic"));
  const std::string rotating =
      "--algo=rotating --overlay=regular --degree=8 --n=64 --k=32 --runs=3 --policy=rarest";
  EXPECT_EQ(core_digest(rotating + " --mechanism=credit"), 0xc79ba5c4c4d4e485ULL);
  EXPECT_NE(core_digest(rotating), core_digest(rotating + " --mechanism=credit"));
  EXPECT_THROW(core_digest(randomized + " --mechanism=strict"), std::invalid_argument);
  EXPECT_THROW(core_digest(rotating + " --mechanism=strict"), std::invalid_argument);
}

TEST(RunSpec, ConfigRulesForRiffleMultiServerCreditAndTriangular) {
  RunSpec s;
  s.algo = Algo::kRiffle;
  EXPECT_EQ(build_config(s).download_capacity, 2u);  // Theorem 3's d = 2u
  s.download = 3;
  EXPECT_EQ(build_config(s).download_capacity, 3u);
  s.algo = Algo::kMultiServer;
  EXPECT_EQ(build_config(s).server_upload_capacity, 2u);
  s.servers = 4;
  EXPECT_EQ(build_config(s).server_upload_capacity, 4u);
  s.algo = Algo::kRandomized;
  EXPECT_EQ(build_scale_options(s).credit_limit, 0u);  // --credit alone is inert
  s.mechanism = MechanismKind::kCredit;
  EXPECT_EQ(build_scale_options(s).credit_limit, 1u);
  s.mechanism = MechanismKind::kNone;
  s.algo = Algo::kCreditRandomized;
  s.credit = 3;
  EXPECT_EQ(build_scale_options(s).credit_limit, 3u);
  // §3.3's triangular barter: the binomial schedule under the live ledger.
  s.algo = Algo::kBinomialPipeline;
  s.mechanism = MechanismKind::kTriangular;
  EXPECT_EQ(build_scale_options(s).scheduler, SchedKind::kTriangularBarter);
  EXPECT_EQ(build_scale_options(s).credit_limit, 3u);
}

}  // namespace
}  // namespace pob::scale
