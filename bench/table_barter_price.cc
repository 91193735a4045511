// E8 / E26 — Theorems 2-3 and the price of barter, with certificates.
//
// For a grid of (n, k): the strict-barter Riffle Pipeline's measured
// completion time (validated against the StrictBarter mechanism on every
// tick), Theorem 2's lower bounds, the cooperative optimum, and the
// resulting price-of-barter ratio. Expected shape: riffle tracks n + k - 2
// (exact when k is a multiple of n - 1), so the ratio approaches
// (n + k) / (k + log n) — about 2 when k ~ n, vanishing for k >> n.
//
// E26 adds the pob/flow certificate next to each closed form: coop-T* is the
// cooperative-model oracle bound and price-cert the measured price against
// it, side by side with the Theorem 1 closed form (the two columns agree on
// the complete graph — the oracle reproduces the paper); strict-T* is the
// strict-model bound the riffle run itself can never beat. --json emits the
// certified_* fields for the largest grid cell.

#include <iostream>

#include "bench_util.h"
#include "pob/analysis/bounds.h"
#include "pob/exp/report.h"
#include "pob/flow/certify.h"
#include "pob/mech/barter.h"
#include "pob/sched/binomial_pipeline.h"
#include "pob/sched/riffle_pipeline.h"

namespace pob::bench {
namespace {

int main_impl(int argc, char** argv) {
  const Args args(argc, argv);
  std::vector<std::int64_t> ns = args.get_int_list("n", {16, 64, 256, 1000});
  std::vector<std::int64_t> ks = args.get_int_list("k", {15, 63, 255, 999, 4095});

  Table table({"n", "k", "riffle-T", "thm2-bound", "strict-T*", "coop-optimal",
               "coop-T*", "price-closed", "price-cert", "riffle/bound"});
  Tick last_cert = 0;
  double last_price_cert = 0.0;
  bool cert_matches_closed_form = true;
  for (const std::int64_t n64 : ns) {
    for (const std::int64_t k64 : ks) {
      const auto n = static_cast<std::uint32_t>(n64);
      const auto k = static_cast<std::uint32_t>(k64);
      EngineConfig cfg;
      cfg.num_nodes = n;
      cfg.num_blocks = k;
      cfg.download_capacity = 2;  // Theorem 3's d >= 2u
      RifflePipelineScheduler riffle(n, k, 1, 2);
      StrictBarter mech;
      const RunResult r = run(cfg, riffle, &mech);
      if (!r.completed) throw std::logic_error("riffle did not complete");
      const Tick bound = strict_barter_lower_bound_equal_bw(n, k);
      const Tick coop = cooperative_lower_bound(n, k);
      const scale::Topology topo = scale::Topology::complete(n);
      const flow::CompletionCertificate coop_cert =
          flow::certify_completion_bound(cfg, topo, flow::BarterModel::kCooperative);
      const flow::CompletionCertificate strict_cert =
          flow::certify_completion_bound(cfg, topo, flow::BarterModel::kStrictBarter);
      const double price_cert =
          flow::certified_price(r.completion_tick, coop_cert.lower_bound);
      last_cert = coop_cert.lower_bound;
      last_price_cert = price_cert;
      cert_matches_closed_form &= coop_cert.lower_bound == coop;
      table.add_row(
          {std::to_string(n), std::to_string(k), std::to_string(r.completion_tick),
           std::to_string(bound), std::to_string(strict_cert.lower_bound),
           std::to_string(coop), std::to_string(coop_cert.lower_bound),
           fmt(static_cast<double>(r.completion_tick) / static_cast<double>(coop), 3),
           fmt(price_cert, 3),
           fmt(static_cast<double>(r.completion_tick) / static_cast<double>(bound), 3)});
    }
  }
  std::cout << "# E8/E26: strict-barter riffle pipeline vs Theorem 2 bounds, the "
               "cooperative optimum, and the pob/flow certificates (u = 1, d = 2)\n";
  emit(args, table);

  JsonReport json;
  json.str("bench", "table_barter_price")
      .count("cells", ns.size() * ks.size())
      .flag("certificate_matches_closed_form", cert_matches_closed_form)
      .certified(last_cert, last_price_cert);
  if (!json.write(args)) return 1;
  return 0;
}

}  // namespace
}  // namespace pob::bench

int main(int argc, char** argv) { return pob::bench::main_impl(argc, argv); }
