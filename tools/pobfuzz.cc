// pobfuzz: deterministic scenario fuzzing against the differential oracle.
//
//   pobfuzz --seed=42 --budget=2000 --jobs=8
//       Run 2000 sampled scenarios through the fast engine and the reference
//       engine, failing on any disagreement or paper-invariant violation.
//       Output on stdout is identical at any --jobs value (timing goes to
//       stderr); exit status 1 when any scenario fails.
//
//   pobfuzz ... --minimize
//       Additionally shrink the first failure to a (locally) minimal repro
//       and print it as a ready-to-paste gtest case.
//
//   pobfuzz ... --break=same-tick-forward
//       Inject the off-by-one forwarding fault into every scenario's
//       scheduler — a self-test that the oracle actually catches bugs.
//
//   pobfuzz ... --engine=core|scale|stream|mixed
//       Restrict which engine the scenarios run on. `scale` forces every
//       scenario through the mega-swarm engine (serial vs threaded vs
//       core-mirrored cross-check); `stream` forces the hybrid tick+event
//       layer (arrivals, rate churn, playback demand, async-mirrored);
//       default `mixed` is the sampler's blend.
//
//   pobfuzz --write-corpus=tests/check/corpus
//       Regenerate the golden trace corpus in place.

#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "pob/check/async_check.h"
#include "pob/check/corpus.h"
#include "pob/check/fuzzer.h"
#include "pob/exp/cli.h"
#include "pob/exp/parallel.h"

namespace {

using namespace pob;
using namespace pob::check;

int write_corpus(const std::string& dir) {
  for (const CorpusEntry& entry : golden_corpus()) {
    const std::string path = dir + "/" + entry.filename;
    std::ofstream os(path, std::ios::binary);
    if (!os) {
      std::cerr << "pobfuzz: cannot write " << path << "\n";
      return 1;
    }
    os << render_corpus_entry(entry);
    std::cout << "wrote " << path << "\n";
  }
  const AsyncGolden async = async_golden();
  if (const auto err = check_async_log(async.config, async.result)) {
    std::cerr << "pobfuzz: async golden is itself illegal: " << *err << "\n";
    return 1;
  }
  const std::string path = dir + "/" + async.filename;
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    std::cerr << "pobfuzz: cannot write " << path << "\n";
    return 1;
  }
  os << async.text;
  std::cout << "wrote " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv);
    const std::string corpus_dir = args.get_string("write-corpus", "");
    const std::uint64_t seed = args.get_u64("seed", 1);
    const std::uint32_t budget = args.get_u32("budget", 1000);
    const unsigned jobs = jobs_from_flag(args.get_int("jobs", 0));
    const bool minimize_first = args.has("minimize");
    const std::string broken = args.get_string("break", "");
    const std::string engine = args.get_string("engine", "mixed");
    args.reject_unknown();
    if (!corpus_dir.empty()) return write_corpus(corpus_dir);

    FaultKind fault = FaultKind::kNone;
    if (broken == "same-tick-forward") {
      fault = FaultKind::kSameTickForward;
    } else if (!broken.empty()) {
      std::cerr << "pobfuzz: unknown --break=" << broken
                << " (known: same-tick-forward)\n";
      return 2;
    }
    std::optional<scale::RunEngine> engines;  // mixed
    for (const auto e : {scale::RunEngine::kCore, scale::RunEngine::kScale,
                         scale::RunEngine::kStream}) {
      if (engine == scale::to_string(e)) engines = e;
    }
    if (!engines && engine != "mixed") {
      std::cerr << "pobfuzz: unknown --engine=" << engine
                << " (known: core, scale, stream, mixed)\n";
      return 2;
    }

    const auto t0 = std::chrono::steady_clock::now();
    const FuzzReport report = fuzz_many(seed, budget, jobs, fault, engines);
    const auto elapsed = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0);

    std::cout << "pobfuzz seed=" << seed << " budget=" << report.budget
              << " failed=" << report.failed << " digest=" << std::hex
              << report.stream_digest << std::dec << "\n";
    std::cerr << "elapsed " << elapsed.count() << "s at jobs="
              << (jobs == 0 ? default_jobs() : jobs) << "\n";

    for (const FuzzFailure& f : report.failures) {
      std::cout << "FAIL #" << f.index << " " << f.scenario.describe() << "\n"
                << "  " << f.diagnosis << "\n";
    }
    if (report.failed > report.failures.size()) {
      std::cout << "(" << (report.failed - report.failures.size())
                << " more failures not shown)\n";
    }

    if (report.failed != 0 && minimize_first) {
      const MinimizedScenario min = minimize(report.failures.front().scenario);
      std::cout << "\nminimized after " << min.steps_tried << " runs to: "
                << min.scenario.describe() << "\n"
                << "  " << min.diagnosis << "\n\n"
                << min.scenario.to_gtest(min.diagnosis);
    }
    return report.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "pobfuzz: " << e.what() << "\n";
    return 2;
  }
}
