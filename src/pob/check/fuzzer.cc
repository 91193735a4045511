#include "pob/check/fuzzer.h"

#include <algorithm>

#include "pob/exp/parallel.h"
#include "pob/exp/sweep.h"

namespace pob::check {
namespace {

constexpr std::uint32_t kMaxReportedFailures = 32;
constexpr std::uint32_t kMinimizeBudget = 400;  // scenario runs, not mutations

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

FuzzReport fuzz_many(std::uint64_t base_seed, std::uint32_t budget, unsigned jobs,
                     FaultKind fault, std::optional<scale::RunEngine> engine) {
  FuzzReport report;
  report.budget = budget;
  if (budget == 0) return report;

  // Index-addressed slots: each trial writes only its own entry, and all
  // aggregation below happens serially in index order, so the report is
  // bit-identical at any job count.
  std::vector<Scenario> scenarios(budget);
  std::vector<ScenarioOutcome> outcomes(budget);
  const auto trial = [&](std::uint32_t i) {
    Scenario sc = sample_scenario(base_seed, i);
    sc.fault = fault;
    if (engine) {
      scale::RunSpec& s = sc.spec;
      if (*engine == scale::RunEngine::kStream && s.engine != *engine) {
        // The sampler did not take the stream branch for this index, so its
        // stream draws are still defaults; take them from the run seed so a
        // forced stream run sweeps the pattern space too.
        const std::uint64_t seed = s.seed;
        s.arrivals = static_cast<scale::stream::ArrivalPattern>(seed % 4);
        s.classes =
            (seed >> 2) % 2 == 0 ? 0 : 2 + static_cast<std::uint32_t>((seed >> 3) % 2);
        s.churn = static_cast<std::uint32_t>((seed >> 5) % 9);
        s.window =
            (seed >> 8) % 2 == 0 ? 0 : 1 + static_cast<std::uint32_t>((seed >> 9) % 8);
        s.startup = 1 + static_cast<std::uint32_t>((seed >> 13) % 4);
        s.interval = 1 + static_cast<Tick>((seed >> 15) % 2);
        s.deadlines = ((seed >> 16) & 1) != 0;
      }
      s.engine = *engine;
      // Mirror-affordable.
      if (s.engine == scale::RunEngine::kStream && s.n > 512) s.n = 4 + s.n % 509;
      sanitize(sc);  // the forced engine has its own legal space
    }
    scenarios[i] = sc;
    outcomes[i] = run_scenario(sc);
    TrialOutcome out;
    out.completed = outcomes[i].ok;
    out.completion = 1.0;
    out.mean_completion = 1.0;
    return out;
  };
  repeat_trials_parallel(budget, jobs, trial);

  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (std::uint32_t i = 0; i < budget; ++i) {
    digest = fnv1a(digest, scenarios[i].describe());
    digest = fnv1a(digest, outcomes[i].ok ? "ok" : outcomes[i].diagnosis);
    if (!outcomes[i].ok) {
      ++report.failed;
      if (report.failures.size() < kMaxReportedFailures) {
        report.failures.push_back({i, scenarios[i], outcomes[i].diagnosis});
      }
    }
  }
  report.stream_digest = digest;
  return report;
}

MinimizedScenario minimize(const Scenario& failing) {
  MinimizedScenario m;
  m.scenario = failing;
  m.diagnosis = run_scenario(failing).diagnosis;
  ++m.steps_tried;

  // Accepts the candidate iff (after re-sanitizing) it is a genuinely new
  // scenario that still fails.
  const auto still_fails = [&](Scenario cand) {
    sanitize(cand);
    if (cand.describe() == m.scenario.describe()) return false;
    if (m.steps_tried >= kMinimizeBudget) return false;
    ++m.steps_tried;
    const ScenarioOutcome out = run_scenario(cand);
    if (out.ok) return false;
    m.scenario = cand;
    m.diagnosis = out.diagnosis;
    return true;
  };

  bool progress = true;
  while (progress && m.steps_tried < kMinimizeBudget) {
    progress = false;

    // Structural simplifications first: each one that sticks removes a whole
    // dimension from the search the numeric shrinks below have to do.
    {
      Scenario c = m.scenario;
      c.departures.clear();
      c.depart_on_complete = false;
      c.drop_on_churn = false;
      if (still_fails(c)) progress = true;
    }
    while (!m.scenario.departures.empty()) {
      Scenario c = m.scenario;
      c.departures.pop_back();
      if (!still_fails(c)) break;
      progress = true;
    }
    {
      Scenario c = m.scenario;
      c.upload_caps.clear();
      c.download_caps.clear();
      if (still_fails(c)) progress = true;
    }
    // Stream axis: strip one feature at a time (deadlines, sequential
    // window, rate churn, classes, the arrival pattern) before trying to
    // leave the stream layer entirely.
    if (m.scenario.spec.engine == scale::RunEngine::kStream) {
      for (const auto mutate : {
               +[](scale::RunSpec& c) { c.deadlines = false; },
               +[](scale::RunSpec& c) { c.window = 0; },
               +[](scale::RunSpec& c) { c.churn = 0; },
               +[](scale::RunSpec& c) { c.classes = 0; },
               +[](scale::RunSpec& c) {
                 c.arrivals = scale::stream::ArrivalPattern::kAllAtStart;
               },
               +[](scale::RunSpec& c) { c.engine = scale::RunEngine::kScale; },
           }) {
        Scenario c = m.scenario;
        mutate(c.spec);
        if (still_fails(c)) progress = true;
      }
    }
    if (m.scenario.spec.overlay != OverlayKind::kComplete) {
      Scenario c = m.scenario;
      c.spec.overlay = OverlayKind::kComplete;
      if (still_fails(c)) progress = true;
    }
    if (m.scenario.spec.mechanism != scale::MechanismKind::kNone) {
      Scenario c = m.scenario;
      c.spec.mechanism = scale::MechanismKind::kNone;
      if (still_fails(c)) progress = true;
    }
    {
      Scenario c = m.scenario;
      c.spec.download = kUnlimited;
      if (still_fails(c)) progress = true;
    }
    {
      Scenario c = m.scenario;
      c.spec.upload = 1;
      c.spec.servers = 0;
      if (still_fails(c)) progress = true;
    }

    // Numeric shrinks: halve toward the floor, then single steps.
    while (m.scenario.spec.n > 2) {
      Scenario c = m.scenario;
      c.spec.n = std::max(2u, c.spec.n / 2);
      if (!still_fails(c)) break;
      progress = true;
    }
    while (m.scenario.spec.n > 2) {
      Scenario c = m.scenario;
      --c.spec.n;
      if (!still_fails(c)) break;
      progress = true;
    }
    while (m.scenario.spec.k > 1) {
      Scenario c = m.scenario;
      c.spec.k = std::max(1u, c.spec.k / 2);
      if (!still_fails(c)) break;
      progress = true;
    }
    while (m.scenario.spec.k > 1) {
      Scenario c = m.scenario;
      --c.spec.k;
      if (!still_fails(c)) break;
      progress = true;
    }
    for (auto dim : {&scale::RunSpec::arity, &scale::RunSpec::stripes,
                     &scale::RunSpec::servers, &scale::RunSpec::degree}) {
      while (m.scenario.spec.*dim > 2) {
        Scenario c = m.scenario;
        --(c.spec.*dim);
        if (!still_fails(c)) break;
        progress = true;
      }
    }
    while (m.scenario.spec.period > 2) {
      Scenario c = m.scenario;
      c.spec.period /= 2;
      if (!still_fails(c)) break;
      progress = true;
    }
  }
  return m;
}

}  // namespace pob::check
