#include "pob/scale/stream/workload.h"

#include <algorithm>
#include <stdexcept>

#include "pob/core/rng.h"
#include "pob/exp/parallel.h"

namespace pob::scale::stream {

const char* arrival_pattern_name(ArrivalPattern pattern) {
  switch (pattern) {
    case ArrivalPattern::kAllAtStart: return "all-at-start";
    case ArrivalPattern::kPoisson: return "poisson";
    case ArrivalPattern::kFlashCrowd: return "flash-crowd";
    case ArrivalPattern::kBurst: return "burst";
  }
  return "?";
}

namespace {

// Geometric gap in 1/16-tick subticks with success probability
// 1 / mean_gap16 per subtick — integer compare against a fixed-point
// threshold, no floating point, so the draw sequence is platform-exact.
// Capped at 64x the mean (the cap truncates a ~e^-64 tail).
std::uint64_t geometric_gap16(Rng& rng, std::uint32_t mean_gap16) {
  const std::uint64_t threshold = ~std::uint64_t{0} / mean_gap16;
  const std::uint64_t cap = std::uint64_t{64} * mean_gap16;
  std::uint64_t gap = 0;
  while (gap < cap && rng.next() >= threshold) ++gap;
  return gap;
}

}  // namespace

WorkloadPlan build_workload(const StreamWorkload& workload, const EngineConfig& config,
                            std::uint64_t seed) {
  const std::uint32_t n = config.num_nodes;
  if (n < 2) throw std::invalid_argument("stream workload: num_nodes < 2");

  WorkloadPlan plan;
  plan.arrival.assign(n, 0);

  // Distinct derived streams per concern, so adding rate churn cannot
  // perturb the arrival pattern and vice versa.
  Rng arrival_rng(trial_seed(seed, 0));
  Rng class_rng(trial_seed(seed, 1));
  Rng churn_rng(trial_seed(seed, 2));

  switch (workload.arrivals) {
    case ArrivalPattern::kAllAtStart:
      break;
    case ArrivalPattern::kPoisson: {
      if (workload.mean_gap16 == 0) {
        throw std::invalid_argument("stream workload: mean_gap16 == 0");
      }
      std::uint64_t subtick = 16;  // client 1's baseline: tick 1
      for (NodeId c = 1; c < n; ++c) {
        subtick += geometric_gap16(arrival_rng, workload.mean_gap16);
        plan.arrival[c] = static_cast<Tick>(subtick / 16);
      }
      break;
    }
    case ArrivalPattern::kFlashCrowd: {
      if (workload.flash_width == 0 || workload.flash_pct > 100 ||
          workload.flash_start < 1) {
        throw std::invalid_argument("stream workload: malformed flash crowd");
      }
      const Tick background =
          workload.flash_start + 4 * static_cast<Tick>(workload.flash_width);
      for (NodeId c = 1; c < n; ++c) {
        if (arrival_rng.below(100) < workload.flash_pct) {
          plan.arrival[c] = workload.flash_start + arrival_rng.below(workload.flash_width);
        } else {
          plan.arrival[c] = 1 + arrival_rng.below(background);
        }
      }
      break;
    }
    case ArrivalPattern::kBurst: {
      if (workload.burst_size == 0 || workload.burst_period == 0) {
        throw std::invalid_argument("stream workload: malformed burst");
      }
      for (NodeId c = 1; c < n; ++c) {
        plan.arrival[c] =
            1 + ((c - 1) / workload.burst_size) * workload.burst_period;
      }
      break;
    }
  }
  for (NodeId c = 1; c < n; ++c) {
    if (plan.arrival[c] >= 1) {
      plan.events.push_back(
          {plan.arrival[c], c, EventKind::kArrive, 0, 0, kNoBlock});
      ++plan.pending_arrivals;
      plan.last_arrival = std::max(plan.last_arrival, plan.arrival[c]);
    }
  }

  if (!workload.rate_classes.empty()) {
    std::uint64_t total_weight = 0;
    for (const RateClass& rc : workload.rate_classes) {
      if (rc.up == 0 && rc.down == 0) {
        throw std::invalid_argument("stream workload: zero-capacity class");
      }
      if (rc.down != kUnlimited && rc.down < rc.up) {
        throw std::invalid_argument("stream workload: class with down < up");
      }
      if (rc.down == 0) {
        throw std::invalid_argument("stream workload: class with down == 0");
      }
      total_weight += rc.weight;
    }
    if (total_weight == 0) {
      throw std::invalid_argument("stream workload: class weights sum to 0");
    }
    const auto draw_class = [&](Rng& rng) -> const RateClass& {
      std::uint64_t r = rng.next() % total_weight;
      for (const RateClass& rc : workload.rate_classes) {
        if (r < rc.weight) return rc;
        r -= rc.weight;
      }
      return workload.rate_classes.back();  // unreachable
    };
    plan.initial_up.assign(n, 0);
    plan.initial_down.assign(n, 0);
    // Not config.upload_cap(kServer): rate classes replace the per-node
    // vectors for every node, so the server keeps the scalar rule even when
    // upload_capacities is set.
    const std::uint32_t server_up = config.server_upload_capacity != 0
                                        ? config.server_upload_capacity
                                        : config.upload_capacity;
    plan.initial_up[kServer] = server_up;
    plan.initial_down[kServer] = kUnlimited;
    for (NodeId c = 1; c < n; ++c) {
      const RateClass& rc = draw_class(class_rng);
      plan.initial_up[c] = rc.up;
      plan.initial_down[c] = rc.down;
    }
    if (workload.rate_changes != 0) {
      if (workload.rate_change_horizon < 1) {
        throw std::invalid_argument("stream workload: rate_change_horizon < 1");
      }
      for (std::uint32_t i = 0; i < workload.rate_changes; ++i) {
        const Tick t = 1 + churn_rng.below(workload.rate_change_horizon);
        const NodeId c = 1 + churn_rng.below(n - 1);
        const RateClass& rc = draw_class(churn_rng);
        plan.events.push_back({t, c, EventKind::kRate, rc.up, rc.down, kNoBlock});
      }
    }
  } else if (workload.rate_changes != 0) {
    throw std::invalid_argument("stream workload: rate_changes without rate_classes");
  }

  return plan;
}

}  // namespace pob::scale::stream
