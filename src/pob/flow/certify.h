// certify_completion_bound: a certified lower bound T* on the completion
// time of *any* legal schedule for a concrete scenario (config + overlay +
// mechanism family). Soundness contract: T* <= the completion tick of every
// schedule the engines accept — the fuzzer enforces this against all three
// engines on every scenario it generates.
//
// T* is the max of independently sound components (DESIGN.md §9 carries the
// arguments):
//   - last_block_bound: at most server_up blocks can first leave the server
//     per tick, and copies of the last-released block at most multiply by
//     (1 + max client upload) per tick — Theorem 1's argument, generalized;
//     exactly k - 1 + ceil(log2 n) at unit capacities.
//   - ramp_bound: cumulative upload capacity of the nodes that could
//     possibly hold a block yet (greedy highest-capacity infection
//     envelope) must cover all demand_clients * k receptions.
//   - pipe_bound: a client at BFS distance h whose inflow is capped at r
//     cannot finish before h - 1 + ceil(k / r).
//   - flow_bound: the max-flow-over-time component — the least horizon at
//     which the time-expanded relaxation routes k units to each of the
//     worst sink clients, computed exactly by one quickest-flow solve per
//     sink on the static overlay (flow/time_expanded.h). Skipped on
//     complete topologies (the counting components are exact there) and
//     when the unrolled graph would exceed the arc budget.
//   - seed_bound / strict_ramp_bound (strict barter only): first blocks
//     come only from the server, and client-client transfers pair up —
//     Theorem 2's two regimes, generalized to arbitrary (u, d, server_up).

#pragma once

#include <cstdint>

#include "pob/core/engine.h"
#include "pob/core/types.h"
#include "pob/flow/time_expanded.h"
#include "pob/scale/topology.h"

namespace pob::flow {

struct CertifyOptions {
  /// Worst clients (by pipe score) whose least feasible horizon is solved.
  std::uint32_t max_flow_sinks = 4;
  /// Skip the flow component when the time-expanded graph unrolled to the
  /// search ceiling would exceed this many arcs. The solver never unrolls;
  /// the gate keeps that arc count so the scenarios that evaluate the flow
  /// component stay the same (the counting components still apply — the
  /// bound just loses the topology-aware refinement).
  std::uint64_t flow_arc_budget = 4'000'000;
  /// Absolute ceiling any component is clamped to (guards zero-capacity and
  /// disconnected scenarios where the true bound is "never").
  Tick horizon_cap = 1u << 20;
};

struct CompletionCertificate {
  Tick lower_bound = 0;        ///< T*: the max of every component below
  Tick last_block_bound = 0;   ///< per-block release + copy doubling
  Tick ramp_bound = 0;         ///< aggregate capability ramp
  Tick pipe_bound = 0;         ///< per-client distance / inflow counting
  Tick flow_bound = 0;         ///< time-expanded max-flow (0 when skipped)
  Tick seed_bound = 0;         ///< strict barter: server seeding (0 otherwise)
  Tick strict_ramp_bound = 0;  ///< strict barter: pairing ramp (0 otherwise)
  NodeId pipe_client = kNoNode;  ///< argmax client of pipe_bound
  NodeId flow_client = kNoNode;  ///< argmax client of flow_bound
  bool flow_evaluated = false;   ///< flow component actually ran
  std::uint32_t demand_clients = 0;  ///< clients that must complete
};

/// Certifies the scenario. A config with no demand clients (every client
/// departs) certifies trivially at 0. The topology must describe the edges
/// schedules may actually use — pass the complete topology for schedulers
/// that ignore their overlay.
CompletionCertificate certify_completion_bound(const EngineConfig& config,
                                               const scale::Topology& topology,
                                               BarterModel mechanism,
                                               const CertifyOptions& options = {});

/// simulated / certified — the certified price ratio (0 when either is 0).
double certified_price(Tick simulated, Tick certified);

}  // namespace pob::flow
