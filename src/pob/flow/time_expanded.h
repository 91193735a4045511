// Time-expanded flow graphs over a swarm scenario: one node-copy per tick,
// upload/download-capacity port arcs, per-block source arcs encoding the
// server's release schedule, and (optionally) barter-coupling arcs for the
// strict mechanism. Feasibility of k units from the source to a client's
// copy at horizon T is a *necessary* condition for that client to hold all
// k blocks by tick T under any legal schedule — the soundness argument is
// in DESIGN.md §9 (distinct blocks reach a fixed sink along transfer-
// disjoint, time-respecting paths, so a legal schedule induces a feasible
// integral flow).
//
// The certifier does not unroll: `quickest_horizon` answers "the least
// horizon at which k units reach this client" with one successive-shortest-
// path solve on the static overlay (Ford & Fulkerson's temporally repeated
// flows; DESIGN.md §9 carries the exactness argument). The unrolled graph
// and `horizon_feasible` stay as the reference oracle that the quickest
// flow is tested against.
//
// The same capacity-port construction, restricted to a single tick, yields
// the per-tick feasibility predicate `tick_flow_feasible`: is a planned
// transfer set realizable under the per-node upload/download caps and the
// overlay adjacency? The differential oracle uses it as an independent
// (bipartite-matching-flavored) check on recorded traces.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pob/core/engine.h"
#include "pob/core/types.h"
#include "pob/flow/maxflow.h"
#include "pob/scale/topology.h"

namespace pob::flow {

/// Which mechanism family the certificate must hold against. Credit-limited
/// and cyclic-barter runs permit client seeding (credit covers a first
/// block), so they certify against the cooperative relaxation; only strict
/// barter admits the stronger coupling arcs and counting components.
enum class BarterModel : std::uint8_t { kCooperative, kStrictBarter };

/// Per-node capacities and the demand set, resolved from an EngineConfig
/// with the engine's precedence rules (per-node vectors beat scalars,
/// server_upload_capacity = 0 means "same as upload"). Departing clients
/// are excluded from demand — they need not complete — while their
/// capacities stay counted forever, which only over-estimates what any real
/// schedule has available and keeps every bound a lower bound.
struct CapacityShape {
  std::uint32_t n = 0;
  std::uint32_t k = 0;
  std::uint64_t server_up = 0;
  std::vector<std::uint64_t> up;    ///< effective upload cap per node
  std::vector<std::uint64_t> down;  ///< effective download cap per node
  std::vector<char> demand;         ///< [i] != 0: client i must complete
  std::uint32_t demand_clients = 0;

  static CapacityShape from_config(const EngineConfig& config);
};

struct TimeExpandedGraph {
  FlowNetwork net{0};
  std::uint32_t source = 0;
  std::uint32_t sink = 0;
  std::int64_t demand = 0;  ///< flow value required for feasibility (= k)
};

/// Arc count the unrolled graph would have — O(1), for budget gating before
/// committing to a build (complete topologies at mega-swarm n would unroll
/// to n^2 arcs per tick; callers skip the flow component instead).
std::uint64_t time_expanded_arc_count(const CapacityShape& shape,
                                      const scale::Topology& topology,
                                      Tick horizon, BarterModel model);

/// Unrolls the scenario to `horizon` ticks with `sink_client`'s final copy
/// as the sink. Upload arcs carry unit cost (so min_cost_max_flow over the
/// result reports the minimum transfer volume serving the sink); all other
/// arcs are free.
TimeExpandedGraph build_time_expanded(const CapacityShape& shape,
                                      const scale::Topology& topology,
                                      Tick horizon, NodeId sink_client,
                                      BarterModel model);

/// Can `sink_client` hold all k blocks by `horizon` under the relaxation?
/// False certifies that no legal schedule completes that client by then.
bool horizon_feasible(const CapacityShape& shape, const scale::Topology& topology,
                      Tick horizon, NodeId sink_client, BarterModel model);

/// quickest_horizon's answer when no horizon is feasible.
inline constexpr std::uint64_t kNeverFeasible = ~0ull;

/// The least horizon T at which horizon_feasible(T) holds for `sink_client`,
/// or kNeverFeasible. One min-cost flow on the static overlay (state, upload,
/// download and, under strict barter, coupling port per node; transit time 1
/// per upload hop) instead of a search over unrolled graphs.
std::uint64_t quickest_horizon(const CapacityShape& shape, const scale::Topology& topology,
                               NodeId sink_client, BarterModel model);

/// The per-tick differential-oracle predicate: checks one tick's transfer
/// set against overlay adjacency and per-node capacities by solving the
/// induced bipartite flow (senders' upload ports -> receivers' download
/// ports) and requiring every transfer to route. Returns a diagnosis on
/// infeasibility, std::nullopt when the tick is realizable. Possession and
/// mechanism legality are the engines' job, not this predicate's.
std::optional<std::string> tick_flow_feasible(const CapacityShape& shape,
                                              const scale::Topology& topology,
                                              const std::vector<Transfer>& transfers);

}  // namespace pob::flow
