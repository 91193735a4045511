#include "pob/flow/time_expanded.h"

#include <algorithm>
#include <sstream>

namespace pob::flow {
namespace {

/// Adjacency test against the CSR (or arithmetic-complete) topology; the
/// neighbor lists are sorted ascending, so binary search suffices.
bool has_edge(const scale::Topology& topo, NodeId u, NodeId v) {
  if (u == v) return false;
  if (topo.is_complete()) return true;
  std::uint32_t lo = 0;
  std::uint32_t hi = topo.degree(u);
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const NodeId w = topo.neighbor(u, mid);
    if (w == v) return true;
    if (w < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return false;
}

std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) { return (a + b - 1) / b; }

/// First node id of each per-node row one tick of the port construction
/// touches: node i's row entry is base + i.
struct PortLayer {
  std::uint32_t from;  ///< states uploads draw from (tick t - 1)
  std::uint32_t to;    ///< states downloads deliver into (tick t)
  std::uint32_t up;
  std::uint32_t down;
  std::uint32_t cli;   ///< strict-barter coupling ports
};

/// One tick of transfers: node i's upload port draws from its `from` state
/// (unit cost, so min-cost flow counts transfer volume; a block can be
/// forwarded only from the tick after it was received), every overlay edge
/// i -> j feeds j's download port, and the download port delivers into j's
/// `to` state. Strict barter pairs every client-client transfer with a
/// simultaneous reciprocal upload, so client-sourced receptions at j pass
/// j's coupling port, capped by j's own upload capacity too. Any capacity
/// >= k is non-binding for a k-unit flow; clamping keeps the arithmetic
/// small and kUnlimited harmless.
void add_port_layer(FlowNetwork& net, const CapacityShape& shape,
                    const scale::Topology& topology, bool strict, const PortLayer& at) {
  const std::uint32_t n = shape.n;
  const std::int64_t flow = shape.k;
  const auto cap = [&](std::uint64_t c) {
    return static_cast<std::int64_t>(std::min<std::uint64_t>(c, shape.k));
  };
  for (NodeId i = 0; i < n; ++i) {
    if (shape.up[i] > 0) net.add_arc(at.from + i, at.up + i, cap(shape.up[i]), 1);
    net.add_arc(at.down + i, at.to + i, cap(shape.down[i]));
    if (strict && i != kServer) {
      net.add_arc(at.cli + i, at.down + i, cap(std::min(shape.up[i], shape.down[i])));
    }
  }
  for (NodeId i = 0; i < n; ++i) {
    if (shape.up[i] == 0) continue;
    const std::uint32_t deg = topology.degree(i);
    for (std::uint32_t idx = 0; idx < deg; ++idx) {
      const NodeId j = topology.neighbor(i, idx);
      const std::uint32_t target =
          strict && i != kServer && j != kServer ? at.cli + j : at.down + j;
      net.add_arc(at.up + i, target, flow);
    }
  }
}

}  // namespace

CapacityShape CapacityShape::from_config(const EngineConfig& config) {
  CapacityShape shape;
  shape.n = config.num_nodes;
  shape.k = config.num_blocks;
  if (shape.n < 2 || shape.k == 0) return shape;

  shape.up.resize(shape.n);
  shape.down.resize(shape.n);
  for (std::uint32_t i = 0; i < shape.n; ++i) {
    shape.up[i] = config.upload_cap(i);
    shape.down[i] = config.download_cap(i);
  }
  shape.server_up = shape.up[kServer];

  // Demand = clients with no scheduled departure. depart_on_complete leavers
  // still must finish first, so they stay in demand; capacity contributions
  // of departed nodes are deliberately never subtracted (over-estimating
  // capacity keeps the certificate a lower bound).
  shape.demand.assign(shape.n, 1);
  shape.demand[kServer] = 0;
  for (const auto& [tick, node] : config.departures) {
    (void)tick;
    if (node < shape.n) shape.demand[node] = 0;
  }
  for (std::uint32_t i = 1; i < shape.n; ++i) {
    if (shape.demand[i]) ++shape.demand_clients;
  }
  return shape;
}

std::uint64_t time_expanded_arc_count(const CapacityShape& shape,
                                      const scale::Topology& topology,
                                      Tick horizon, BarterModel model) {
  const std::uint64_t per_tick =
      3ull * shape.n + topology.num_directed_edges() +
      (model == BarterModel::kStrictBarter ? shape.n : 0);
  return 2ull * shape.k + per_tick * horizon;
}

TimeExpandedGraph build_time_expanded(const CapacityShape& shape,
                                      const scale::Topology& topology,
                                      Tick horizon, NodeId sink_client,
                                      BarterModel model) {
  const std::uint32_t n = shape.n;
  const std::uint32_t k = shape.k;
  const bool strict = model == BarterModel::kStrictBarter;

  // Node layout: source, k block nodes, then per tick: n states (ticks
  // 0..T), n upload ports (1..T), n download ports (1..T), and under strict
  // barter n client-coupling sub-ports (1..T).
  const std::uint32_t source = 0;
  const std::uint32_t block0 = 1;
  const std::uint32_t state0 = block0 + k;
  const std::uint32_t up0 = state0 + (horizon + 1) * n;
  const std::uint32_t down0 = up0 + horizon * n;
  const std::uint32_t cli0 = down0 + horizon * n;
  const std::uint32_t total = cli0 + (strict ? horizon * n : 0);
  const auto state = [&](NodeId i, Tick t) { return state0 + t * n + i; };

  TimeExpandedGraph g;
  g.net = FlowNetwork(total);
  g.source = source;
  g.sink = state(sink_client, horizon);
  g.demand = static_cast<std::int64_t>(k);

  // Per-block source arcs: the server holds every block from tick 0, but at
  // most server_up blocks can *first leave* it per tick, so (ordering blocks
  // by first departure) the i-th block is not uploadable before tick
  // ceil(i / server_up) — its unit enters the server's state one tick prior.
  for (std::uint32_t b = 0; b < k; ++b) {
    g.net.add_arc(source, block0 + b, 1);
    if (shape.server_up == 0) continue;  // nothing ever leaves the server
    const std::uint64_t release = ceil_div(b + 1, shape.server_up);
    if (release - 1 > horizon) continue;  // unreachable within the horizon
    g.net.add_arc(block0 + b, state(kServer, static_cast<Tick>(release - 1)), 1);
  }

  for (Tick t = 1; t <= horizon; ++t) {
    // Storage: a held block stays held.
    for (NodeId i = 0; i < n; ++i) g.net.add_arc(state(i, t - 1), state(i, t), g.demand);
    const std::uint32_t row = (t - 1) * n;
    add_port_layer(g.net, shape, topology, strict,
                   {state(0, t - 1), state(0, t), up0 + row, down0 + row, cli0 + row});
  }
  return g;
}

bool horizon_feasible(const CapacityShape& shape, const scale::Topology& topology,
                      Tick horizon, NodeId sink_client, BarterModel model) {
  TimeExpandedGraph g = build_time_expanded(shape, topology, horizon, sink_client, model);
  return g.net.max_flow(g.source, g.sink, g.demand) >= g.demand;
}

std::uint64_t quickest_horizon(const CapacityShape& shape, const scale::Topology& topology,
                               NodeId sink_client, BarterModel model) {
  // The unrolled graph repeats one port layer per tick, each arc spanning
  // at most one tick, so its max flow is a temporally repeated static flow
  // (DESIGN.md §9): successive shortest paths from the server's state give
  // augmentations (units u_j, upload hops l_j) with l_j nondecreasing, and
  // horizon T routes the sum over l_j <= T of u_j * (T + 1 - l_j) units.
  const std::uint32_t n = shape.n;
  const bool strict = model == BarterModel::kStrictBarter;
  FlowNetwork net((strict ? 4 : 3) * n);
  add_port_layer(net, shape, topology, strict, {0, 0, n, 2 * n, 3 * n});
  std::vector<FlowNetwork::Augmentation> paths;
  // Routing k units is enough: once they have, horizon l_last carries k.
  net.min_cost_max_flow(kServer, sink_client, shape.k, &paths);

  // With the first j + 1 paths open the value is (T + 1) * units - hops;
  // the least T reaching k either falls before l_{j+1} or lies further on.
  std::uint64_t units = 0;
  std::uint64_t hops = 0;
  for (std::size_t j = 0; j < paths.size(); ++j) {
    const auto flow = static_cast<std::uint64_t>(paths[j].flow);
    const auto len = static_cast<std::uint64_t>(paths[j].cost);
    units += flow;
    hops += flow * len;
    const std::uint64_t t = std::max(len, ceil_div(shape.k + hops, units) - 1);
    if (j + 1 == paths.size() || t < static_cast<std::uint64_t>(paths[j + 1].cost)) {
      return t;
    }
  }
  return kNeverFeasible;
}

std::optional<std::string> tick_flow_feasible(const CapacityShape& shape,
                                              const scale::Topology& topology,
                                              const std::vector<Transfer>& transfers) {
  if (transfers.empty()) return std::nullopt;
  const std::uint32_t n = shape.n;
  for (const Transfer& tr : transfers) {
    if (tr.from >= n || tr.to >= n || tr.from == tr.to) {
      std::ostringstream os;
      os << "transfer " << tr.from << "->" << tr.to << " has malformed endpoints";
      return os.str();
    }
    if (!has_edge(topology, tr.from, tr.to)) {
      std::ostringstream os;
      os << "transfer " << tr.from << "->" << tr.to << " is not an overlay edge";
      return os.str();
    }
  }

  // Bipartite flow: source -> sender upload port (cap u_i) -> one unit arc
  // per transfer -> receiver download port (cap d_j) -> sink. The tick is
  // realizable iff every transfer routes.
  const auto count = static_cast<std::int64_t>(transfers.size());
  FlowNetwork net(2 + 2 * n);
  const std::uint32_t source = 0;
  const std::uint32_t sink = 1;
  const auto up_port = [&](NodeId i) { return 2 + i; };
  const auto down_port = [&](NodeId i) { return 2 + n + i; };
  const auto cap = [&](std::uint64_t c) {
    return static_cast<std::int64_t>(std::min<std::uint64_t>(c, transfers.size()));
  };
  std::vector<char> has_up(n, 0), has_down(n, 0);
  for (const Transfer& tr : transfers) {
    if (!has_up[tr.from]) {
      has_up[tr.from] = 1;
      net.add_arc(source, up_port(tr.from), cap(shape.up[tr.from]));
    }
    if (!has_down[tr.to]) {
      has_down[tr.to] = 1;
      net.add_arc(down_port(tr.to), sink, cap(shape.down[tr.to]));
    }
    net.add_arc(up_port(tr.from), down_port(tr.to), 1);
  }
  const std::int64_t routed = net.max_flow(source, sink, count);
  if (routed == count) return std::nullopt;
  std::ostringstream os;
  os << "tick transfer set infeasible under capacities: only " << routed << " of "
     << count << " transfers route";
  return os.str();
}

}  // namespace pob::flow
