#include "pob/flow/certify.h"

#include <algorithm>
#include <vector>

namespace pob::flow {
namespace {

constexpr std::uint64_t kNoDist = ~0ull;

std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) { return (a + b - 1) / b; }

Tick clamp_tick(std::uint64_t t, const CertifyOptions& opt) {
  return static_cast<Tick>(std::min<std::uint64_t>(t, opt.horizon_cap));
}

/// Sorted-descending client capacities with prefix sums: prefix[c] = total
/// upload capacity of the c highest-capacity clients. Any schedule's set of
/// c block-holding clients has capacity <= prefix[c], which is what makes
/// the greedy envelopes below upper bounds on deliverable volume.
struct ClientCaps {
  std::vector<std::uint64_t> prefix;  // size n (clients 1..n-1 => c in 0..n-1)
  std::uint64_t max_cap = 0;

  explicit ClientCaps(const CapacityShape& shape) {
    std::vector<std::uint64_t> caps(shape.up.begin() + 1, shape.up.end());
    std::sort(caps.begin(), caps.end(), std::greater<>());
    prefix.resize(caps.size() + 1, 0);
    for (std::size_t i = 0; i < caps.size(); ++i) prefix[i + 1] = prefix[i] + caps[i];
    if (!caps.empty()) max_cap = caps.front();
  }
};

/// Cumulative-capacity ramp: at the start of tick t at most `infected`
/// clients can hold any block, so deliveries in tick t are bounded by the
/// infected set's capacity, and the infected set itself grows by at most
/// that many nodes (each delivery infects at most one empty node). Greedy
/// infection of the highest-capacity clients dominates every schedule.
Tick ramp_bound(const CapacityShape& shape, const ClientCaps& caps,
                const CertifyOptions& opt) {
  const std::uint64_t need =
      static_cast<std::uint64_t>(shape.demand_clients) * shape.k;
  const std::uint64_t clients = shape.n - 1;
  std::uint64_t cum = 0;
  std::uint64_t infected = 0;
  std::uint64_t t = 0;
  while (cum < need) {
    ++t;
    const std::uint64_t budget = shape.server_up + caps.prefix[infected];
    if (budget == 0 || t >= opt.horizon_cap) return opt.horizon_cap;
    cum += budget;
    infected = std::min(clients, infected + budget);
  }
  return clamp_tick(t, opt);
}

/// Theorem 1 generalized: some block's first copy leaves the server no
/// earlier than tick ceil(k / server_up); from then on its client copies
/// can at most grow by (1 + max client upload) per tick plus the server's
/// contribution, and every demand client needs one.
Tick last_block_bound(const CapacityShape& shape, const ClientCaps& caps,
                      const CertifyOptions& opt) {
  if (shape.server_up == 0) return opt.horizon_cap;
  const std::uint64_t clients = shape.n - 1;
  const std::uint64_t t0 = ceil_div(shape.k, shape.server_up);
  // Growth beyond the client count is irrelevant; clamping the factors
  // keeps the recurrence overflow-free.
  const std::uint64_t grow = std::min<std::uint64_t>(caps.max_cap, clients);
  const std::uint64_t seed = std::min<std::uint64_t>(shape.server_up, clients);
  std::uint64_t copies = seed;
  std::uint64_t extra = 0;
  while (copies < shape.demand_clients) {
    copies = std::min(clients, copies + copies * grow + seed);
    if (++extra >= opt.horizon_cap) return opt.horizon_cap;
  }
  return clamp_tick(t0 + extra, opt);
}

/// BFS hop distance from the server; kNoDist for unreachable nodes. The
/// complete topology short-circuits to distance 1 (materializing its
/// neighbor lists would be O(n^2)).
std::vector<std::uint64_t> server_distances(const CapacityShape& shape,
                                            const scale::Topology& topo) {
  std::vector<std::uint64_t> dist(shape.n, kNoDist);
  dist[kServer] = 0;
  if (topo.is_complete()) {
    for (std::uint32_t i = 1; i < shape.n; ++i) dist[i] = 1;
    return dist;
  }
  std::vector<NodeId> queue{kServer};
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    const std::uint32_t deg = topo.degree(u);
    for (std::uint32_t idx = 0; idx < deg; ++idx) {
      const NodeId v = topo.neighbor(u, idx);
      if (dist[v] != kNoDist) continue;
      dist[v] = dist[u] + 1;
      queue.push_back(v);
    }
  }
  return dist;
}

/// Strict barter, Theorem 2's d = u argument generalized: first blocks come
/// only from the server (an empty client cannot reciprocate), so the last
/// demand client is seeded at tick >= ceil(demand / server_up) and then
/// needs k - 1 more blocks at its per-tick reception rate. The schedule
/// picks who is seeded last, so the rate is the best one available.
Tick seed_bound(const CapacityShape& shape, const CertifyOptions& opt) {
  if (shape.server_up == 0) return opt.horizon_cap;
  const std::uint64_t seed_ticks = ceil_div(shape.demand_clients, shape.server_up);
  if (shape.k == 1) return clamp_tick(seed_ticks, opt);
  std::uint64_t best_extra = kNoDist;
  for (std::uint32_t v = 1; v < shape.n; ++v) {
    if (!shape.demand[v]) continue;
    const std::uint64_t rate = std::min(shape.down[v], shape.up[v] + shape.server_up);
    if (rate == 0) continue;
    best_extra = std::min(best_extra, ceil_div(shape.k - 1, rate));
  }
  if (best_extra == kNoDist) return opt.horizon_cap;
  return clamp_tick(seed_ticks + best_extra, opt);
}

/// Strict barter pairing ramp (Theorem 2's d >= 2u regime, generalized):
/// at tick t at most server_up * (t - 1) clients have been seeded, client-
/// client transfers come in reciprocal pairs (even total, bounded by the
/// seeded clients' capacity), and the server adds server_up more.
Tick strict_ramp_bound(const CapacityShape& shape, const ClientCaps& caps,
                       const CertifyOptions& opt) {
  if (shape.server_up == 0) return opt.horizon_cap;
  const std::uint64_t need =
      static_cast<std::uint64_t>(shape.demand_clients) * shape.k;
  const std::uint64_t clients = shape.n - 1;
  std::uint64_t cum = 0;
  std::uint64_t t = 0;
  while (cum < need) {
    ++t;
    if (t >= opt.horizon_cap) return opt.horizon_cap;
    const std::uint64_t capable = std::min(shape.server_up * (t - 1), clients);
    const std::uint64_t barter = caps.prefix[capable];
    cum += shape.server_up + 2 * (barter / 2);
  }
  return clamp_tick(t, opt);
}

}  // namespace

CompletionCertificate certify_completion_bound(const EngineConfig& config,
                                               const scale::Topology& topology,
                                               BarterModel mechanism,
                                               const CertifyOptions& options) {
  const CapacityShape shape = CapacityShape::from_config(config);
  CompletionCertificate cert;
  cert.demand_clients = shape.demand_clients;
  if (shape.n < 2 || shape.k == 0 || shape.demand_clients == 0) return cert;

  const ClientCaps caps(shape);
  cert.ramp_bound = ramp_bound(shape, caps, options);
  cert.last_block_bound = last_block_bound(shape, caps, options);
  if (mechanism == BarterModel::kStrictBarter) {
    cert.seed_bound = seed_bound(shape, options);
    cert.strict_ramp_bound = strict_ramp_bound(shape, caps, options);
  }

  // Per-client pipe bound: distance delays the first reception, the inflow
  // cap (own download vs neighborhood upload) limits the rate after it.
  const std::vector<std::uint64_t> dist = server_distances(shape, topology);
  std::uint64_t total_up = 0;
  for (const std::uint64_t u : shape.up) total_up += u;
  std::vector<std::uint64_t> pipe(shape.n, 0);
  for (std::uint32_t v = 1; v < shape.n; ++v) {
    if (!shape.demand[v]) continue;
    std::uint64_t inflow;
    if (topology.is_complete()) {
      inflow = total_up - shape.up[v];
    } else {
      inflow = 0;
      const std::uint32_t deg = topology.degree(v);
      for (std::uint32_t idx = 0; idx < deg; ++idx) {
        inflow += shape.up[topology.neighbor(v, idx)];
      }
    }
    inflow = std::min(inflow, shape.down[v]);
    pipe[v] = dist[v] == kNoDist || inflow == 0
                  ? options.horizon_cap
                  : std::min<std::uint64_t>(
                        dist[v] - 1 + ceil_div(shape.k, inflow), options.horizon_cap);
    if (pipe[v] > cert.pipe_bound) {
      cert.pipe_bound = static_cast<Tick>(pipe[v]);
      cert.pipe_client = v;
    }
  }

  const Tick counting =
      std::max({cert.ramp_bound, cert.last_block_bound, cert.pipe_bound,
                cert.seed_bound, cert.strict_ramp_bound});
  cert.lower_bound = counting;

  // Flow refinement. Complete topologies skip it: the counting components
  // are exact there (Theorem 1/2 tight), and n^2 overlay arcs buy nothing.
  // The gate is the arc count the unrolled graph would have, so the set of
  // scenarios that evaluate this component does not depend on the solver.
  if (!topology.is_complete() && counting < options.horizon_cap) {
    const std::uint64_t span = static_cast<std::uint64_t>(counting) + shape.k + shape.n;
    const Tick hi = clamp_tick(span, options);
    if (time_expanded_arc_count(shape, topology, hi, mechanism) <=
        options.flow_arc_budget) {
      cert.flow_evaluated = true;
      // The worst clients by pipe score are the candidates worth the search.
      std::vector<NodeId> sinks;
      for (std::uint32_t v = 1; v < shape.n; ++v) {
        if (shape.demand[v]) sinks.push_back(v);
      }
      std::sort(sinks.begin(), sinks.end(),
                [&](NodeId a, NodeId b) { return pipe[a] > pipe[b]; });
      if (sinks.size() > options.max_flow_sinks) sinks.resize(options.max_flow_sinks);

      // Each sink's least feasible horizon is exact (quickest_horizon); one
      // that exceeds hi certifies hi + 1 and ends the search.
      Tick best = counting;
      for (const NodeId v : sinks) {
        if (best >= hi) break;
        const std::uint64_t t = quickest_horizon(shape, topology, v, mechanism);
        if (t <= best) continue;
        best = t > hi ? clamp_tick(static_cast<std::uint64_t>(hi) + 1, options)
                      : static_cast<Tick>(t);
        cert.flow_client = v;
      }
      if (best > counting) cert.flow_bound = best;
      cert.lower_bound = std::max(counting, best);
    }
  }
  return cert;
}

double certified_price(Tick simulated, Tick certified) {
  if (simulated == 0 || certified == 0) return 0.0;
  return static_cast<double>(simulated) / static_cast<double>(certified);
}

}  // namespace pob::flow
