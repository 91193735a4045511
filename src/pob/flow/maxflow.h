// Hermetic integer max-flow / min-cost-flow solver for the certificate
// oracle. Header-only, no dependencies beyond the standard library: CI's
// certificate job must build with nothing but the toolchain.
//
// Max flow is Dinic's algorithm — BFS level graphs plus blocking flows, i.e.
// augmentation along successive shortest (fewest-arc) paths. The min-cost
// variant is the classic successive-shortest-path scheme: repeatedly augment
// along a cheapest residual path (SPFA, since residual arcs of cost -c
// appear once flow moves) until the target flow is met; it can report each
// augmentation's bottleneck and path cost, which is all a quickest-flow
// computation needs. Both operate on the same arc store, so a caller can
// build one network and ask either question.
//
// The time-expanded graphs the certifier builds are long and thin (path
// depth grows with the horizon), so every traversal here is iterative — no
// recursion to overflow on a 10^5-node unrolling.

#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

namespace pob::flow {

/// Effectively-infinite arc capacity; large enough that sums of clamped
/// capacities never overflow a signed 64-bit accumulator.
constexpr std::int64_t kInfCapacity = std::numeric_limits<std::int64_t>::max() / 4;

class FlowNetwork {
 public:
  explicit FlowNetwork(std::uint32_t num_nodes) : adj_(num_nodes) {}

  std::uint32_t num_nodes() const { return static_cast<std::uint32_t>(adj_.size()); }
  std::uint64_t num_arcs() const { return arcs_.size() / 2; }

  std::uint32_t add_node() {
    adj_.emplace_back();
    return static_cast<std::uint32_t>(adj_.size() - 1);
  }

  /// Adds a directed arc and its zero-capacity residual twin. Returns the
  /// forward arc's id (its twin is id ^ 1). Cost applies per unit of flow;
  /// the residual twin carries -cost, as successive-shortest-path requires.
  std::uint32_t add_arc(std::uint32_t from, std::uint32_t to, std::int64_t capacity,
                        std::int64_t cost = 0) {
    const auto id = static_cast<std::uint32_t>(arcs_.size());
    arcs_.push_back({to, capacity, cost});
    arcs_.push_back({from, 0, -cost});
    adj_[from].push_back(id);
    adj_[to].push_back(id + 1);
    return id;
  }

  /// Units pushed through the forward arc `id` so far (its twin's capacity).
  std::int64_t arc_flow(std::uint32_t id) const { return arcs_[id ^ 1].capacity; }

  /// Dinic's max flow from `source` to `sink`, stopping early once `limit`
  /// units have been routed (the certifier only ever asks "can k units make
  /// it", so it passes limit = k and skips the tail of the computation).
  std::int64_t max_flow(std::uint32_t source, std::uint32_t sink,
                        std::int64_t limit = kInfCapacity) {
    std::int64_t total = 0;
    while (total < limit && build_levels(source, sink)) {
      iter_.assign(adj_.size(), 0);
      std::int64_t pushed;
      while (total < limit &&
             (pushed = augment(source, sink, limit - total)) > 0) {
        total += pushed;
      }
    }
    return total;
  }

  struct FlowCost {
    std::int64_t flow = 0;
    std::int64_t cost = 0;
  };

  /// One successive-shortest-path step: `flow` units along a residual path
  /// of per-unit cost `cost`. The steps' costs are nondecreasing.
  struct Augmentation {
    std::int64_t flow = 0;
    std::int64_t cost = 0;
  };

  /// Successive shortest paths: route up to `limit` units at minimum total
  /// cost. Arc costs must be non-negative on the *original* arcs (residual
  /// negatives are handled by the label-correcting search). When
  /// `augmentations` is given, every step is appended to it in order.
  FlowCost min_cost_max_flow(std::uint32_t source, std::uint32_t sink,
                             std::int64_t limit = kInfCapacity,
                             std::vector<Augmentation>* augmentations = nullptr) {
    FlowCost result;
    std::vector<std::int64_t> dist;
    std::vector<std::uint32_t> parent_arc;
    while (result.flow < limit &&
           cheapest_path(source, sink, dist, parent_arc)) {
      std::int64_t bottleneck = limit - result.flow;
      for (std::uint32_t v = sink; v != source;) {
        const Arc& a = arcs_[parent_arc[v]];
        bottleneck = std::min(bottleneck, a.capacity);
        v = arcs_[parent_arc[v] ^ 1].to;
      }
      for (std::uint32_t v = sink; v != source;) {
        const std::uint32_t id = parent_arc[v];
        arcs_[id].capacity -= bottleneck;
        arcs_[id ^ 1].capacity += bottleneck;
        v = arcs_[id ^ 1].to;
      }
      result.flow += bottleneck;
      result.cost += bottleneck * dist[sink];
      if (augmentations != nullptr) augmentations->push_back({bottleneck, dist[sink]});
    }
    return result;
  }

 private:
  struct Arc {
    std::uint32_t to;
    std::int64_t capacity;
    std::int64_t cost;
  };

  bool build_levels(std::uint32_t source, std::uint32_t sink) {
    level_.assign(adj_.size(), -1);
    level_[source] = 0;
    bfs_queue_.clear();
    bfs_queue_.push_back(source);
    while (!bfs_queue_.empty()) {
      const std::uint32_t u = bfs_queue_.front();
      bfs_queue_.pop_front();
      for (const std::uint32_t id : adj_[u]) {
        const Arc& a = arcs_[id];
        if (a.capacity > 0 && level_[a.to] < 0) {
          level_[a.to] = level_[u] + 1;
          bfs_queue_.push_back(a.to);
        }
      }
    }
    return level_[sink] >= 0;
  }

  /// One shortest augmenting path in the current level graph, found with an
  /// explicit arc stack (paths in time-expanded graphs are horizon-deep).
  std::int64_t augment(std::uint32_t source, std::uint32_t sink, std::int64_t limit) {
    path_.clear();
    std::uint32_t u = source;
    while (true) {
      if (u == sink) {
        std::int64_t pushed = limit;
        for (const std::uint32_t id : path_) {
          pushed = std::min(pushed, arcs_[id].capacity);
        }
        for (const std::uint32_t id : path_) {
          arcs_[id].capacity -= pushed;
          arcs_[id ^ 1].capacity += pushed;
        }
        return pushed;
      }
      bool advanced = false;
      for (; iter_[u] < adj_[u].size(); ++iter_[u]) {
        const std::uint32_t id = adj_[u][iter_[u]];
        const Arc& a = arcs_[id];
        if (a.capacity > 0 && level_[a.to] == level_[u] + 1) {
          path_.push_back(id);
          u = a.to;
          advanced = true;
          break;
        }
      }
      if (advanced) continue;
      level_[u] = -1;  // dead end: prune from this phase's level graph
      if (path_.empty()) return 0;
      const std::uint32_t back = path_.back();
      path_.pop_back();
      u = arcs_[back ^ 1].to;
      ++iter_[u];
    }
  }

  /// SPFA label-correcting shortest path over residual costs; fills `dist`
  /// and `parent_arc` and reports whether the sink is reachable.
  bool cheapest_path(std::uint32_t source, std::uint32_t sink,
                     std::vector<std::int64_t>& dist,
                     std::vector<std::uint32_t>& parent_arc) {
    constexpr std::int64_t kFar = std::numeric_limits<std::int64_t>::max() / 2;
    dist.assign(adj_.size(), kFar);
    parent_arc.assign(adj_.size(), 0);
    std::vector<char> queued(adj_.size(), 0);
    dist[source] = 0;
    bfs_queue_.clear();
    bfs_queue_.push_back(source);
    queued[source] = 1;
    while (!bfs_queue_.empty()) {
      const std::uint32_t u = bfs_queue_.front();
      bfs_queue_.pop_front();
      queued[u] = 0;
      for (const std::uint32_t id : adj_[u]) {
        const Arc& a = arcs_[id];
        if (a.capacity <= 0 || dist[u] + a.cost >= dist[a.to]) continue;
        dist[a.to] = dist[u] + a.cost;
        parent_arc[a.to] = id;
        if (!queued[a.to]) {
          queued[a.to] = 1;
          bfs_queue_.push_back(a.to);
        }
      }
    }
    return dist[sink] < kFar;
  }

  std::vector<Arc> arcs_;
  std::vector<std::vector<std::uint32_t>> adj_;
  std::vector<int> level_;
  std::vector<std::size_t> iter_;
  std::vector<std::uint32_t> path_;
  std::deque<std::uint32_t> bfs_queue_;
};

}  // namespace pob::flow
