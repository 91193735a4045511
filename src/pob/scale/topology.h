// Neighbor adjacency for the mega-swarm engine, stored as CSR (one offsets
// array, one flat targets array) so a million-node overlay is two dense
// allocations instead of a million vectors. Complete graphs are answered
// arithmetically and never materialized — the n = 10^6 complete overlay
// would need ~4 TB of edges.
//
// Neighbor ordering is sorted ascending (skipping the node itself for the
// complete graph), matching Graph's finalized CSR, so a Topology built from
// a Graph and one built arithmetically agree on neighbor(u, idx) whenever
// the edge sets agree. The scale planner's per-node RNG indexes into this
// ordering, so the ordering is part of the deterministic contract.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "pob/core/rng.h"
#include "pob/core/types.h"
#include "pob/overlay/builders.h"
#include "pob/overlay/graph.h"
#include "pob/scale/hugemem.h"

namespace pob::scale {

class Topology {
 public:
  /// The complete graph on `num_nodes` nodes, answered arithmetically.
  static Topology complete(std::uint32_t num_nodes);

  /// Copies a finalized Graph's adjacency into CSR form.
  static Topology from_graph(const Graph& graph);

  std::uint32_t num_nodes() const { return n_; }

  bool is_complete() const { return complete_; }

  std::uint32_t degree(NodeId u) const {
    if (complete_) return n_ - 1;
    return static_cast<std::uint32_t>(offsets_[u + 1] - offsets_[u]);
  }

  /// The idx-th neighbor of u, ascending id order, 0 <= idx < degree(u).
  NodeId neighbor(NodeId u, std::uint32_t idx) const {
    if (complete_) return idx < u ? idx : idx + 1;
    return targets_[offsets_[u] + idx];
  }

  /// Directed edge count (2x undirected); 0-cost summary for benches.
  std::uint64_t num_directed_edges() const {
    if (complete_) return static_cast<std::uint64_t>(n_) * (n_ - 1);
    return targets_.size();
  }

  /// Bytes held by the CSR arrays (0 for the arithmetic complete graph).
  std::uint64_t memory_bytes() const {
    return offsets_.size() * sizeof(std::uint64_t) +
           targets_.size() * sizeof(NodeId);
  }

 private:
  Topology() = default;

  std::uint32_t n_ = 0;
  bool complete_ = false;
  // Hugepage-backed where possible: the planner does millions of random
  // neighbor lookups per tick, and big pages keep those off the TLB-walk
  // path (see hugemem.h).
  HugeBuffer<std::uint64_t> offsets_;  // n + 1 entries when !complete_
  HugeBuffer<NodeId> targets_;
};

/// make_overlay_graph wrapped for the scale engine: the CSR form of the
/// same graph, or the arithmetic complete topology for kComplete.
std::shared_ptr<const Topology> make_topology(OverlayKind kind, std::uint32_t n,
                                              std::uint32_t degree, std::uint32_t arity,
                                              Rng& rng);

}  // namespace pob::scale
