#include "pob/scale/topology.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace pob::scale {

Topology Topology::complete(std::uint32_t num_nodes) {
  if (num_nodes < 2) throw std::invalid_argument("Topology: need >= 2 nodes");
  Topology t;
  t.n_ = num_nodes;
  t.complete_ = true;
  return t;
}

Topology Topology::from_graph(const Graph& graph) {
  if (!graph.finalized()) throw std::invalid_argument("Topology: graph not finalized");
  if (graph.num_nodes() < 2) throw std::invalid_argument("Topology: need >= 2 nodes");
  Topology t;
  t.n_ = graph.num_nodes();
  // Both CSR arrays are sized exactly up front, so they can live on
  // hugepage-backed memory from the first byte (see hugemem.h) — the
  // planner random-reads targets_ millions of times per tick, and big
  // pages keep those lookups off the TLB-walk path.
  t.offsets_.reset(static_cast<std::size_t>(t.n_) + 1);
  t.targets_.reset(graph.num_edges() * 2);
  std::uint64_t offset = 0;
  for (NodeId u = 0; u < t.n_; ++u) {
    t.offsets_[u] = offset;
    const auto neighbors = graph.neighbors(u);
    std::copy(neighbors.begin(), neighbors.end(), t.targets_.data() + offset);
    offset += neighbors.size();
  }
  t.offsets_[t.n_] = offset;
  return t;
}

std::shared_ptr<const Topology> make_topology(OverlayKind kind, std::uint32_t n,
                                              std::uint32_t degree, std::uint32_t arity,
                                              Rng& rng) {
  const std::optional<Graph> graph = make_overlay_graph(kind, n, degree, arity, rng);
  return std::make_shared<Topology>(graph ? Topology::from_graph(*graph)
                                          : Topology::complete(n));
}

}  // namespace pob::scale
