// Overlay-graph constructors used across the paper's experiments:
//
//   * random d-regular graphs ("in which each edge is equally likely to be
//     chosen", §2.4.4) — configuration model with double-edge-swap repair,
//   * the hypercube-like overlay of §2.3.2-2.3.3 with 1-2 nodes per vertex,
//   * ring and k-ary tree topologies for the deterministic baselines.

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "pob/core/rng.h"
#include "pob/core/types.h"
#include "pob/overlay/graph.h"
#include "pob/overlay/overlay.h"

namespace pob {

/// Random d-regular simple graph on n nodes via the configuration model:
/// d*n stubs are paired uniformly at random, then self-loops and parallel
/// edges are repaired with uniform double-edge swaps. Regenerates until the
/// graph is connected (disconnection is vanishingly rare for d >= 3 but
/// checked regardless). Requires d < n and d*n even.
Graph make_random_regular(std::uint32_t n, std::uint32_t d, Rng& rng);

/// Describes the hypercube vertex assignment of §2.3.3: m = floor(log2 n)
/// dimensions, one vertex per m-bit ID; the server (node 0) alone holds the
/// all-zero ID, and every other ID hosts one or two clients.
struct HypercubeMap {
  std::uint32_t dims = 0;                     ///< m
  std::uint32_t num_vertices = 0;             ///< 2^m
  std::vector<std::uint32_t> vertex_of;       ///< node -> vertex id
  std::vector<std::array<NodeId, 2>> members; ///< vertex -> {node, node|kNoNode}

  std::uint32_t vertex_count(std::uint32_t v) const {
    return members[v][1] == kNoNode ? 1u : 2u;
  }
};

/// Builds the assignment for any n >= 2 (n = total nodes incl. server).
HypercubeMap make_hypercube_map(std::uint32_t n);

/// The physical overlay induced by the hypercube map: an edge between every
/// pair of nodes whose vertices are hypercube-adjacent, plus an edge between
/// the two members of each doubled vertex. Average degree is Θ(log n);
/// §2.4.4 observes the randomized algorithm on this overlay matches the
/// complete graph.
Graph make_hypercube_overlay(std::uint32_t n);

/// Cycle 0-1-2-...-(n-1)-0.
Graph make_ring(std::uint32_t n);

/// Complete k-ary tree rooted at node 0 in level order: children of x are
/// k*x+1 ... k*x+k (when < n).
Graph make_kary_tree(std::uint32_t n, std::uint32_t arity);

/// The overlays a run can name: the complete graph plus the four explicit
/// constructors above. to_string gives the --overlay spelling.
enum class OverlayKind : std::uint8_t { kComplete, kRegular, kHypercube, kRing, kKaryTree };

const char* to_string(OverlayKind kind);

/// The one overlay switch: the graph of `kind` on n nodes, or nothing for
/// kComplete, which both engines answer arithmetically. Only kRegular draws
/// from `rng` (degree d); only kKaryTree reads `arity`.
std::optional<Graph> make_overlay_graph(OverlayKind kind, std::uint32_t n,
                                        std::uint32_t degree, std::uint32_t arity,
                                        Rng& rng);

/// make_overlay_graph wrapped for the core engine's randomized schedulers.
std::shared_ptr<const Overlay> make_overlay(OverlayKind kind, std::uint32_t n,
                                            std::uint32_t degree, std::uint32_t arity,
                                            Rng& rng);

/// floor(log2(x)) for x >= 1.
std::uint32_t floor_log2(std::uint32_t x);

/// ceil(log2(x)) for x >= 1.
std::uint32_t ceil_log2(std::uint32_t x);

}  // namespace pob
