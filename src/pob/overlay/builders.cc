#include "pob/overlay/builders.h"

namespace pob {

const char* to_string(OverlayKind kind) {
  switch (kind) {
    case OverlayKind::kComplete: return "complete";
    case OverlayKind::kRegular: return "regular";
    case OverlayKind::kHypercube: return "hypercube";
    case OverlayKind::kRing: return "ring";
    case OverlayKind::kKaryTree: return "karytree";
  }
  return "?";
}

std::optional<Graph> make_overlay_graph(OverlayKind kind, std::uint32_t n,
                                        std::uint32_t degree, std::uint32_t arity,
                                        Rng& rng) {
  switch (kind) {
    case OverlayKind::kComplete: return std::nullopt;
    case OverlayKind::kRegular: return make_random_regular(n, degree, rng);
    case OverlayKind::kHypercube: return make_hypercube_overlay(n);
    case OverlayKind::kRing: return make_ring(n);
    case OverlayKind::kKaryTree: return make_kary_tree(n, arity);
  }
  return std::nullopt;  // unreachable
}

std::shared_ptr<const Overlay> make_overlay(OverlayKind kind, std::uint32_t n,
                                            std::uint32_t degree, std::uint32_t arity,
                                            Rng& rng) {
  std::optional<Graph> graph = make_overlay_graph(kind, n, degree, arity, rng);
  if (!graph) return std::make_shared<CompleteOverlay>(n);
  return std::make_shared<GraphOverlay>(std::move(*graph));
}

}  // namespace pob
