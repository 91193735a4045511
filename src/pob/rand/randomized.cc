#include "pob/rand/randomized.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

namespace pob {

const char* to_string(BlockPolicy policy) {
  switch (policy) {
    case BlockPolicy::kRandom:
      return "random";
    case BlockPolicy::kRarestFirst:
      return "rarest-first";
  }
  return "?";
}

RandomizedScheduler::RandomizedScheduler(std::shared_ptr<const Overlay> overlay,
                                         RandomizedOptions options, Rng rng,
                                         const Mechanism* precheck)
    : overlay_(std::move(overlay)), opt_(options), rng_(rng), precheck_(precheck) {
  if (overlay_ == nullptr) throw std::invalid_argument("randomized: null overlay");
  if (opt_.upload_capacity < 1) throw std::invalid_argument("randomized: upload capacity");
  if (opt_.download_capacity < 1) throw std::invalid_argument("randomized: download capacity");
  const std::uint32_t n = overlay_->num_nodes();
  if (!opt_.upload_capacities.empty() && opt_.upload_capacities.size() != n) {
    throw std::invalid_argument("randomized: upload_capacities size mismatch");
  }
  if (!opt_.download_capacities.empty() && opt_.download_capacities.size() != n) {
    throw std::invalid_argument("randomized: download_capacities size mismatch");
  }
}

void RandomizedScheduler::set_overlay(std::shared_ptr<const Overlay> overlay) {
  if (overlay == nullptr) throw std::invalid_argument("randomized: null overlay");
  if (overlay->num_nodes() != overlay_->num_nodes()) {
    throw std::invalid_argument("randomized: overlay size changed");
  }
  overlay_ = std::move(overlay);
}

void RandomizedScheduler::ensure_scratch(const SwarmState& state) {
  const std::uint32_t n = state.num_nodes();
  if (order_.size() == n) return;
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), NodeId{0});
  dead_ = BlockSet(state.num_blocks());
  incoming_.assign(n, BlockSet(state.num_blocks()));
  incoming_stamp_.assign(n, 0);
  saturated_stamp_.assign(n, 0);
  down_used_.assign(n, 0);
  down_stamp_.assign(n, 0);
}

const BlockSet* RandomizedScheduler::incoming_of(NodeId v, Tick tick) const {
  return incoming_stamp_[v] == tick ? &incoming_[v] : nullptr;
}

bool RandomizedScheduler::acceptable(NodeId u, NodeId v, Tick tick,
                                     const SwarmState& state) const {
  if (v == u || v == kServer) return false;
  if (state.is_complete(v) || !state.is_active(v)) return false;
  if (saturated_stamp_[v] == tick) return false;  // all missing blocks inbound
  const std::uint32_t dcap = opt_.download_capacities.empty()
                                 ? opt_.download_capacity
                                 : opt_.download_capacities[v];
  if (down_stamp_[v] == tick && down_used_[v] >= dcap) return false;
  if (precheck_ != nullptr) {
    // may_upload consults the pre-tick ledger, so with multi-block upload
    // capacity a second same-pair upload this tick could overdraw the line;
    // keep at most one upload per (u, v) pair per tick under a mechanism.
    for (const NodeId c : chosen_) {
      if (c == v) return false;
    }
  }
  // Possession before the ledger: both are pure predicates, so the order
  // changes no decision, but a probe rejected here never hashes into it.
  if (!state.blocks_of(u).has_useful(state.blocks_of(v), incoming_of(v, tick))) {
    return false;
  }
  return precheck_ == nullptr || precheck_->may_upload(u, v);
}

NodeId RandomizedScheduler::find_target(NodeId u, Tick tick, const SwarmState& state) {
  const Overlay& ov = *overlay_;
  const std::uint32_t deg = ov.degree(u);
  if (deg == 0) return kNoNode;

  // Endgame shortcut: when far fewer nodes are incomplete than u has
  // neighbors, sample the incomplete list directly instead of burning
  // probes on complete neighbors.
  const auto incomplete = state.incomplete_nodes();
  const auto inc_count = static_cast<std::uint32_t>(incomplete.size());
  if (inc_count * 4 < deg) {
    for (std::uint32_t probe = 0; probe < opt_.max_probes; ++probe) {
      const NodeId v = incomplete[rng_.below(inc_count)];
      if (ov.adjacent(u, v) && acceptable(u, v, tick, state)) return v;
    }
  } else {
    // Rejection sampling: uniform over neighbors, conditioned on acceptance.
    for (std::uint32_t probe = 0; probe < opt_.max_probes; ++probe) {
      const NodeId v = ov.neighbor(u, rng_.below(deg));
      if (acceptable(u, v, tick, state)) return v;
    }
  }

  // Fallback: deterministic scan from a random offset, so u transmits
  // whenever ANY neighbor is interested (step 1 of §2.4.2). On dense
  // overlays only incomplete nodes can be interested, so scan those instead
  // of the full neighbor list — the endgame stays cheap.
  if (inc_count < deg) {
    if (inc_count == 0) return kNoNode;
    const std::uint32_t offset = rng_.below(inc_count);
    for (std::uint32_t i = 0; i < inc_count; ++i) {
      const NodeId v = incomplete[(offset + i) % inc_count];
      if (ov.adjacent(u, v) && acceptable(u, v, tick, state)) return v;
    }
    return kNoNode;
  }
  const std::uint32_t limit =
      opt_.max_scan == 0 ? deg : std::min(deg, opt_.max_scan);
  const std::uint32_t offset = rng_.below(deg);
  for (std::uint32_t i = 0; i < limit; ++i) {
    const NodeId v = ov.neighbor(u, (offset + i) % deg);
    if (acceptable(u, v, tick, state)) return v;
  }
  return kNoNode;
}

void RandomizedScheduler::plan_tick(Tick tick, const SwarmState& state,
                                    std::vector<Transfer>& out) {
  ensure_scratch(state);
  rng_.shuffle(order_);

  // Blocks held by every node are dead: nobody is interested in them. A
  // node holding only dead blocks (§2.4.3's stranded G_1 members) cannot
  // upload, and skipping it here avoids a fruitless O(n) fallback scan.
  dead_.clear();
  const auto freq = state.block_frequency();
  const std::uint32_t active = state.num_nodes() - state.num_departed();
  for (BlockId b = 0; b < state.num_blocks(); ++b) {
    if (freq[b] >= active) dead_.insert(b);
  }

  for (const NodeId u : order_) {
    if (!state.is_active(u)) continue;
    const BlockSet& have = state.blocks_of(u);
    if (have.empty()) continue;
    if (!have.has_block_missing_from(dead_)) continue;  // only dead blocks
    chosen_.clear();
    const std::uint32_t slots = opt_.upload_capacities.empty()
                                    ? opt_.upload_capacity
                                    : opt_.upload_capacities[u];
    for (std::uint32_t slot = 0; slot < slots; ++slot) {
      const NodeId v = find_target(u, tick, state);
      if (v == kNoNode) break;

      const BlockSet* excl = incoming_of(v, tick);
      BlockId b = kNoBlock;
      switch (opt_.policy) {
        case BlockPolicy::kRandom:
          b = have.pick_random_useful(state.blocks_of(v), excl, rng_);
          break;
        case BlockPolicy::kRarestFirst:
          b = have.pick_rarest_useful(state.blocks_of(v), excl,
                                      state.block_frequency(), rng_);
          break;
      }
      assert(b != kNoBlock);  // acceptable() guaranteed a useful block

      if (incoming_stamp_[v] != tick) {
        incoming_[v].clear();
        incoming_stamp_[v] = tick;
      }
      incoming_[v].insert(b);
      // Once everything v is missing is inbound, stop offering it blocks.
      if (incoming_[v].covers_complement_of(state.blocks_of(v))) {
        saturated_stamp_[v] = tick;
      }
      if (down_stamp_[v] != tick) {
        down_used_[v] = 0;
        down_stamp_[v] = tick;
      }
      ++down_used_[v];
      chosen_.push_back(v);
      out.push_back({u, v, b});
    }
  }
}

}  // namespace pob
