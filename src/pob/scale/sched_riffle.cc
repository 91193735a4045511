#include "pob/scale/sched_riffle.h"

#include <algorithm>
#include <cassert>

namespace pob::scale {

RiffleScheduler::RiffleScheduler(const Engine& engine) {
  const std::uint32_t n = engine.config().num_nodes;
  const std::uint32_t k = engine.config().num_blocks;
  build(/*client0=*/1, /*p=*/n - 1, /*block0=*/0, /*kk=*/k, /*t0=*/0);
  for (const Segment& seg : segments_) last_tick_ = std::max(last_tick_, seg.end);
}

void RiffleScheduler::build(NodeId client0, std::uint32_t p, BlockId block0,
                            std::uint32_t kk, Tick t0) {
  if (p == 0 || kk == 0) return;
  if (p == 1) {
    // Degenerate riffle: the server streams every block to the lone client
    // (CDTP's chain-transfer endpoint). Representable as kk one-client
    // "cycles": handoffs at t0 + 1 .. t0 + kk, no barters.
    segments_.push_back(Segment{t0, t0 + kk, client0, 1, block0, kk});
    return;
  }
  const std::uint32_t cycles = kk / p;
  const std::uint32_t rem = kk % p;
  if (cycles > 0) {
    // Last barter of the last full cycle: t0 + (cycles-1)*p + (2p - 3) + 2.
    segments_.push_back(Segment{t0, t0 + (cycles - 1) * p + 2 * p - 1, client0,
                                p, block0, cycles});
  }
  if (rem == 0) return;

  // Remainder: subgroups of `rem` clients each riffle one cycle of the
  // leftover blocks, staggered `rem` ticks apart (the server windows are
  // disjoint); a short final subgroup recurses.
  const Tick t1 = t0 + cycles * p;
  const BlockId b1 = block0 + cycles * p;
  std::uint32_t h = 0;
  for (std::uint32_t start = 0; start < p; start += rem, ++h) {
    const std::uint32_t size = std::min(rem, p - start);
    const Tick base = t1 + h * rem;
    if (size == rem) {
      segments_.push_back(Segment{base,
                                  rem == 1 ? base + 1 : base + 2 * rem - 1,
                                  client0 + start, rem, b1, 1});
    } else {
      build(client0 + start, size, b1, rem, base);
    }
  }
}

void RiffleScheduler::emit_segment(const Segment& seg, Tick tick) {
  const std::uint32_t p = seg.p;
  const Tick rel = tick - seg.t0;  // >= 1: begin_tick only activates t0 < tick

  // Server handoff: one per segment tick while the cycles are being fed.
  const std::uint32_t c = static_cast<std::uint32_t>(rel - 1);
  if (c < seg.cycles * p) {
    tick_buf_.push_back(
        Transfer{kServer, seg.client0 + (c % p), seg.block0 + c});
  }
  if (p < 2 || rel < 3) return;

  // Barters: cycle g is active iff c' = rel - g*p - 2 is in [1, 2p - 3];
  // solve for g instead of scanning cycles — at most two hit any tick.
  const std::uint32_t cmax = 2 * p - 3;
  const std::uint64_t r2 = rel - 2;
  const std::uint64_t gmin = r2 > cmax ? (r2 - cmax + p - 1) / p : 0;
  const std::uint64_t gmax =
      std::min<std::uint64_t>((rel - 3) / p, seg.cycles - 1);
  for (std::uint64_t g = gmin; g <= gmax; ++g) {
    const auto cp = static_cast<std::uint32_t>(r2 - g * p);  // i + j, in [1, cmax]
    const BlockId cycle_base = seg.block0 + static_cast<std::uint32_t>(g) * p;
    const std::uint32_t ilo = cp > p - 1 ? cp - (p - 1) : 0;
    const std::uint32_t ihi = (cp - 1) / 2;
    for (std::uint32_t i = ilo; i <= ihi; ++i) {
      const std::uint32_t j = cp - i;
      tick_buf_.push_back(
          Transfer{seg.client0 + i, seg.client0 + j, cycle_base + i});
      tick_buf_.push_back(
          Transfer{seg.client0 + j, seg.client0 + i, cycle_base + j});
    }
  }
}

bool RiffleScheduler::begin_tick(Tick tick) {
  // Ticks strictly increase (scheduler.h), so the cursor only moves forward.
  while (next_segment_ < segments_.size() && segments_[next_segment_].t0 < tick) {
    active_.push_back(segments_[next_segment_++]);
  }
  std::erase_if(active_, [&](const Segment& seg) { return seg.end < tick; });

  tick_buf_.clear();
  for (const Segment& seg : active_) emit_segment(seg, tick);
  // Canonical sharded order is ascending sender. Each node uploads at most
  // once per tick (u = 1 by construction), so the sort key is unique.
  std::sort(tick_buf_.begin(), tick_buf_.end(),
            [](const Transfer& a, const Transfer& b) { return a.from < b.from; });
  built_tick_ = tick;
  return true;
}

void RiffleScheduler::generate(Tick tick, std::uint32_t /*shard*/, NodeId first,
                               NodeId last, std::vector<Transfer>& out) {
  assert(tick == built_tick_ && "begin_tick must precede generate");
  (void)tick;
  const auto lo = std::partition_point(
      tick_buf_.begin(), tick_buf_.end(),
      [&](const Transfer& t) { return t.from < first; });
  const auto hi = std::partition_point(
      lo, tick_buf_.end(), [&](const Transfer& t) { return t.from < last; });
  out.insert(out.end(), lo, hi);
}

std::uint64_t RiffleScheduler::memory_bytes() const {
  return (segments_.capacity() + active_.capacity()) * sizeof(Segment) +
         tick_buf_.capacity() * sizeof(Transfer);
}

}  // namespace pob::scale
