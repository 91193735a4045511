#include "pob/scale/sched_riffle.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <stdexcept>
#include <string>

namespace pob::scale {

RiffleScheduler::RiffleScheduler(const Engine& engine)
    : n_(engine.config().num_nodes) {
  const std::uint32_t k = engine.config().num_blocks;
  build(/*client0=*/1, /*p=*/n_ - 1, /*block0=*/0, /*kk=*/k, /*t0=*/0);

  // Reserve scratch for the busiest tick: the server and each live
  // segment's p clients send at most once apiece. Segments come in t0 order.
  std::priority_queue<std::pair<Tick, std::uint32_t>,
                      std::vector<std::pair<Tick, std::uint32_t>>, std::greater<>>
      live;  // (end, p)
  std::uint64_t clients = 0, peak = 0;
  std::size_t peak_live = 0;
  for (const Segment& seg : segments_) {
    last_tick_ = std::max(last_tick_, seg.end);
    for (; !live.empty() && live.top().first <= seg.t0; live.pop()) {
      clients -= live.top().second;
    }
    live.emplace(seg.end, seg.p);
    clients += seg.p;
    peak = std::max(peak, clients);
    peak_live = std::max(peak_live, live.size());
  }
  tick_bound_ = static_cast<std::size_t>(std::min<std::uint64_t>(n_, peak + 1));
  active_.reserve(peak_live);
  runs_.reserve(peak_live);
  merge_buf_.reserve(tick_bound_);
}

void RiffleScheduler::build(NodeId client0, std::uint32_t p, BlockId block0,
                            std::uint32_t kk, Tick t0) {
  if (p == 0 || kk == 0) return;
  // p = 1 is the degenerate riffle, CDTP's chain transfer: kk one-client
  // cycles in which the server streams every block to the lone client.
  const std::uint32_t cycles = kk / p;
  const std::uint32_t rem = kk % p;
  if (cycles > 0) {
    // Last barter (at p = 1, handoff) of the last full cycle: t0 + (cycles-1)*p + 2p - 1.
    segments_.push_back(Segment{t0, t0 + (cycles - 1) * p + 2 * p - 1, client0,
                                p, block0, cycles});
  }
  if (rem == 0) return;

  // Remainder: subgroups of `rem` clients each riffle the leftover blocks
  // (one full cycle; a short final subgroup recurses further), staggered
  // `rem` ticks apart (the server windows are disjoint).
  const Tick t1 = t0 + cycles * p;
  const BlockId b1 = block0 + cycles * p;
  std::uint32_t h = 0;
  for (std::uint32_t start = 0; start < p; start += rem, ++h) {
    build(client0 + start, std::min(rem, p - start), b1, rem, t1 + h * rem);
  }
}

void RiffleScheduler::emit_barters(const Segment& seg, Tick tick,
                                   std::vector<Transfer>& out) const {
  const std::uint32_t p = seg.p;
  const Tick rel = tick - seg.t0;  // >= 1: begin_tick only activates t0 < tick
  if (p < 2 || rel < 3) return;

  // Cycle g is active iff c' = rel - g*p - 2 is in [1, 2p - 3]; solve for g
  // instead of scanning cycles — at most two hit any tick. Cycle g + 1's
  // pairs sum to p less than cycle g's, so all its clients sit below cycle
  // g's: walk g downward. Within a cycle every i < j = c' - i, so the
  // i-run ascends and then the j-run (i descending) — ascending senders.
  const std::uint32_t cmax = 2 * p - 3;
  const std::uint64_t r2 = rel - 2;
  const std::uint64_t gmin = r2 > cmax ? (r2 - cmax + p - 1) / p : 0;
  const std::uint64_t gmax =
      std::min<std::uint64_t>((rel - 3) / p, seg.cycles - 1);
  for (std::uint64_t g = gmax + 1; g-- > gmin;) {
    const auto cp = static_cast<std::uint32_t>(r2 - g * p);  // i + j, in [1, cmax]
    const BlockId cycle_base = seg.block0 + static_cast<std::uint32_t>(g) * p;
    const NodeId c0 = seg.client0;
    const std::uint32_t ilo = cp > p - 1 ? cp - (p - 1) : 0;
    const std::uint32_t ihi = (cp - 1) / 2;
    for (std::uint32_t i = ilo; i <= ihi; ++i) {
      out.push_back(Transfer{c0 + i, c0 + cp - i, cycle_base + i});
    }
    for (std::uint32_t i = ihi + 1; i-- > ilo;) {
      out.push_back(Transfer{c0 + cp - i, c0 + i, cycle_base + cp - i});
    }
  }
}

bool RiffleScheduler::begin_tick(Tick tick) {
  // Ticks strictly increase (scheduler.h), so the cursor only moves forward.
  // Retire before admitting: active_ then never outgrows its reservation.
  std::erase_if(active_, [&](const Segment& seg) { return seg.end < tick; });
  for (; next_segment_ < segments_.size() && segments_[next_segment_].t0 < tick;
       ++next_segment_) {
    const Segment& seg = segments_[next_segment_];
    if (seg.end >= tick) active_.push_back(seg);
  }
  begun_tick_ = tick;
  return true;
}

void RiffleScheduler::generate(Tick tick, std::uint32_t /*shard*/, NodeId first,
                               NodeId last, std::vector<Transfer>& out) {
  if (tick == 0 || tick != begun_tick_) {
    throw std::logic_error("scale riffle: generate(tick " + std::to_string(tick) +
                           ") without begin_tick of that tick");
  }
  if (first != 0 || last != n_) {
    throw std::logic_error("scale riffle: generate over senders [" +
                           std::to_string(first) + ", " + std::to_string(last) +
                           "); a riffle tick is one slice over [0, " +
                           std::to_string(n_) + ")");
  }
  out.reserve(out.size() + tick_bound_);  // grows on the first tick only

  // The server's handoff (sender 0) first: its windows are time-disjoint.
  for (const Segment& seg : active_) {
    const std::uint64_t c = tick - seg.t0 - 1;
    if (c < std::uint64_t{seg.cycles} * seg.p) {
      out.push_back(Transfer{kServer, seg.client0 + static_cast<NodeId>(c % seg.p),
                             seg.block0 + static_cast<BlockId>(c)});
    }
  }
  // Then each segment's ascending run of barters, merged if two interleave.
  const std::size_t base = out.size();
  bool ordered = true;
  runs_.clear();
  for (const Segment& seg : active_) {
    const std::size_t at = out.size();
    emit_barters(seg, tick, out);
    if (out.size() == at) continue;
    if (!runs_.empty() && out[at - 1].from > out[at].from) ordered = false;
    runs_.emplace_back(at - base, out.size() - base);
  }
  if (ordered) return;
  merge_buf_.assign(out.begin() + static_cast<std::ptrdiff_t>(base), out.end());
  for (std::size_t w = base; w < out.size(); ++w) {  // few runs: take the least head
    auto* best = &runs_.front();
    for (auto& run : runs_) {
      if (run.first == run.second) continue;
      if (best->first == best->second ||
          merge_buf_[run.first].from < merge_buf_[best->first].from) {
        best = &run;
      }
    }
    out[w] = merge_buf_[best->first++];
  }
}

std::uint64_t RiffleScheduler::memory_bytes() const {
  return (segments_.capacity() + active_.capacity()) * sizeof(Segment) +
         runs_.capacity() * sizeof(runs_[0]) + merge_buf_.capacity() * sizeof(Transfer);
}

}  // namespace pob::scale
