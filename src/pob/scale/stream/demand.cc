#include "pob/scale/stream/demand.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "pob/exp/table.h"

namespace pob::scale::stream {

DemandTracker::DemandTracker(const StreamDemand& demand, std::uint32_t num_nodes,
                             std::uint32_t num_blocks, std::span<const Tick> arrival)
    : demand_(demand),
      n_(num_nodes),
      k_(num_blocks),
      startup_(std::clamp<std::uint32_t>(demand.startup_blocks, 1, num_blocks)),
      stride_((num_blocks + 63) / 64) {
  if (n_ < 2) throw std::invalid_argument("demand tracker: num_nodes < 2");
  if (demand_.interval < 1) throw std::invalid_argument("demand tracker: interval < 1");
  have_.assign(std::size_t{n_} * stride_, 0);
  next_block_.assign(n_, 0);
  arrival_.assign(arrival.begin(), arrival.end());
  if (arrival_.empty()) arrival_.assign(n_, 0);
  if (arrival_.size() != n_) {
    throw std::invalid_argument("demand tracker: arrival size mismatch");
  }
  start_.assign(n_, kNever);
  next_play_.assign(n_, 0);
  next_due_.assign(n_, 0);
  rebuffer_.assign(n_, 0);
  dl_block_.assign(n_, kNoBlock);
  // The server "starts" trivially and never rebuffers; excluding it here
  // keeps every per-client loop below a plain 1..n-1 scan.
  start_[kServer] = 0;
  next_block_[kServer] = k_;
  next_play_[kServer] = k_;
}

void DemandTracker::begin_playback(NodeId c, Tick t) {
  start_[c] = t;
  next_play_[c] = startup_;
  next_due_[c] = t + demand_.interval;
  if (demand_.deadlines && startup_ < k_) {
    dl_block_[c] = startup_;
    deadlines_.push({t + demand_.interval + demand_.deadline_slack, c,
                     EventKind::kDeadline, 0, 0, startup_});
  }
}

void DemandTracker::consume_prefix(NodeId c, Tick t) {
  // Every block the prefix just crossed became playable at tick t. A block
  // already buffered ahead of its due tick plays on schedule; a late block
  // stalls the playhead from its due tick until t.
  while (next_play_[c] < next_block_[c] && next_play_[c] < k_) {
    Tick play = next_due_[c];
    if (t > next_due_[c]) {
      rebuffer_[c] += t - next_due_[c];
      play = t;
    }
    next_due_[c] = play + demand_.interval;
    ++next_play_[c];
  }
}

void DemandTracker::credit_remaining_deadlines(NodeId c) {
  // The client holds every block, so each not-yet-evaluated deadline is met
  // for certain; count them now and retire the timer (a stale fire is
  // ignored because dl_block_ no longer matches).
  if (dl_block_[c] != kNoBlock) {
    deadline_checks_ += k_ - dl_block_[c];
    dl_block_[c] = kNoBlock;
  }
}

void DemandTracker::on_delivery(NodeId to, BlockId block, Tick t) {
  std::uint64_t& word = have_[std::size_t{to} * stride_ + block / 64];
  const std::uint64_t bit = std::uint64_t{1} << (block % 64);
  if ((word & bit) != 0) return;  // duplicate (server pre-seed etc.)
  word |= bit;
  if (block != next_block_[to]) return;  // prefix unchanged
  // Advance the contiguous prefix across any blocks buffered out of order.
  const std::uint64_t* row = have_.data() + std::size_t{to} * stride_;
  std::uint32_t p = next_block_[to];
  while (p < k_ && (row[p / 64] >> (p % 64) & 1) != 0) ++p;
  next_block_[to] = p;
  if (to == kServer) return;
  if (start_[to] == kNever) {
    if (p >= startup_) begin_playback(to, t);
  }
  if (start_[to] != kNever) consume_prefix(to, t);
  if (p == k_ && demand_.deadlines) credit_remaining_deadlines(to);
}

void DemandTracker::end_tick(Tick t) {
  if (!demand_.deadlines) return;
  for (const StreamEvent& ev : deadlines_.collect(t)) {
    const NodeId c = ev.node;
    if (dl_block_[c] != ev.block) continue;  // stale: client completed
    ++deadline_checks_;
    if (next_block_[c] <= ev.block) ++deadline_misses_;
    const BlockId next = ev.block + 1;
    if (next < k_) {
      dl_block_[c] = next;
      deadlines_.push({t + demand_.interval, c, EventKind::kDeadline, 0, 0, next});
    } else {
      dl_block_[c] = kNoBlock;
    }
  }
}

void DemandTracker::finalize(Tick last_tick, RunResult& result) {
  result.startup_latency.assign(n_ - 1, 0.0);
  result.rebuffer_ticks.assign(n_ - 1, 0);
  result.never_started = 0;
  result.rebuffered_clients = 0;
  for (NodeId c = 1; c < n_; ++c) {
    if (start_[c] == kNever) {
      // Censored, PR-1 convention: the run ended before playback began.
      result.startup_latency[c - 1] = std::numeric_limits<double>::quiet_NaN();
      ++result.never_started;
    } else {
      result.startup_latency[c - 1] =
          static_cast<double>(start_[c]) - static_cast<double>(arrival_[c]);
      // Tail stall: playback has been waiting on the next block since its
      // due tick, and the run ended at last_tick without delivering it.
      if (next_play_[c] < k_ && next_due_[c] < last_tick) {
        rebuffer_[c] += last_tick - next_due_[c];
      }
    }
    result.rebuffer_ticks[c - 1] = rebuffer_[c];
    if (rebuffer_[c] > 0) ++result.rebuffered_clients;
  }
  result.deadline_misses = deadline_misses_;
  result.deadline_checks = deadline_checks_;
}

std::uint64_t DemandTracker::memory_bytes() const {
  std::uint64_t bytes = have_.capacity() * sizeof(std::uint64_t);
  bytes += next_block_.capacity() * sizeof(std::uint32_t);
  bytes += arrival_.capacity() * sizeof(Tick);
  bytes += start_.capacity() * sizeof(Tick);
  bytes += next_play_.capacity() * sizeof(std::uint32_t);
  bytes += next_due_.capacity() * sizeof(Tick);
  bytes += rebuffer_.capacity() * sizeof(Count);
  bytes += dl_block_.capacity() * sizeof(BlockId);
  bytes += deadlines_.memory_bytes();
  return bytes;
}

StartupStats startup_stats(const RunResult& result) {
  StartupStats s;
  std::vector<double> v;
  for (const double lat : result.startup_latency) {
    if (!std::isnan(lat)) v.push_back(lat);
  }
  s.started = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  double sum = 0.0;
  for (const double lat : v) sum += lat;
  s.mean = sum / static_cast<double>(v.size());
  s.p50 = v[v.size() / 2];
  s.p95 = v[v.size() * 95 / 100];
  s.max = v.back();
  return s;
}

std::string describe_viewer_metrics(const RunResult& r) {
  const StartupStats lat = startup_stats(r);
  return "startup latency: " + std::to_string(lat.started) + " started / " +
         std::to_string(r.never_started) + " censored, mean " + fmt(lat.mean, 2) +
         " p50 " + fmt(lat.p50, 1) + " p95 " + fmt(lat.p95, 1) + " max " +
         fmt(lat.max, 1) + "; rebuffer " + std::to_string(r.total_rebuffer_ticks()) +
         " ticks over " + std::to_string(r.rebuffered_clients) + " clients; deadline misses " +
         std::to_string(r.deadline_misses) + "/" + std::to_string(r.deadline_checks) + " (" +
         fmt(r.deadline_miss_fraction(), 4) + ")";
}

}  // namespace pob::scale::stream
