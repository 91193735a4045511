#include "pob/sched/riffle_pipeline.h"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <unordered_map>

namespace pob {

RifflePipelineScheduler::RifflePipelineScheduler(std::uint32_t num_nodes,
                                                 std::uint32_t num_blocks,
                                                 std::uint32_t upload_capacity,
                                                 std::uint32_t download_capacity) {
  if (num_nodes < 2) throw std::invalid_argument("riffle: need >= 2 nodes");
  if (num_blocks < 1) throw std::invalid_argument("riffle: need >= 1 block");
  if (upload_capacity < 1 || download_capacity < 1) {
    throw std::invalid_argument("riffle: capacities must be >= 1");
  }
  std::vector<NodeId> clients(num_nodes - 1);
  for (NodeId c = 1; c < num_nodes; ++c) clients[c - 1] = c;
  std::vector<BlockId> blocks(num_blocks);
  for (BlockId b = 0; b < num_blocks; ++b) blocks[b] = b;
  emit(clients, blocks, 0);
  legalize(upload_capacity, download_capacity);
}

void RifflePipelineScheduler::emit(const std::vector<NodeId>& clients,
                                   const std::vector<BlockId>& blocks, Tick t0) {
  const auto p = static_cast<std::uint32_t>(clients.size());
  const auto kk = static_cast<std::uint32_t>(blocks.size());
  if (p == 0 || kk == 0) return;

  // At p = 1 the cycles below are kk lone server hand-offs: the server
  // streams every block to the lone client.
  const std::uint32_t cycles = kk / p;
  const std::uint32_t rem = kk % p;

  // Full cycles: in cycle g the server hands block g*p + i to clients[i] at
  // tick t0 + g*p + i + 1, and clients[i], clients[j] (i < j) swap their
  // cycle-g blocks at tick t0 + g*p + (i+1) + (j+1).
  for (std::uint32_t g = 0; g < cycles; ++g) {
    const Tick base = t0 + g * p;
    for (std::uint32_t i = 0; i < p; ++i) {
      meetings_.push_back(
          {base + i + 1, next_seq_++, {{kServer, clients[i], blocks[g * p + i]}}});
    }
    for (std::uint32_t i = 0; i < p; ++i) {
      for (std::uint32_t j = i + 1; j < p; ++j) {
        meetings_.push_back({base + (i + 1) + (j + 1),
                             next_seq_++,
                             {{clients[i], clients[j], blocks[g * p + i]},
                              {clients[j], clients[i], blocks[g * p + j]}}});
      }
    }
  }

  if (rem == 0) return;

  // Remainder: split clients into subgroups of `rem`, serve each subgroup
  // its own copy of the leftover blocks in sequence — one full cycle apiece;
  // the final subgroup may be smaller than `rem`, and then the whole
  // algorithm recurses.
  const Tick t1 = t0 + cycles * p;
  std::vector<BlockId> leftover(blocks.begin() + cycles * p, blocks.end());
  std::uint32_t h = 0;
  for (std::uint32_t start = 0; start < p; start += rem, ++h) {
    const std::uint32_t size = std::min(rem, p - start);
    std::vector<NodeId> sub(clients.begin() + start, clients.begin() + start + size);
    emit(sub, leftover, t1 + h * rem);
  }
}

void RifflePipelineScheduler::legalize(std::uint32_t upload_capacity,
                                       std::uint32_t download_capacity) {
  // Greedy earliest-fit: process meetings in desired-tick order; a meeting
  // whose participants lack upload/download headroom at its tick slips to
  // the next tick. Ticks never lose capacity, so this terminates.
  const auto cmp = [this](std::uint32_t a, std::uint32_t b) {
    if (meetings_[a].desired != meetings_[b].desired) {
      return meetings_[a].desired > meetings_[b].desired;
    }
    return meetings_[a].seq > meetings_[b].seq;
  };
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>, decltype(cmp)> queue(cmp);
  for (std::uint32_t i = 0; i < meetings_.size(); ++i) queue.push(i);

  const auto slot = [](NodeId node, Tick t) {
    return (static_cast<std::uint64_t>(node) << 32) | t;
  };
  std::unordered_map<std::uint64_t, std::uint32_t> up_used, down_used;
  up_used.reserve(meetings_.size() * 2);
  down_used.reserve(meetings_.size() * 2);

  // Every block a client uploads in a barter came straight from a server
  // hand-off, so each client transfer has exactly one data dependency: the
  // meeting that handed its block to its sender. When tight capacities
  // (d = u) delay a hand-off, the barters bartering that block must slip
  // past it, or the schedule would have a sender uploading a block it has
  // not received yet.
  std::unordered_map<std::uint64_t, std::uint32_t> provider;
  provider.reserve(meetings_.size());
  for (std::uint32_t i = 0; i < meetings_.size(); ++i) {
    const Meeting& m = meetings_[i];
    if (m.transfers.size() == 1 && m.transfers[0].from == kServer) {
      provider[slot(m.transfers[0].to, m.transfers[0].block)] = i;
    }
  }
  std::vector<Tick> placed(meetings_.size(), 0);  // 0 = not placed yet

  while (!queue.empty()) {
    const std::uint32_t idx = queue.top();
    queue.pop();
    Meeting& m = meetings_[idx];

    Tick earliest = m.desired;
    for (const Transfer& tr : m.transfers) {
      if (tr.from == kServer) continue;
      const auto it = provider.find(slot(tr.from, tr.block));
      if (it == provider.end()) continue;
      // Unplaced hand-offs can still slip further; chase their current
      // desired tick and re-check once they settle.
      const Tick dep = placed[it->second] != 0 ? placed[it->second]
                                               : meetings_[it->second].desired;
      earliest = std::max(earliest, dep + 1);
    }
    if (earliest > m.desired) {
      m.desired = earliest;
      queue.push(idx);
      continue;
    }

    bool fits = true;
    for (const Transfer& tr : m.transfers) {
      if (up_used[slot(tr.from, m.desired)] + 1 > upload_capacity ||
          down_used[slot(tr.to, m.desired)] + 1 > download_capacity) {
        fits = false;
        break;
      }
    }
    if (!fits) {
      m.desired += 1;
      queue.push(idx);
      continue;
    }
    for (const Transfer& tr : m.transfers) {
      ++up_used[slot(tr.from, m.desired)];
      ++down_used[slot(tr.to, m.desired)];
    }
    placed[idx] = m.desired;
    if (schedule_.size() < m.desired) schedule_.resize(m.desired);
    for (const Transfer& tr : m.transfers) schedule_[m.desired - 1].push_back(tr);
  }
}

void RifflePipelineScheduler::plan_tick(Tick tick, const SwarmState& /*state*/,
                                        std::vector<Transfer>& out) {
  if (tick == 0 || tick > schedule_.size()) return;
  const auto& planned = schedule_[tick - 1];
  out.insert(out.end(), planned.begin(), planned.end());
}

}  // namespace pob
