#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "pob/mech/barter.h"

namespace pob {

CyclicBarter::CyclicBarter(std::uint32_t max_cycle_len, std::uint32_t credit_limit)
    : max_cycle_len_(max_cycle_len), credit_limit_(credit_limit) {
  if (max_cycle_len_ < 2) {
    throw std::invalid_argument("CyclicBarter: cycles shorter than 2 are impossible");
  }
}

std::optional<std::string> CyclicBarter::classify(std::span<const Transfer> transfers,
                                                  std::vector<char>& cleared) const {
  cleared.assign(transfers.size(), 0);
  // Out-edge index over client->client transfers of this tick.
  std::unordered_map<NodeId, std::vector<std::uint32_t>> out;
  for (std::uint32_t i = 0; i < transfers.size(); ++i) {
    const Transfer& tr = transfers[i];
    if (tr.from == kServer) {
      cleared[i] = 1;  // server gives freely
      continue;
    }
    if (tr.to == kServer) {
      return "client " + std::to_string(tr.from) + " uploads to the server";
    }
    out[tr.from].push_back(i);
  }
  // For each uncleared edge u->v, search for a directed path v ~> u of at
  // most max_cycle_len_ - 1 edges; if found, the whole cycle clears. Upload
  // capacities keep out-degrees tiny, so bounded DFS is cheap.
  std::vector<std::uint32_t> path;
  for (std::uint32_t i = 0; i < transfers.size(); ++i) {
    if (cleared[i]) continue;
    const Transfer& start = transfers[i];
    path.clear();
    // Iterative DFS with explicit stack of (node, next-edge cursor).
    struct Frame {
      NodeId node;
      std::uint32_t cursor;
    };
    std::vector<Frame> stack{{start.to, 0}};
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.node == start.from) {
        // Found a cycle: start edge plus everything on the path.
        cleared[i] = 1;
        for (const std::uint32_t e : path) cleared[e] = 1;
        break;
      }
      if (stack.size() > max_cycle_len_ - 1) {  // path length limit reached
        stack.pop_back();
        if (!path.empty()) path.pop_back();
        continue;
      }
      const auto it = out.find(f.node);
      if (it == out.end() || f.cursor >= it->second.size()) {
        stack.pop_back();
        if (!path.empty()) path.pop_back();
        continue;
      }
      const std::uint32_t edge = it->second[f.cursor++];
      path.push_back(edge);
      stack.push_back({transfers[edge].to, 0});
    }
  }
  return std::nullopt;
}

std::optional<std::string> CyclicBarter::check_tick(Tick /*tick*/,
                                                    std::span<const Transfer> transfers,
                                                    const SwarmState& /*state*/) {
  std::vector<char> cleared;
  if (auto err = classify(transfers, cleared)) return err;
  // Uncleared transfers must fit within the pairwise credit limit.
  std::vector<Transfer> uncleared;
  for (std::uint32_t i = 0; i < transfers.size(); ++i) {
    if (!cleared[i]) uncleared.push_back(transfers[i]);
  }
  if (const auto excess = ledger_.first_excess(uncleared, credit_limit_)) {
    std::ostringstream os;
    os << "credit limit " << credit_limit_ << " exceeded between clients " << excess->lo
       << " and " << excess->hi << " outside barter cycles (end-of-tick net "
       << excess->end_net << ")";
    return os.str();
  }
  return std::nullopt;
}

void CyclicBarter::commit_tick(Tick /*tick*/, std::span<const Transfer> transfers,
                               const SwarmState& /*state*/) {
  std::vector<char> cleared;
  (void)classify(transfers, cleared);  // already validated in check_tick
  for (std::uint32_t i = 0; i < transfers.size(); ++i) {
    if (cleared[i]) continue;
    const Transfer& tr = transfers[i];
    ledger_.record(tr.from, tr.to);
  }
}

bool CyclicBarter::may_upload(NodeId from, NodeId to) const {
  if (from == kServer) return true;
  if (to == kServer) return false;
  return ledger_.net(from, to) + 1 <= static_cast<std::int64_t>(credit_limit_);
}

}  // namespace pob
