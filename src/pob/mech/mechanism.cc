#include <algorithm>
#include <cassert>
#include <utility>

#include "pob/core/hash.h"
#include "pob/mech/barter.h"

namespace pob {

std::span<const TickPairNet::Pair> TickPairNet::tally(std::span<const Transfer> transfers) {
  index_.begin_tick(transfers.size());
  pairs_.clear();
  for (const Transfer& tr : transfers) {
    if (tr.from == kServer) continue;
    const bool up = tr.from < tr.to;
    const NodeId lo = up ? tr.from : tr.to;
    const NodeId hi = up ? tr.to : tr.from;
    const std::uint64_t k = (static_cast<std::uint64_t>(lo) << 32) | hi;
    std::uint32_t& pos = index_.value(k);
    if (pos == 0) {
      pairs_.push_back({k, 0});
      pos = static_cast<std::uint32_t>(pairs_.size());
    }
    pairs_[pos - 1].net += up ? 1 : -1;
  }
  return pairs_;
}

std::size_t CreditLedger::find(std::uint64_t k) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = mix64(k) & mask;
  while (slots_[i].key != k && slots_[i].key != kEmpty) i = (i + 1) & mask;
  return i;
}

std::int64_t CreditLedger::net(NodeId from, NodeId to) const {
  if (size_ == 0) return 0;
  const bool flip = from > to;
  const Slot& slot = slots_[find(flip ? key(to, from) : key(from, to))];
  if (slot.key == kEmpty) return 0;
  return flip ? -slot.net : slot.net;
}

void CreditLedger::record(NodeId from, NodeId to) {
  assert(from != to);
  const bool up = from < to;
  const std::uint64_t k = up ? key(from, to) : key(to, from);
  if (slots_.empty()) grow();
  std::size_t i = find(k);
  if (slots_[i].key == k) {
    slots_[i].net += up ? 1 : -1;
    if (slots_[i].net == 0) erase_at(i);
    return;
  }
  if (4 * (size_ + 1) > 3 * slots_.size()) {
    grow();
    i = find(k);
  }
  slots_[i] = {k, up ? 1 : -1};
  ++size_;
}

void CreditLedger::grow() {
  const std::size_t capacity = std::max<std::size_t>(16, 2 * slots_.size());
  const std::vector<Slot> old =
      std::exchange(slots_, std::vector<Slot>(capacity, Slot{kEmpty, 0}));
  for (const Slot& slot : old) {
    if (slot.key != kEmpty) slots_[find(slot.key)] = slot;
  }
}

void CreditLedger::erase_at(std::size_t i) {
  // Backward-shift deletion: walk the chain after the hole and move back
  // every member whose home slot lies cyclically at or before the hole, so
  // no lookup ever stops early at it. No tombstones are left behind.
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = i;
  for (std::size_t j = (i + 1) & mask; slots_[j].key != kEmpty; j = (j + 1) & mask) {
    const std::size_t home = mix64(slots_[j].key) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].key = kEmpty;
  --size_;
}

std::optional<CreditLedger::Excess> CreditLedger::first_excess(
    std::span<const Transfer> transfers, std::uint32_t limit) {
  // Settle each distinct pair of the tick once, keeping the lowest
  // violating key: the same report a sort by key would give.
  const auto bound = static_cast<std::int64_t>(limit);
  std::optional<Excess> lowest;
  std::uint64_t lowest_key = kEmpty;
  for (const auto& [k, tick_net] : tick_net_.tally(transfers)) {
    if (k > lowest_key) continue;  // cannot be the report
    const auto lo = static_cast<NodeId>(k >> 32);
    const auto hi = static_cast<NodeId>(k & 0xffffffffULL);
    const std::int64_t end = net(lo, hi) + tick_net;
    if (end > bound || -end > bound) {
      lowest = Excess{lo, hi, end};
      lowest_key = k;
    }
  }
  return lowest;
}

}  // namespace pob
