#include <algorithm>
#include <cassert>
#include <utility>

#include "pob/mech/barter.h"

namespace pob {
namespace {

// splitmix64 finalizer; good avalanche for open-addressed probing.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

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
    std::span<const Transfer> transfers, std::uint32_t limit) const {
  // (pair key, +-1) per client transfer, same sign convention as the
  // ledger; sorting by key makes the report the lowest violating pair.
  std::vector<std::pair<std::uint64_t, std::int64_t>> steps;
  steps.reserve(transfers.size());
  for (const Transfer& tr : transfers) {
    if (tr.from == kServer) continue;
    steps.emplace_back(tr.from < tr.to ? key(tr.from, tr.to) : key(tr.to, tr.from),
                       tr.from < tr.to ? 1 : -1);
  }
  std::sort(steps.begin(), steps.end());
  const auto bound = static_cast<std::int64_t>(limit);
  for (std::size_t i = 0; i < steps.size();) {
    const std::uint64_t k = steps[i].first;
    const auto lo = static_cast<NodeId>(k >> 32);
    const auto hi = static_cast<NodeId>(k & 0xffffffffULL);
    std::int64_t end = net(lo, hi);
    for (; i < steps.size() && steps[i].first == k; ++i) end += steps[i].second;
    if (end > bound || -end > bound) return Excess{lo, hi, end};
  }
  return std::nullopt;
}

}  // namespace pob
