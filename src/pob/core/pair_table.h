// A per-tick set of 64-bit pair keys, (a << 32) | b, shared by the engines'
// per-tick checks: the scale merge's (receiver, block) admission, the core
// engine's duplicate-delivery check and the barter mechanisms' per-pair
// netting.

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "pob/core/hash.h"

namespace pob {

/// Open-addressed and epoch-stamped, so a tick reset is O(1) and a million
/// inserts touch no allocator. Each key carries a 32-bit value that reads 0
/// when the key is first inserted in a tick. The table only grows.
///
/// Defined in the header, not a .cc: the scale merge inserts from its
/// per-intent admission loop, and the build uses no link-time optimization
/// to inline across libraries.
class PairTable {
 public:
  /// Empties the table for a tick of up to `expected` keys (load <= 1/2).
  /// Must precede the first insert or value.
  void begin_tick(std::size_t expected) {
    std::size_t want = 16;
    while (want < expected * 2) want <<= 1;
    if (slots_.size() < want) {
      slots_.assign(want, Slot{0, 0, 0});
      mask_ = want - 1;
      epoch_ = 0;
    }
    if (++epoch_ == 0) {  // epoch wrapped: stale stamps would alias
      for (Slot& s : slots_) s.epoch = 0;
      epoch_ = 1;
    }
  }

  /// Adds `key`; false if it was already present this tick.
  bool insert(std::uint64_t key) { return claim(key).second; }

  /// The value stored with `key` this tick, inserting the key (value 0) if
  /// it is absent.
  std::uint32_t& value(std::uint64_t key) { return claim(key).first->value; }

  std::uint64_t memory_bytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  // Key, epoch and value share a 16-byte slot, so a probe touches one cache
  // line, not a line in each of several parallel arrays.
  struct Slot {
    std::uint64_t key;
    std::uint32_t epoch;
    std::uint32_t value;
  };

  // The slot holding `key` this tick, and whether this call inserted it.
  std::pair<Slot*, bool> claim(std::uint64_t key) {
    auto i = static_cast<std::size_t>(mix64(key) & mask_);
    while (slots_[i].epoch == epoch_) {
      if (slots_[i].key == key) return {&slots_[i], false};
      i = (i + 1) & static_cast<std::size_t>(mask_);
    }
    slots_[i] = Slot{key, epoch_, 0};
    return {&slots_[i], true};
  }

  std::vector<Slot> slots_;
  std::uint64_t mask_ = 0;
  std::uint32_t epoch_ = 0;
};

}  // namespace pob
