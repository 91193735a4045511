// CreditLedger against a std::map reference: the flat open-addressed table
// must read exactly what a plain per-pair sum reads, hold only the pairs
// whose net is nonzero, and report its slot array as its memory.
//
// The targeted cases build their probe chains from the table's own hash
// (splitmix64 of the (min << 32) | max key, masked to the slot count), so
// they place keys at the end of the table, wrap chains around it and push
// a full chain across a growth on purpose rather than by luck.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include "pob/core/hash.h"
#include "pob/core/rng.h"
#include "pob/mech/barter.h"

namespace pob {
namespace {

using Pair = std::pair<NodeId, NodeId>;  // (lo, hi), lo < hi

/// The reference: net lo -> hi per pair, kept even when it returns to 0.
class MapLedger {
 public:
  void record(NodeId from, NodeId to) {
    std::int64_t& net = from < to ? nets_[{from, to}] : nets_[{to, from}];
    nonzero_ -= net != 0;
    net += from < to ? 1 : -1;
    nonzero_ += net != 0;
  }
  std::int64_t net(NodeId from, NodeId to) const {
    const bool flip = from > to;
    const auto it = nets_.find(flip ? Pair{to, from} : Pair{from, to});
    if (it == nets_.end()) return 0;
    return flip ? -it->second : it->second;
  }
  std::size_t nonzero() const { return nonzero_; }
  const std::map<Pair, std::int64_t>& nets() const { return nets_; }

 private:
  std::map<Pair, std::int64_t> nets_;
  std::size_t nonzero_ = 0;
};

/// The ledger's home slot for pair (lo, hi) in a table of `slots` slots.
std::size_t home_slot(NodeId lo, NodeId hi, std::size_t slots) {
  return mix64((static_cast<std::uint64_t>(lo) << 32) | hi) & (slots - 1);
}

/// The first `count` pairs (lo, hi), in (lo, hi) order, whose home slot is
/// `home` in a table of `slots` slots.
std::vector<Pair> pairs_homed_at(std::size_t home, std::size_t slots, std::size_t count) {
  std::vector<Pair> out;
  for (NodeId lo = 1; out.size() < count; ++lo) {
    for (NodeId hi = lo + 1; hi < lo + 64 && out.size() < count; ++hi) {
      if (home_slot(lo, hi, slots) == home) out.push_back({lo, hi});
    }
  }
  return out;
}

std::size_t slot_count(const CreditLedger& ledger) { return ledger.memory_bytes() / 16; }

/// Both orientations of every pair the reference has seen, plus the sizes.
::testing::AssertionResult matches(const CreditLedger& ledger, const MapLedger& ref) {
  for (const auto& [pair, net] : ref.nets()) {
    const auto [lo, hi] = pair;
    if (ledger.net(lo, hi) != net || ledger.net(hi, lo) != -net) {
      return ::testing::AssertionFailure()
             << "net(" << lo << ", " << hi << ") = " << ledger.net(lo, hi) << " / net("
             << hi << ", " << lo << ") = " << ledger.net(hi, lo) << ", reference " << net;
    }
  }
  if (ledger.num_pairs() != ref.nonzero()) {
    return ::testing::AssertionFailure() << "num_pairs " << ledger.num_pairs()
                                         << ", reference nonzero " << ref.nonzero();
  }
  const std::size_t slots = slot_count(ledger);
  if (ledger.memory_bytes() != slots * 16 || (slots & (slots - 1)) != 0 ||
      4 * ledger.num_pairs() > 3 * slots) {
    return ::testing::AssertionFailure() << "memory_bytes " << ledger.memory_bytes()
                                         << " for " << ledger.num_pairs() << " pairs";
  }
  return ::testing::AssertionSuccess();
}

TEST(CreditLedger, EmptyLedgerReadsZeroAndHoldsNothing) {
  const CreditLedger ledger;
  EXPECT_EQ(ledger.net(3, 7), 0);
  EXPECT_EQ(ledger.net(7, 3), 0);
  EXPECT_EQ(ledger.num_pairs(), 0u);
  EXPECT_EQ(ledger.memory_bytes(), 0u);
}

TEST(CreditLedger, SettledPairIsErasedAndCanReturn) {
  CreditLedger ledger;
  ledger.record(1, 2);
  EXPECT_EQ(ledger.num_pairs(), 1u);
  EXPECT_EQ(ledger.memory_bytes(), 16u * 16);  // the first table: 16 slots
  ledger.record(2, 1);
  EXPECT_EQ(ledger.net(1, 2), 0);
  EXPECT_EQ(ledger.num_pairs(), 0u);
  ledger.record(2, 1);  // back, the other way round
  EXPECT_EQ(ledger.net(1, 2), -1);
  EXPECT_EQ(ledger.net(2, 1), 1);
  EXPECT_EQ(ledger.num_pairs(), 1u);
  EXPECT_EQ(ledger.net(1, 3), 0);  // absent beside a present pair
}

TEST(CreditLedger, TopNodeIdsAreOrdinaryKeys) {
  // (2^32 - 2, 2^32 - 1) packs to the key one below the empty marker.
  constexpr NodeId kTop = 0xffffffffu;
  CreditLedger ledger;
  ledger.record(kTop, kTop - 1);
  ledger.record(kTop, kTop - 1);
  EXPECT_EQ(ledger.net(kTop, kTop - 1), 2);
  EXPECT_EQ(ledger.net(kTop - 1, kTop), -2);
  EXPECT_EQ(ledger.net(1, kTop), 0);
  EXPECT_EQ(ledger.num_pairs(), 1u);
}

TEST(CreditLedger, DeletionsWrapAroundTheTableEnd) {
  // Slot 14: one pair; slot 15: three pairs whose chain wraps to slots 0
  // and 1; home slot 0: two pairs pushed on to slots 2 and 3. Erasing in
  // every order shifts members back across the end of the table.
  constexpr std::size_t kSlots = 16;
  std::vector<Pair> pairs = pairs_homed_at(14, kSlots, 1);
  for (const Pair& p : pairs_homed_at(15, kSlots, 3)) pairs.push_back(p);
  for (const Pair& p : pairs_homed_at(0, kSlots, 2)) pairs.push_back(p);
  ASSERT_EQ(pairs.size(), 6u);

  std::array<std::size_t, 6> order{};
  std::iota(order.begin(), order.end(), 0);
  int permutations = 0;
  do {
    CreditLedger ledger;
    MapLedger ref;
    for (const auto& [lo, hi] : pairs) {
      ledger.record(hi, lo);  // net lo -> hi of -1
      ref.record(hi, lo);
    }
    ASSERT_EQ(slot_count(ledger), kSlots);
    for (const std::size_t i : order) {
      const auto [lo, hi] = pairs[i];
      ledger.record(lo, hi);  // settles the pair: erased
      ref.record(lo, hi);
      ASSERT_TRUE(matches(ledger, ref)) << "permutation " << permutations;
    }
    EXPECT_EQ(ledger.num_pairs(), 0u);
    ++permutations;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(permutations, 720);
}

TEST(CreditLedger, FullChainCrossesAGrowth) {
  // Twelve pairs homed at slot 15 of the 16-slot table fill it to its 3/4
  // load as one chain wrapping to slot 10; the thirteenth doubles it to 32.
  CreditLedger ledger;
  MapLedger ref;
  const std::vector<Pair> chain = pairs_homed_at(15, 16, 13);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const auto [lo, hi] = chain[i];
    ledger.record(lo, hi);
    ref.record(lo, hi);
    ASSERT_TRUE(matches(ledger, ref)) << "after pair " << i;
    EXPECT_EQ(slot_count(ledger), i < 12 ? 16u : 32u) << "after pair " << i;
  }
  // Settle every other pair in the grown table, then bring them back.
  for (std::size_t i = 0; i < chain.size(); i += 2) {
    ledger.record(chain[i].second, chain[i].first);
    ref.record(chain[i].second, chain[i].first);
    ASSERT_TRUE(matches(ledger, ref)) << "settling pair " << i;
  }
  for (std::size_t i = 0; i < chain.size(); i += 2) {
    ledger.record(chain[i].second, chain[i].first);
    ref.record(chain[i].second, chain[i].first);
    ASSERT_TRUE(matches(ledger, ref)) << "re-inserting pair " << i;
  }
  EXPECT_EQ(ledger.num_pairs(), 13u);
  EXPECT_EQ(slot_count(ledger), 32u);
}

TEST(CreditLedger, RandomRecordsMatchAMapReference) {
  // Random transfers among few nodes: pairs settle to 0 and reopen often,
  // nets wander past +-1, and the table grows through several doublings.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const NodeId nodes : {6u, 24u, 90u}) {
      Rng rng(seed * 1000 + nodes);
      CreditLedger ledger;
      MapLedger ref;
      for (int step = 0; step < 20000; ++step) {
        const NodeId from = 1 + rng.below(nodes);
        NodeId to = 1 + rng.below(nodes - 1);
        if (to >= from) ++to;
        ledger.record(from, to);
        ref.record(from, to);
        ASSERT_EQ(ledger.net(from, to), ref.net(from, to))
            << "seed " << seed << " nodes " << nodes << " step " << step;
        ASSERT_EQ(ledger.net(to, from), ref.net(to, from))
            << "seed " << seed << " nodes " << nodes << " step " << step;
        ASSERT_EQ(ledger.num_pairs(), ref.nonzero())
            << "seed " << seed << " nodes " << nodes << " step " << step;
        if (step % 500 == 0) {
          ASSERT_TRUE(matches(ledger, ref))
              << "seed " << seed << " nodes " << nodes << " step " << step;
        }
      }
      ASSERT_TRUE(matches(ledger, ref)) << "seed " << seed << " nodes " << nodes;
      EXPECT_GT(ledger.num_pairs(), 0u);
    }
  }
}

}  // namespace
}  // namespace pob
