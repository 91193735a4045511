// Incentive mechanisms of §3, as machine-checkable constraints on each
// tick's simultaneous transfer set.
//
//   StrictBarter   (§3.1)  client->client transfers must come in simultaneous
//                          pairwise exchanges; only the server gives freely.
//   CreditLimited  (§3.2)  node u uploads to v only while the net blocks
//                          sent from u to v (minus those received back)
//                          stays <= s, the credit limit.
//   CyclicBarter   (§3.3)  transfers clear if they lie on a simultaneous
//                          directed barter cycle of length <= max_cycle_len
//                          (3 = the paper's "triangular barter"); transfers
//                          that do not clear cyclically fall back to the
//                          pairwise credit limit.
//
// The server is exempt everywhere: "the one exception to barter-based
// transfers is for the server itself, which uploads data without receiving
// anything in return" (§3.1). Transfers *to* the server are never legal.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "pob/core/mechanism.h"
#include "pob/core/pair_table.h"
#include "pob/core/types.h"

namespace pob {

/// One tick's client->client transfers netted per unordered client pair,
/// in O(transfers) through a reused PairTable: +1 for each lo -> hi
/// transfer, -1 for each hi -> lo, so reciprocal transfers cancel.
class TickPairNet {
 public:
  struct Pair {
    std::uint64_t key;  ///< (lo << 32) | hi: key order is (lo, hi) order
    std::int64_t net;   ///< net lo -> hi over the tick
  };

  /// The distinct client pairs of `transfers`, in first-seen order, with
  /// their net. Server uploads are skipped. Valid until the next call.
  std::span<const Pair> tally(std::span<const Transfer> transfers);

  std::uint64_t memory_bytes() const {
    return index_.memory_bytes() + pairs_.capacity() * sizeof(Pair);
  }

 private:
  PairTable index_;  // pair key -> 1 + its position in pairs_
  std::vector<Pair> pairs_;
};

/// Pairwise net-transfer ledger between clients. Positive net(u, v) means u
/// has sent more blocks to v than it received back.
///
/// Holds only what is owed: a flat open-addressed table (power-of-two
/// capacity, linear probing, splitmix64 hash, grown at a load of 3/4) of
/// the pairs whose net is nonzero. A record() that brings a pair back to 0
/// erases it by backward-shift deletion, so an absent pair and a settled
/// one read the same. Ledger size follows the debt outstanding, not the
/// number of pairs that ever traded.
class CreditLedger {
 public:
  /// A client pair whose net would leave [-limit, limit] (see first_excess).
  struct Excess {
    NodeId lo;
    NodeId hi;
    std::int64_t end_net;  ///< net lo -> hi after the tick
  };

  /// Net blocks sent from `from` to `to` minus blocks received back.
  std::int64_t net(NodeId from, NodeId to) const;

  /// Records one block sent from `from` to `to` (two distinct clients).
  void record(NodeId from, NodeId to);

  /// Nets one tick's client->client `transfers` (server uploads skipped)
  /// per pair and returns the lowest (lo, hi) pair whose end-of-tick net
  /// would exceed `limit` in either direction; nullopt when none does.
  /// Reciprocal transfers within the tick cancel. O(transfers): one
  /// hashed pass to net, then one ledger lookup per distinct pair.
  std::optional<Excess> first_excess(std::span<const Transfer> transfers,
                                     std::uint32_t limit);

  /// Pairs with a nonzero net.
  std::size_t num_pairs() const { return size_; }

  /// Heap bytes held by the ledger, exactly: the slot array and
  /// first_excess's scratch (empty until first_excess is called).
  std::uint64_t memory_bytes() const {
    return slots_.size() * sizeof(Slot) + tick_net_.memory_bytes();
  }

 private:
  // Keyed on (min << 32) | max; net is from min-id to max-id. min < max, so
  // no pair has the all-ones key and it marks an empty slot.
  struct Slot {
    std::uint64_t key;
    std::int64_t net;
  };
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  static std::uint64_t key(NodeId a, NodeId b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }
  /// The slot holding `k`, or the empty slot that ends its probe chain.
  /// Requires a nonempty table.
  std::size_t find(std::uint64_t k) const;
  void grow();
  /// Empties slot i and shifts later members of its chain back into place.
  void erase_at(std::size_t i);

  std::vector<Slot> slots_;  // empty, or a power-of-two count
  std::size_t size_ = 0;     // occupied slots
  TickPairNet tick_net_;     // first_excess's scratch
};

/// §3.1 strict barter: within a tick, client->client transfers must form
/// simultaneous exchange pairs — for every transfer u->v there is a matching
/// v->u (counted with multiplicity).
class StrictBarter final : public Mechanism {
 public:
  std::string_view name() const override { return "strict-barter"; }
  std::optional<std::string> check_tick(Tick tick, std::span<const Transfer> transfers,
                                        const SwarmState& state) override;

 private:
  TickPairNet tick_net_;
};

/// §3.2 credit-limited barter with credit limit s >= 1: at the end of every
/// tick, net(u -> v) <= s must hold for every ordered client pair that
/// transferred this tick. Simultaneous reciprocal transfers within a tick
/// cancel, exactly like the symmetric exchanges of the hypercube algorithm.
class CreditLimited final : public Mechanism {
 public:
  explicit CreditLimited(std::uint32_t credit_limit);

  std::string_view name() const override { return "credit-limited"; }
  std::optional<std::string> check_tick(Tick tick, std::span<const Transfer> transfers,
                                        const SwarmState& state) override;
  void commit_tick(Tick tick, std::span<const Transfer> transfers,
                   const SwarmState& state) override;

  /// Conservative pre-check: guarantees a single u->v upload this tick stays
  /// within the limit regardless of what else happens (reciprocal transfers
  /// only help).
  bool may_upload(NodeId from, NodeId to) const override;

  std::uint32_t credit_limit() const { return credit_limit_; }
  const CreditLedger& ledger() const { return ledger_; }

 private:
  std::uint32_t credit_limit_;
  CreditLedger ledger_;
};

/// §3.3 cyclic ("triangular" at max_cycle_len = 3) barter with an optional
/// credit fallback: a transfer clears for free if it lies on a simultaneous
/// directed cycle of client transfers of length <= max_cycle_len (the barter
/// value returns around the cycle within the tick); transfers that do not
/// clear must respect the pairwise credit limit, like CreditLimited.
/// Cleared transfers do not touch the ledger.
class CyclicBarter final : public Mechanism {
 public:
  CyclicBarter(std::uint32_t max_cycle_len, std::uint32_t credit_limit);

  std::string_view name() const override { return "cyclic-barter"; }
  std::optional<std::string> check_tick(Tick tick, std::span<const Transfer> transfers,
                                        const SwarmState& state) override;
  void commit_tick(Tick tick, std::span<const Transfer> transfers,
                   const SwarmState& state) override;
  bool may_upload(NodeId from, NodeId to) const override;

  std::uint32_t max_cycle_len() const { return max_cycle_len_; }
  std::uint32_t credit_limit() const { return credit_limit_; }
  const CreditLedger& ledger() const { return ledger_; }

 private:
  /// Marks which of `transfers` lie on a directed client-transfer cycle of
  /// length <= max_cycle_len_. Returns an error for transfers to the server.
  std::optional<std::string> classify(std::span<const Transfer> transfers,
                                      std::vector<char>& cleared) const;

  std::uint32_t max_cycle_len_;
  std::uint32_t credit_limit_;
  CreditLedger ledger_;
};

/// Convenience: the paper's triangular barter with credit limit 1.
inline CyclicBarter make_triangular_barter(std::uint32_t credit_limit = 1) {
  return CyclicBarter(3, credit_limit);
}

}  // namespace pob
