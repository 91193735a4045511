#include "pob/core/engine.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <sstream>
#include <unordered_set>

#include "pob/core/pair_table.h"

namespace pob {

double RunResult::mean_client_completion() const {
  if (client_completion.empty()) return 0.0;
  const auto sum = std::accumulate(client_completion.begin(),
                                   client_completion.end(), std::uint64_t{0});
  return static_cast<double>(sum) / static_cast<double>(client_completion.size());
}

double RunResult::deadline_miss_fraction() const {
  if (deadline_checks == 0) return 0.0;
  return static_cast<double>(deadline_misses) /
         static_cast<double>(deadline_checks);
}

Count RunResult::total_rebuffer_ticks() const {
  return std::accumulate(rebuffer_ticks.begin(), rebuffer_ticks.end(), Count{0});
}

double RunResult::utilization(Tick t, const EngineConfig& cfg) const {
  if (t == 0 || t > uploads_per_tick.size()) return 0.0;
  if (t <= active_slots_per_tick.size()) {
    const double active = static_cast<double>(active_slots_per_tick[t - 1]);
    if (active <= 0.0) return 0.0;  // everyone but the server departed
    return static_cast<double>(uploads_per_tick[t - 1]) / active;
  }
  double slots = 0.0;
  if (!cfg.upload_capacities.empty()) {
    for (const std::uint32_t c : cfg.upload_capacities) slots += c;
  } else {
    slots = static_cast<double>(cfg.upload_capacity) *
                static_cast<double>(cfg.num_nodes - 1) +
            static_cast<double>(cfg.upload_cap(kServer));
  }
  return static_cast<double>(uploads_per_tick[t - 1]) / slots;
}

Tick default_tick_cap(std::uint32_t num_nodes, std::uint32_t num_blocks) {
  // Generous: covers even the slowest deterministic baseline in this repo
  // (binomial tree sending one block at a time, T = k * ceil(log2 n)) with
  // ample headroom, since ceil(log2 n) <= 32 for any 32-bit n and the 66x
  // block factor doubles that. Computed in 64 bits and saturated: near
  // n = 2^31 the sum itself would wrap Tick and yield a tiny cap.
  const std::uint64_t cap = 1024ull + 2ull * num_nodes + 66ull * num_blocks;
  return static_cast<Tick>(
      std::min<std::uint64_t>(cap, std::numeric_limits<Tick>::max()));
}

void validate_config(const EngineConfig& config) {
  if (config.num_nodes < 2) throw std::invalid_argument("config: num_nodes < 2");
  if (config.num_blocks < 1) throw std::invalid_argument("config: num_blocks < 1");
  if (config.upload_capacity < 1) {
    throw std::invalid_argument("config: upload_capacity < 1");
  }
  if (config.download_capacity < 1) {
    throw std::invalid_argument("config: download_capacity < 1");
  }

  const std::uint32_t n = config.num_nodes;
  // Shape errors are EngineViolations with distinct messages: they are
  // machine-checked preconditions of the §2.1 model, and the differential
  // oracle (pob/check) mirrors each rule independently. First the limit: a
  // possession row has (k + 63) / 64 words, computed in 32 bits, so past
  // this k it wraps to 0 words and the first insert writes out of bounds.
  constexpr std::uint32_t kMaxBlocks = std::numeric_limits<std::uint32_t>::max() - 63;
  if (config.num_blocks > kMaxBlocks) {
    throw EngineViolation("config: num_blocks " + std::to_string(config.num_blocks) +
                          " exceeds " + std::to_string(kMaxBlocks) +
                          " (the possession-row word count would wrap)");
  }
  if (!config.upload_capacities.empty() && config.upload_capacities.size() != n) {
    throw EngineViolation("config: upload_capacities has " +
                          std::to_string(config.upload_capacities.size()) +
                          " entries for " + std::to_string(n) + " nodes");
  }
  if (!config.download_capacities.empty() && config.download_capacities.size() != n) {
    throw EngineViolation("config: download_capacities has " +
                          std::to_string(config.download_capacities.size()) +
                          " entries for " + std::to_string(n) + " nodes");
  }
  for (const auto& [dep_tick, dep_node] : config.departures) {
    (void)dep_tick;
    if (dep_node == kServer) {
      throw EngineViolation("config: departure names the server (node 0)");
    }
    if (dep_node >= n) {
      throw EngineViolation("config: departure names out-of-range node " +
                            std::to_string(dep_node) + " (num_nodes " +
                            std::to_string(n) + ")");
    }
  }
  // The paper's model requires d >= u (§2.1) and d >= 1 for every client;
  // the server never downloads, so its entries are exempt (§2.3.4's m*u).
  for (NodeId c = 1; c < n; ++c) {
    const std::uint32_t up = config.upload_cap(c);
    const std::uint32_t down = config.download_cap(c);
    if (down < std::max(up, 1u)) {
      throw EngineViolation("config: client " + std::to_string(c) +
                            " has download capacity " + std::to_string(down) +
                            " and upload capacity " + std::to_string(up) +
                            " (the model requires d >= u and d >= 1)");
    }
  }
}

TickRecord::TickRecord(const EngineConfig& config)
    : record_trace_(config.record_trace),
      window_(config.stall_window),
      utilization_(config.stall_utilization) {}

bool TickRecord::record(std::span<const Transfer> accepted, Count active_slots,
                        bool counts_for_stall) {
  result_.total_transfers += accepted.size();
  result_.uploads_per_tick.push_back(accepted.size());
  result_.active_slots_per_tick.push_back(active_slots);
  if (record_trace_) result_.trace.emplace_back(accepted.begin(), accepted.end());
  if (window_ == 0 || !counts_for_stall) return false;

  window_sum_ += accepted.size();
  window_slots_sum_ += active_slots;
  // The ring grows to window_ entries as counted ticks arrive, then each new
  // tick replaces (and leaves the window sums minus) the oldest.
  if (ring_.size() < window_) {
    ring_.emplace_back(accepted.size(), active_slots);
    if (ring_.size() < window_) return false;
  } else {
    auto& oldest = ring_[ring_next_];
    window_sum_ -= oldest.first;
    window_slots_sum_ -= oldest.second;
    oldest = {accepted.size(), active_slots};
    ring_next_ = ring_next_ + 1 == window_ ? 0 : ring_next_ + 1;
  }
  result_.stalled = static_cast<double>(window_sum_) <
                    utilization_ * static_cast<double>(window_slots_sum_);
  return result_.stalled;
}

RunResult TickRecord::finish(Tick ticks_executed, bool completed, std::uint32_t departed,
                             std::vector<Tick> client_completion,
                             std::vector<Count> uploads_per_node) {
  RunResult result = std::move(result_);
  result.ticks_executed = ticks_executed;
  result.completed = completed;
  result.departed = departed;
  result.client_completion = std::move(client_completion);
  result.uploads_per_node = std::move(uploads_per_node);
  if (completed) {
    result.completion_tick = *std::max_element(result.client_completion.begin(),
                                               result.client_completion.end());
  }
  return result;
}

namespace {

[[noreturn]] void violation(Tick tick, const Transfer& tr, const char* why) {
  std::ostringstream os;
  os << "tick " << tick << ": transfer " << tr.from << " -> " << tr.to
     << " (block " << tr.block << "): " << why;
  throw EngineViolation(os.str());
}

}  // namespace

RunResult run_with_state(const EngineConfig& config, Scheduler& scheduler,
                         Mechanism* mechanism, SwarmState& state) {
  validate_config(config);
  if (state.num_nodes() != config.num_nodes || state.num_blocks() != config.num_blocks) {
    throw std::invalid_argument("engine: state dimensions do not match config");
  }
  const std::uint32_t n = config.num_nodes;
  const Tick cap = config.max_ticks != 0
                       ? config.max_ticks
                       : default_tick_cap(config.num_nodes, config.num_blocks);

  // Departures sorted by tick; applied at the start of their tick.
  std::vector<std::pair<Tick, NodeId>> departures = config.departures;
  std::sort(departures.begin(), departures.end());
  std::size_t next_departure = 0;

  TickRecord record(config);
  Count dropped = 0;
  std::vector<Count> uploads_per_node(n, 0);
  std::vector<Transfer> tick_transfers;
  std::vector<Transfer> kept;
  std::vector<std::uint32_t> up_used(n), down_used(n);

  // Upload slots offered by currently active nodes; shrinks as nodes depart
  // so that stall detection and utilization compare against capacity that
  // actually exists, not the tick-0 fleet.
  std::uint64_t active_slots = 0;
  for (NodeId u = 0; u < n; ++u) active_slots += config.upload_cap(u);
  const auto deactivate = [&](NodeId node) {
    if (!state.is_active(node)) return;
    state.deactivate(node);
    active_slots -= config.upload_cap(node);
  };

  // Deliveries severed by churn, keyed (receiver << 32) | block. A rigid
  // schedule's later sends of a block that never arrived — and duplicate
  // re-deliveries of one that was rerouted — are casualties of these, and
  // only these, so they are what lossy mode may drop without masking real
  // scheduler bugs. A key is retired once the loss is resolved (the receiver
  // acquires the block, or one stale duplicate has been forgiven), so a
  // later genuine anomaly on the same (node, block) pair throws again.
  std::unordered_set<std::uint64_t> lost_deliveries;
  const auto delivery_key = [](NodeId to, BlockId block) {
    return (static_cast<std::uint64_t>(to) << 32) | block;
  };

  std::vector<NodeId> leaving;  // depart_on_complete: who finished last tick
  PairTable delivered;          // this tick's (receiver, block) keys

  Tick tick = 0;
  while (!state.all_complete() && tick < cap) {
    ++tick;
    while (next_departure < departures.size() && departures[next_departure].first <= tick) {
      deactivate(departures[next_departure].second);
      ++next_departure;
    }
    if (config.depart_on_complete) {
      for (const NodeId c : leaving) deactivate(c);
      leaving.clear();
    }
    if (state.all_complete()) break;  // survivors may already all be done

    tick_transfers.clear();
    scheduler.plan_tick(tick, state, tick_transfers);

    // --- Validate the tick against the bandwidth / data-transfer model. ---
    std::fill(up_used.begin(), up_used.end(), 0u);
    std::fill(down_used.begin(), down_used.end(), 0u);
    kept.clear();
    for (const Transfer& tr : tick_transfers) {
      if (tr.from >= n || tr.to >= n) violation(tick, tr, "node id out of range");
      if (tr.from == tr.to) violation(tick, tr, "self transfer");
      if (tr.block >= config.num_blocks) violation(tick, tr, "block id out of range");
      if (!state.is_active(tr.from) || !state.is_active(tr.to)) {
        if (config.drop_transfers_involving_inactive) {
          ++dropped;
          if (state.is_active(tr.to)) {
            // A live receiver just lost this delivery; its own forwards of
            // the block become casualties too.
            lost_deliveries.insert(delivery_key(tr.to, tr.block));
          }
          continue;
        }
        violation(tick, tr, "transfer involves a departed node");
      }
      if (!state.has(tr.from, tr.block)) {
        if (config.drop_transfers_involving_inactive &&
            lost_deliveries.count(delivery_key(tr.from, tr.block)) != 0) {
          // Lost upstream: the sender never received the block because a
          // departure severed its delivery. The casualty cascades.
          ++dropped;
          lost_deliveries.insert(delivery_key(tr.to, tr.block));
          continue;
        }
        violation(tick, tr, "sender does not hold the block at tick start");
      }
      if (state.has(tr.to, tr.block)) {
        if (config.drop_transfers_involving_inactive &&
            lost_deliveries.erase(delivery_key(tr.to, tr.block)) != 0) {
          // The original delivery was severed but the receiver holds the
          // block anyway; drop the stale duplicate. Erasing the key forgives
          // only this first one — a second duplicate is a scheduler bug.
          ++dropped;
          continue;
        }
        violation(tick, tr, "receiver already holds the block");
      }
      if (++up_used[tr.from] > config.upload_cap(tr.from)) {
        violation(tick, tr, "sender over upload capacity");
      }
      const std::uint32_t dcap = config.download_cap(tr.to);
      if (dcap != kUnlimited && ++down_used[tr.to] > dcap) {
        violation(tick, tr, "receiver over download capacity");
      }
      kept.push_back(tr);
    }
    tick_transfers.swap(kept);
    // No duplicate delivery of one block to one receiver within a tick (the
    // handshake protocol of §2.4.2 exists precisely to prevent this). A pass
    // of its own, after every per-transfer check, so a tick with several
    // faults reports the same one the reference engine does.
    delivered.begin_tick(tick_transfers.size());
    for (const Transfer& tr : tick_transfers) {
      if (!delivered.insert(delivery_key(tr.to, tr.block))) {
        violation(tick, tick_transfers.front(),
                  "same block delivered twice to one receiver in one tick");
      }
    }
    if (mechanism != nullptr) {
      if (auto err = mechanism->check_tick(tick, tick_transfers, state)) {
        throw EngineViolation("tick " + std::to_string(tick) + ": mechanism '" +
                              std::string(mechanism->name()) + "' violated: " + *err);
      }
    }

    // --- Commit. ---
    if (mechanism != nullptr) mechanism->commit_tick(tick, tick_transfers, state);
    for (const Transfer& tr : tick_transfers) {
      const bool became_complete = !state.is_complete(tr.to);
      const bool added = state.add_block(tr.to, tr.block, tick);
      assert(added);
      (void)added;
      if (!lost_deliveries.empty()) {
        // A delivery filled this receiver's severed gap; retire the key so
        // the lossy forgiveness for this (node, block) pair ends here.
        lost_deliveries.erase(delivery_key(tr.to, tr.block));
      }
      ++uploads_per_node[tr.from];
      if (config.depart_on_complete && became_complete && state.is_complete(tr.to)) {
        leaving.push_back(tr.to);
      }
    }
    if (record.record(tick_transfers, active_slots, true)) break;
  }

  RunResult result = record.finish(tick, state.all_complete(), state.num_departed(),
                                   state.client_completion_ticks(),
                                   std::move(uploads_per_node));
  result.dropped_transfers = dropped;
  return result;
}

RunResult run(const EngineConfig& config, Scheduler& scheduler, Mechanism* mechanism) {
  validate_config(config);  // before the state allocates k-sized rows
  SwarmState state(config.num_nodes, config.num_blocks);
  return run_with_state(config, scheduler, mechanism, state);
}

}  // namespace pob
