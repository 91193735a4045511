// §2.3.4 "Higher Server Bandwidths": when the server has upload bandwidth
// m*u, the natural optimal strategy splits the clients into m equal groups
// and the server into m virtual servers, one per group, each running an
// independent binomial pipeline over the full file. Run it with
// EngineConfig::server_upload_capacity = m.

#pragma once

#include <memory>
#include <vector>

#include "pob/core/scheduler.h"
#include "pob/sched/binomial_pipeline.h"

namespace pob {

class MultiServerScheduler final : public Scheduler {
 public:
  /// Splits clients 1..n-1 into `num_virtual_servers` groups round-robin and
  /// builds one binomial pipeline per group over all k blocks.
  MultiServerScheduler(std::uint32_t num_nodes, std::uint32_t num_blocks,
                       std::uint32_t num_virtual_servers);

  std::string_view name() const override { return "multi-server-binomial"; }
  void plan_tick(Tick tick, const SwarmState& state, std::vector<Transfer>& out) override;

 private:
  std::vector<std::unique_ptr<BinomialPipelineScheduler>> pipelines_;
};

}  // namespace pob
