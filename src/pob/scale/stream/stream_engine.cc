#include "pob/scale/stream/stream_engine.h"

#include <stdexcept>
#include <utility>

namespace pob::scale::stream {

StreamEngine::StreamEngine(StreamSpec spec)
    : spec_(std::move(spec)),
      plan_(build_workload(spec_.workload, spec_.config, spec_.seed)),
      tracker_(spec_.demand, spec_.config.num_nodes, spec_.config.num_blocks,
               plan_.arrival) {
  spec_.options.stream_window = spec_.demand.window;
  engine_ = std::make_unique<Engine>(spec_.config, spec_.topology, spec_.options,
                                     spec_.seed);
  // Class capacities first (set_capacity on an active node keeps the slot
  // total consistent, and a later deactivate subtracts the updated cap).
  if (!plan_.initial_up.empty()) {
    for (NodeId u = 0; u < spec_.config.num_nodes; ++u) {
      engine_->set_capacity(u, plan_.initial_up[u], plan_.initial_down[u]);
    }
  }
  for (NodeId c = 1; c < spec_.config.num_nodes; ++c) {
    if (plan_.arrival[c] >= 1) engine_->deactivate(c);
  }
  for (const StreamEvent& ev : plan_.events) calendar_.push(ev);
  pending_arrivals_ = plan_.pending_arrivals;
}

RunResult StreamEngine::run(unsigned jobs) {
  if (ran_) throw std::logic_error("stream: run() is one-shot");
  ran_ = true;
  ThreadPool pool(jobs);
  const EngineConfig& cfg = spec_.config;

  // The default cap budgets for a swarm that is all present at tick 0; a
  // stream run cannot even see its last client before last_arrival, so the
  // budget starts there.
  const Tick cap =
      cfg.max_ticks != 0
          ? cfg.max_ticks
          : default_tick_cap(cfg.num_nodes, cfg.num_blocks) + plan_.last_arrival;

  TickRecord record(cfg);
  Tick executed = 0;
  while ((pending_arrivals_ != 0 || !engine_->all_complete()) && executed < cap) {
    const Tick t = engine_->current_tick() + 1;
    // Inject this tick's events before the tick plans: an arrival at t
    // participates in tick t (it can receive immediately), matching the
    // async mirror where the node exists from time t-1 onward.
    if (!calendar_.empty()) {
      for (const StreamEvent& ev : calendar_.collect(t)) {
        switch (ev.kind) {
          case EventKind::kArrive:
            engine_->activate(ev.node);
            --pending_arrivals_;
            break;
          case EventKind::kRate:
            engine_->set_capacity(ev.node, ev.up, ev.down);
            break;
          case EventKind::kDeadline:
            break;  // deadline timers live in the tracker's own calendar
        }
      }
    }

    const std::span<const Transfer> accepted = engine_->step(&pool);
    ++executed;
    for (const Transfer& tr : accepted) tracker_.on_delivery(tr.to, tr.block, t);
    tracker_.end_tick(t);
    // Stall detection counts only ticks after the last arrival: before that,
    // low utilization is the workload (a thin pre-spike swarm), not a stall.
    if (record.record(accepted, engine_->active_upload_slots(), pending_arrivals_ == 0)) {
      break;
    }
  }

  const bool completed = pending_arrivals_ == 0 && engine_->all_complete();
  RunResult result = engine_->finish(record, executed, completed);
  tracker_.finalize(engine_->current_tick(), result);
  return result;
}

std::uint64_t StreamEngine::state_bytes() const {
  return engine_->state_bytes() + calendar_.memory_bytes() + tracker_.memory_bytes() +
         plan_.arrival.capacity() * sizeof(Tick) +
         plan_.events.capacity() * sizeof(StreamEvent) +
         (plan_.initial_up.capacity() + plan_.initial_down.capacity()) *
             sizeof(std::uint32_t);
}

TraceEvents StreamEngine::trace_events() const {
  TraceEvents events;
  for (NodeId c = 0; c < plan_.arrival.size(); ++c) {
    if (plan_.arrival[c] >= 1) events.arrivals.emplace_back(plan_.arrival[c], c);
  }
  for (const StreamEvent& ev : plan_.events) {
    if (ev.kind == EventKind::kRate) {
      events.rate_changes.push_back({ev.time, ev.node, ev.up, ev.down});
    }
  }
  return events;
}

}  // namespace pob::scale::stream
