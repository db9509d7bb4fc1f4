// Discrete-event performance simulator for refined protocols.
//
// Where sim::Simulator asks "does this workload complete, with how many
// messages", this engine asks "how many CYCLES does it take": every wire
// message gets a latency from sim::CostModel, the home directory has an
// occupancy that creates queueing under contention, and per-op latency is
// collected into percentile histograms. The protocol semantics are the
// model checker's own runtime::AsyncSystem rules, stepped in place through
// AsyncSystem::deliver_up/deliver_down/home_step/remote_step — one applied
// edge per call, no state copies, no successor enumeration — on a
// pool-allocated event core with a batched calendar queue
// (support/event_pool.hpp, support/calendar_queue.hpp). Star protocols
// only: the snooping family's bus is timed by sim::bus_simulate.
//
// Scaling past kMaxNodes: the protocol instance is per ADDRESS, with up to
// `slot_cap` (<= 64) concurrently *bound* nodes. A node binds a slot when it
// issues an op on the address, keeps it while the protocol machine holds
// residual state (cache residency), and a fresh-equivalent slot is detached
// on demand when new nodes contend. Thousands-to-millions of clients share
// one lock address through this revolving door; the wait queue is the
// "directory full" backpressure.
//
// Parallel lanes: addresses partition by `addr % lanes`; each lane owns its
// instances, calendar, and event pool. The only cross-lane interaction is a
// node whose NEXT op lands on another lane's address — handed over through
// per-lane outboxes that are exchanged at a window barrier, with the issue
// time clamped to the next window start. Timestamps therefore never run
// backwards (conservative synchronization), every exchange happens in a
// single-threaded barrier completion, and a run is deterministic for a
// fixed (seed, lanes, window, window_max).
//
// The window length adapts to the observed cross-lane event horizon: a
// barrier that exchanged no handoffs proves the lanes ran independently for
// the whole window, so the next window doubles (up to `window_max`); any
// handoff resets the length to the base `window`. Correctness never depends
// on the length — every exchange still happens at a barrier and issue times
// are still clamped forward — and the clamp error stays bounded by the base
// window whenever lanes actually interact. Workloads whose nodes stay on
// their own lane pay O(log) barriers instead of one per `window` cycles.
#pragma once

#include <cstdint>

#include "refine/refined.hpp"
#include "sim/cost_model.hpp"
#include "sim/des_workload.hpp"
#include "sim/stats.hpp"

namespace ccref::sim {

struct DesOptions {
  std::uint64_t max_events = 0;  // 0 = unbounded
  std::uint64_t max_cycles = 0;  // 0 = unbounded
  CostModel cost;
  bool write_buffer = false;      // retire stores into a bounded buffer
  int write_buffer_capacity = 8;  // stores held before a forced drain
  int lanes = 1;
  std::uint64_t window = 1024;  // base cross-lane sync window (cycles)
  // Adaptive-window cap: handoff-free windows double up to this length; a
  // handoff resets to `window`. 0 pins every window at `window` (the old
  // fixed-barrier cadence).
  std::uint64_t window_max = 1 << 17;
  int slot_cap = 64;  // concurrent bound nodes per address
};

/// Run `source` to completion (or budget exhaustion) under the cost model.
/// Deterministic: same refined protocol + source + options => same stats.
[[nodiscard]] DesStats des_simulate(const refine::RefinedProtocol& refined,
                                    OpSource& source,
                                    const DesOptions& options = {});

}  // namespace ccref::sim
