// The deterministic virtual-time engine, shared by core::Simulation (one
// barrier group spanning the machine) and core::run_multi_tenant (one group
// per tenant core block). Replaces the twin heap loops both used to carry.
//
// Serial semantics (threads == 1) are byte-identical to the original
// engines: always execute the op of the earliest core next, ties broken by
// core id, so shared-resource queueing (PCIe link, page-table locks,
// invalidation slot) resolves in a single reproducible order.
//
// Two optimizations keep those semantics bit-exact (docs/performance.md):
//
//  * Winner-tree event queue, run batching. One packed (time << 11 | core)
//    key per core in a tournament tree (core/event_queue.h); cores at a
//    barrier or done hold kMaxKey. After taking the earliest core the
//    engine keeps executing ITS events while its packed clock stays below
//    the horizon — the second-smallest key, capped by the next periodic
//    tick. Keys only go stale LOW (shootdown interrupts advance receivers'
//    clocks), so the horizon is a conservative bound and the batched order
//    equals the one-event-at-a-time order exactly.
//
//  * Parallel local spans (threads > 1, eligible runs). Core-LOCAL events —
//    TLB hits, PTE refills, compute — touch only core-own state (the core's
//    TLB, counters, clock and private PSPT row), so they commute with
//    everything and execute directly on real state from pool workers, while
//    the coordinator thread applies every SHARED interaction (faults,
//    syscalls, barriers, scanner ticks) in exact (virtual_time, core_id)
//    order. Local events emit no trace events, so traces, counters and
//    results are byte-identical at any thread count. Runs where local
//    events could touch shared state fall back to the serial path: see
//    Engine::parallel_eligible.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/types.h"
#include "core/memory_manager.h"
#include "sim/machine.h"
#include "workloads/access_stream.h"

namespace cmcp::core {

/// One simulated core's slice of the run.
struct EngineCoreInit {
  std::unique_ptr<wl::AccessStream> stream;
  Asid tenant = 0;     ///< address space the core belongs to
  Vpn area_base = 0;   ///< base VPN of the tenant's computation area
};

/// One barrier group: wl::OpKind::kBarrier synchronizes the cores
/// [first_core, first_core + num_cores) and nobody else.
struct EngineGroup {
  CoreId first_core = 0;
  CoreId num_cores = 0;
};

/// Run every core's stream to completion. `cores` has one entry per app
/// core; `groups` partitions them (group index == tenant asid for
/// multi-tenant runs, one all-cores group otherwise). `threads` > 1 enables
/// the parallel local-span mode when the run is eligible; 1 is the exact
/// serial engine. Aborts via CMCP_CHECK if any group deadlocks at a barrier.
void run_engine(sim::Machine& machine, MemoryManager& mm,
                std::span<EngineCoreInit> cores,
                std::span<const EngineGroup> groups, unsigned threads);

}  // namespace cmcp::core
