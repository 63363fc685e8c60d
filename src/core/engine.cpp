#include "core/engine.h"

#include <algorithm>
#include <array>

#include "common/assert.h"
#include "common/worker_pool.h"
#include "core/event_queue.h"
#include "sim/trace.h"

namespace cmcp::core {

namespace {

enum class CoreState : std::uint8_t { kRunning, kAtBarrier, kDone };

class Engine;

/// Context handed to a worker running one core's local span.
struct SpanCtx {
  Engine* engine = nullptr;
  CoreId core = 0;
};

struct PerCore {
  wl::AccessStream* stream = nullptr;
  Asid tenant = 0;
  Vpn area_base = 0;
  CoreId group = 0;
  CoreState state = CoreState::kRunning;
  wl::Op pending;              ///< in-progress access op
  std::uint32_t progress = 0;  ///< pages of `pending` already processed
  bool has_pending = false;
  /// A local span fetches ops it cannot execute (syscall/barrier/end); the
  /// coordinator consumes this instead of pulling the stream again.
  wl::Op fetched;
  bool has_fetched = false;
  /// Parallel mode: a span task for this core is queued or running; the
  /// coordinator must complete it before reading the core's state.
  bool span_inflight = false;
  common::Task task;
  SpanCtx span_ctx;
};

struct GroupState {
  CoreId first_core = 0;
  CoreId num_cores = 0;
  CoreId active = 0;      ///< cores not yet done
  CoreId at_barrier = 0;  ///< cores waiting at the group's current barrier
};

class Engine {
 public:
  Engine(sim::Machine& machine, MemoryManager& mm,
         std::span<EngineCoreInit> inits, std::span<const EngineGroup> groups,
         unsigned threads)
      : machine_(machine), mm_(mm), queue_(machine.num_cores()) {
    const CoreId n = machine_.num_cores();
    CMCP_CHECK(inits.size() == n);
    // PerCore holds a Task (atomic state), so the array is built in place.
    cores_ = std::make_unique<PerCore[]>(n);
    groups_.reserve(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const EngineGroup& eg = groups[g];
      groups_.push_back({eg.first_core, eg.num_cores, eg.num_cores, 0});
      for (CoreId c = eg.first_core; c < eg.first_core + eg.num_cores; ++c)
        cores_[c].group = static_cast<CoreId>(g);
    }
    for (CoreId c = 0; c < n; ++c) {
      PerCore& pc = cores_[c];
      pc.stream = inits[c].stream.get();
      pc.tenant = inits[c].tenant;
      pc.area_base = inits[c].area_base;
      pc.span_ctx = {this, c};
    }
    threads_ = common::resolve_thread_count(threads);
    par_ = parallel_eligible();
    if (par_) pool_ = std::make_unique<common::WorkerPool>(threads_ - 1);
  }

  void run();

  /// Worker body: execute `core`'s stream on real state as long as every
  /// event is core-local (TLB hit / PTE refill / compute); stop before the
  /// first event needing shared state and leave the cursor for the
  /// coordinator. Touches only core-own state — see engine.h.
  void run_local_span(CoreId core) {
    PerCore& pc = cores_[core];
    AddressSpace& space = mm_.space(0);  // parallel gate: single space
    metrics::CoreCounters& ctr = machine_.counters(core);
    for (;;) {
      if (pc.has_pending) {
        const wl::Op& op = pc.pending;
        while (pc.progress < op.count) {
          const Vpn vpn = pc.area_base + op.vpn +
                          static_cast<Vpn>(pc.progress) * op.stride;
          std::uint16_t r = 0;
          for (; r < op.repeat; ++r) {
            const Cycles c = space.try_local_access(core, vpn, op.write);
            if (c == AddressSpace::kNotLocal) break;
            machine_.advance(core, c);
          }
          if (r < op.repeat) {
            // Only the page's FIRST reference can miss: the repeats that
            // follow hit the entry it just installed (no shootdowns exist
            // in an eligible run). The coordinator replays the whole page
            // through the fault path, so stopping mid-page would
            // double-charge the executed repeats.
            CMCP_CHECK(r == 0);
            return;
          }
          if (op.cycles > 0) {
            ctr.cycles_compute += op.cycles;
            machine_.advance(core, op.cycles);
          }
          ++pc.progress;
        }
        pc.has_pending = false;
      }
      const wl::Op op = pc.stream->next();
      switch (op.kind) {
        case wl::OpKind::kAccess:
          CMCP_CHECK(op.count > 0);
          pc.pending = op;
          pc.progress = 0;
          pc.has_pending = true;
          break;
        case wl::OpKind::kCompute:
          ctr.cycles_compute += op.cycles;
          machine_.advance(core, op.cycles);
          break;
        default:
          pc.fetched = op;
          pc.has_fetched = true;
          return;
      }
    }
  }

 private:
  /// Parallel local spans are sound only when every TLB-hit/refill truly
  /// touches core-own state and no shared interaction can observe it
  /// mid-flight: one address space, per-core PSPT rows, no scanner, no
  /// possible eviction (capacity covers the footprint), no fault plan
  /// (stragglers retime every access), no SimCheck sweeps (they read other
  /// cores' state), and a policy whose non-eviction hooks never read
  /// per-core machine state. Everything else runs the serial path, which
  /// is byte-identical anyway.
  bool parallel_eligible() const {
    if (threads_ <= 1) return false;
    if (machine_.fault_plan() != nullptr) return false;
    if (mm_.check_registry() != nullptr) return false;
    if (mm_.num_spaces() != 1) return false;
    const AddressSpace& space = mm_.space(0);
    if (space.page_table().kind() != PageTableKind::kPspt) return false;
    if (space.scanner_enabled()) return false;
    if (!space.policy().parallel_local_safe()) return false;
    if (!space.pinned() && mm_.capacity_units() < space.area().num_units())
      return false;
    return true;
  }

  static void span_entry(void* ctx) {
    SpanCtx* sc = static_cast<SpanCtx*>(ctx);
    sc->engine->run_local_span(sc->core);
  }

  void dispatch_span(CoreId core) {
    PerCore& pc = cores_[core];
    pc.task.arm(&Engine::span_entry, &pc.span_ctx);
    pool_->submit(&pc.task);
    pc.span_inflight = true;
  }

  /// Rendezvous with `core`'s span before touching its state: steal the
  /// task if no worker picked it up yet (runs it inline — on a saturated
  /// host the engine degrades to serial instead of blocking), else wait.
  void complete_span(CoreId core) {
    PerCore& pc = cores_[core];
    if (pc.task.try_claim())
      pc.task.run_claimed();
    else
      pc.task.wait();
    pc.span_inflight = false;
  }

  void release_barrier_if_complete(CoreId group) {
    GroupState& g = groups_[group];
    if (g.active == 0 || g.at_barrier != g.active) return;
    const CoreId end = g.first_core + g.num_cores;
    Cycles tmax = 0;
    for (CoreId c = g.first_core; c < end; ++c) {
      if (cores_[c].state == CoreState::kAtBarrier)
        tmax = std::max(tmax, machine_.clock(c));
    }
    for (CoreId c = g.first_core; c < end; ++c) {
      if (cores_[c].state != CoreState::kAtBarrier) continue;
      machine_.counters(c).cycles_barrier += tmax - machine_.clock(c);
      if (sim::trace::EventSink* tr = machine_.trace())
        tr->emit({sim::trace::EventKind::kBarrierWait, c, machine_.clock(c),
                  tmax - machine_.clock(c), kInvalidUnit, 0, 0, 0,
                  cores_[c].tenant});
      machine_.set_clock(c, tmax);
      cores_[c].state = CoreState::kRunning;
      queue_.set(c, EventQueue::pack(tmax, c));
    }
    g.at_barrier = 0;
  }

  /// Execute ONE engine event for `core` (assumed at the queue root): one
  /// page of an in-progress access op, or the next stream op. Shared
  /// resources (PCIe link, page-table locks, invalidation slot) are thereby
  /// updated in near-global time order, so queueing is resolved at page
  /// granularity. Returns false when the core left the queue (barrier/end).
  bool execute_event(CoreId core) {
    PerCore& pc = cores_[core];
    if (pc.has_pending) {
      const wl::Op& op = pc.pending;
      const Vpn vpn =
          pc.area_base + op.vpn + static_cast<Vpn>(pc.progress) * op.stride;
      for (std::uint16_t r = 0; r < op.repeat; ++r) {
        const Cycles now = machine_.clock(core);
        machine_.advance(core, mm_.access(core, vpn, op.write, now));
      }
      if (op.cycles > 0) {
        machine_.counters(core).cycles_compute += op.cycles;
        machine_.advance(core, op.cycles);
      }
      if (++pc.progress >= op.count) pc.has_pending = false;
      return true;
    }

    wl::Op op;
    if (pc.has_fetched) {
      op = pc.fetched;
      pc.has_fetched = false;
    } else {
      op = pc.stream->next();
    }
    switch (op.kind) {
      case wl::OpKind::kAccess: {
        CMCP_CHECK(op.count > 0);
        pc.pending = op;
        pc.progress = 0;
        pc.has_pending = true;
        return true;
      }
      case wl::OpKind::kCompute: {
        machine_.counters(core).cycles_compute += op.cycles;
        machine_.advance(core, op.cycles);
        return true;
      }
      case wl::OpKind::kSyscall: {
        // IHK offload: request over IKC/PCIe, host service, response back.
        // The calling core blocks for the whole round trip (paper section
        // 2.1: "heavy system calls are shipped to and executed on the
        // host"). The shared link makes a syscall-heavy tenant queue behind
        // (and delay) its neighbors' page traffic.
        const sim::CostModel& cost = machine_.cost();
        metrics::CoreCounters& ctr = machine_.counters(core);
        const Cycles start = machine_.clock(core) + cost.syscall_local;
        const sim::Machine::PcieTransferResult req = machine_.pcie_transfer(
            core, sim::PcieDir::kDeviceToHost, start,
            cost.syscall_message_bytes + op.count, kInvalidUnit, pc.tenant);
        const Cycles host_done =
            req.done + cost.syscall_host_dispatch + op.cycles;
        const sim::Machine::PcieTransferResult resp = machine_.pcie_transfer(
            core, sim::PcieDir::kHostToDevice, host_done,
            cost.syscall_message_bytes, kInvalidUnit, pc.tenant);
        ++ctr.syscalls;
        ctr.cycles_syscall += resp.done - machine_.clock(core);
        machine_.set_clock(core, resp.done);
        return true;
      }
      case wl::OpKind::kBarrier: {
        pc.state = CoreState::kAtBarrier;
        ++groups_[pc.group].at_barrier;
        queue_.set(core, EventQueue::kMaxKey);
        release_barrier_if_complete(pc.group);
        return false;
      }
      case wl::OpKind::kEnd: {
        pc.state = CoreState::kDone;
        --groups_[pc.group].active;
        queue_.set(core, EventQueue::kMaxKey);
        // A barrier pending among the group's remaining cores may now be
        // complete.
        release_barrier_if_complete(pc.group);
        return false;
      }
    }
    return true;  // unreachable
  }

  sim::Machine& machine_;
  MemoryManager& mm_;
  std::unique_ptr<PerCore[]> cores_;
  std::vector<GroupState> groups_;
  EventQueue queue_;
  Cycles next_due_ = 0;
  unsigned threads_ = 1;
  bool par_ = false;
  std::unique_ptr<common::WorkerPool> pool_;
};

void Engine::run() {
  const CoreId n = machine_.num_cores();
  for (CoreId c = 0; c < n; ++c) queue_.set(c, EventQueue::pack(0, c));
  next_due_ = mm_.next_periodic_due();
  machine_.set_engine_running(true);

  while (!queue_.empty()) {
    const std::uint64_t rootkey = queue_.root();
    const CoreId core = EventQueue::core_of(rootkey);
    PerCore& pc = cores_[core];
    if (pc.span_inflight) complete_span(core);
    const Cycles time = EventQueue::time_of(rootkey);
    const Cycles actual = machine_.clock(core);
    if (actual != time) {
      // Clock advanced (shootdown interrupts, or a completed local span)
      // since this key was set.
      queue_.set(core, EventQueue::pack(actual, core));
      continue;
    }

    // Periodic work due at or before this event fires first, exactly as
    // when the old engine called run_periodic before every event — for
    // events below next_due_ that call was a no-op, so only batch starts
    // need it. Batches never cross next_due_ (the horizon caps them).
    if (actual >= next_due_) {
      mm_.run_periodic(actual);
      next_due_ = mm_.next_periodic_due();
    }

    // Run batching: keep executing THIS core's events while its packed
    // clock stays the global minimum. Other cores' keys can only be stale
    // LOW (their clocks move up, never down), so the horizon is
    // conservative: the batch can only end early, never late. The first
    // event always runs — the root is the true minimum, matching the old
    // engine's behavior even when run_periodic just advanced this clock.
    const std::uint64_t limit =
        std::min(queue_.horizon(), next_due_ << EventQueue::kCoreBits);
    bool requeue = true;
    do {
      if (!execute_event(core)) {
        requeue = false;
        break;
      }
    } while (EventQueue::pack(machine_.clock(core), core) < limit);

    if (requeue) {
      queue_.set(core, EventQueue::pack(machine_.clock(core), core));
      // The core now waits for its next turn; in parallel mode a worker
      // uses that wait to run its core-local events ahead of time.
      if (par_) dispatch_span(core);
    }
  }

  machine_.set_engine_running(false);
  for (const GroupState& g : groups_)
    CMCP_CHECK_MSG(g.active == 0 && g.at_barrier == 0,
                   "engine deadlock: cores stuck at a barrier");
}

}  // namespace

void run_engine(sim::Machine& machine, MemoryManager& mm,
                std::span<EngineCoreInit> cores,
                std::span<const EngineGroup> groups, unsigned threads) {
  Engine engine(machine, mm, cores, groups, threads);
  engine.run();
}

}  // namespace cmcp::core
