// The benchmark's workloads ("cells" of the paper's figures) and one rep of
// each: generate the workload, construct the simulation, run it. Every rep
// of a cell with a given seed performs bit-identical simulated work, and
// modelled TLBs and device memory start empty in every rep.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.h"
#include "metrics/counters.h"
#include "sim/trace.h"
#include "workloads/multi_tenant.h"
#include "workloads/workload_factory.h"

namespace perfbench {

class SpanRecorder;
class StepClock;

struct CellSpec {
  std::string_view name;
  /// Single-tenant cell: one paper workload on `cores` cores. Multi-tenant
  /// cell (tenants > 0): alternating cg/bt tenants of `cores` cores each.
  cmcp::wl::PaperWorkload workload = cmcp::wl::PaperWorkload::kBt;
  cmcp::CoreId cores = 56;
  cmcp::PolicyKind policy = cmcp::PolicyKind::kCmcp;
  /// Device memory as a fraction of the (combined) footprint; <= 0 selects
  /// the paper's per-workload constraint.
  double memory_fraction = -1.0;
  unsigned tenants = 0;
  /// False when the cell is sized to evict nothing; any eviction then
  /// counts as a failed rep.
  bool evicts = true;
  /// Workload footprint multiplier; 0 = the paper size (tests shrink it).
  double scale = 0.0;
};

std::span<const CellSpec> all_cells();
/// Null when no cell has that name.
const CellSpec* find_cell(std::string_view name);

/// Simulated outcome of one rep, the same shape for both run facades.
struct Outcome {
  cmcp::Cycles makespan = 0;
  /// Single tenant: per-core counters; multi-tenant: per-tenant totals.
  std::vector<cmcp::metrics::CoreCounters> parts;
  cmcp::metrics::CoreCounters total;    ///< app cores
  cmcp::metrics::CoreCounters scanner;  ///< scanner pseudo-cores
  /// Policy statistics, summed by key over tenants.
  std::vector<std::pair<std::string, std::uint64_t>> policy_stats;
  std::uint64_t scans = 0;
  bool faults_enabled = false;
  /// Multi-tenant only: flattened [cause][receiver] invalidation matrix.
  std::vector<std::uint64_t> interference;
  double jain_fairness = 1.0;
};

/// Observers a traced rep installs. All pure observers.
struct Observers {
  SpanRecorder* rec = nullptr;
  cmcp::sim::trace::EventSink* sink = nullptr;
  /// Marked at the start and end of the run and on its workload's steps.
  StepClock* clock = nullptr;
  std::uint64_t victim_extra_cycles = 0;
};

struct RepResult {
  std::uint64_t generate_ns = 0;
  /// Simulation/MemoryManager construction. run_multi_tenant builds and
  /// runs in one call, so a multi-tenant rep reports 0 here and its
  /// construction lands in run_ns.
  std::uint64_t construct_ns = 0;
  std::uint64_t run_ns = 0;
  Outcome outcome;
};

class CellRunner {
 public:
  CellRunner(const CellSpec& spec, std::uint64_t seed);

  const CellSpec& spec() const { return spec_; }

  /// One rep. `obs` null = plain run (no decorators, no sink).
  RepResult rep(Observers* obs) const;

  /// References the generated streams hold: sum of count x repeat over
  /// every access op of every core.
  std::uint64_t expected_refs() const;

  /// The generated workloads as tenants of one machine (a single-tenant
  /// cell is one tenant at core 0, vpn 0). With `rec` or `clock` set, each
  /// workload is wrapped in a TimedWorkload reporting to them.
  cmcp::wl::MultiTenantSpec generate(SpanRecorder* rec = nullptr,
                                     StepClock* clock = nullptr) const;

 private:
  std::unique_ptr<cmcp::wl::Workload> make(cmcp::wl::PaperWorkload w) const;

  CellSpec spec_;
  std::uint64_t seed_;
};

}  // namespace perfbench
