#include "cells.h"

#include <algorithm>

#include "core/multi_tenant.h"
#include "core/simulation.h"
#include "layers.h"
#include "metrics/tenant_report.h"
#include "workloads/multi_tenant.h"

namespace perfbench {

using cmcp::CoreId;
using cmcp::PolicyKind;
using cmcp::wl::PaperWorkload;

namespace {

// Why each cell is here: see perfbench/README.md.
constexpr CellSpec kCells[] = {
    // Fig. 7 headline: CMCP on PSPT at 56 cores and the paper's 64% memory
    // constraint; the fault -> victim -> evict -> shootdown -> PCIe path.
    {.name = "evict_cmcp_56c", .workload = PaperWorkload::kBt, .cores = 56,
     .policy = PolicyKind::kCmcp},
    // Same input under access-bit LRU with the 10 ms scanner: usage tracking
    // through clears, IPIs and invalidation-slot waits.
    {.name = "scan_lru_56c", .workload = PaperWorkload::kBt, .cores = 56,
     .policy = PolicyKind::kLru},
    // 1024 cores, unconstrained: evicts nothing (bypass for eviction-path
    // changes); engine heap, wide core masks, TLB/PTE hit path, setup.
    {.name = "resident_1024c", .workload = PaperWorkload::kBt, .cores = 1024,
     .policy = PolicyKind::kCmcp, .memory_fraction = 1.0, .evicts = false},
    // cg/bt/cg/bt at 14 cores each under proportional share: the only cell
    // running the multi-tenant coordinator and cross-space victim picks.
    {.name = "tenants_mt4", .cores = 14, .policy = PolicyKind::kCmcp,
     .memory_fraction = 0.5, .tenants = 4},
};

cmcp::policy::PolicyParams policy_for(PolicyKind kind, PaperWorkload w) {
  cmcp::policy::PolicyParams params;
  params.kind = kind;
  params.cmcp.p = cmcp::wl::paper_best_p(w);
  return params;
}

PaperWorkload tenant_workload(unsigned t) {
  return t % 2 == 0 ? PaperWorkload::kCg : PaperWorkload::kBt;
}

void add_stats(std::vector<std::pair<std::string, std::uint64_t>>& into,
               const std::vector<std::pair<std::string, std::uint64_t>>& from) {
  for (const auto& [key, value] : from) {
    auto it = std::find_if(into.begin(), into.end(),
                           [&](const auto& kv) { return kv.first == key; });
    if (it == into.end())
      into.emplace_back(key, value);
    else
      it->second += value;
  }
}

Outcome outcome_of(const cmcp::core::SimulationResult& r) {
  Outcome o;
  o.makespan = r.makespan;
  o.parts = r.per_core;
  o.total = r.app_total;
  o.scanner = r.scanner;
  o.policy_stats = r.policy_stats;
  o.scans = r.scans;
  o.faults_enabled = r.faults_enabled;
  return o;
}

Outcome outcome_of(const cmcp::core::MultiTenantResult& r) {
  Outcome o;
  o.makespan = r.makespan;
  o.faults_enabled = r.faults_enabled;
  o.interference = r.interference;
  std::vector<double> progress;
  for (const cmcp::core::TenantResult& t : r.tenants) {
    o.parts.push_back(t.total);
    o.total += t.total;
    o.scanner += t.scanner;
    o.scans += t.scans;
    add_stats(o.policy_stats, t.policy_stats);
    progress.push_back(t.makespan > 0 ? static_cast<double>(t.total.accesses) /
                                            static_cast<double>(t.makespan)
                                      : 0.0);
  }
  o.jain_fairness = cmcp::metrics::jain_fairness(progress);
  return o;
}

}  // namespace

std::span<const CellSpec> all_cells() { return kCells; }

const CellSpec* find_cell(std::string_view name) {
  for (const CellSpec& c : kCells)
    if (c.name == name) return &c;
  return nullptr;
}

CellRunner::CellRunner(const CellSpec& spec, std::uint64_t seed)
    : spec_(spec), seed_(seed) {}

std::unique_ptr<cmcp::wl::Workload> CellRunner::make(PaperWorkload w) const {
  cmcp::wl::WorkloadParams base;
  base.cores = spec_.cores;
  base.seed = seed_;
  if (spec_.scale > 0.0) base.scale = spec_.scale;
  return cmcp::wl::make_paper_workload(w, base);
}

cmcp::wl::MultiTenantSpec CellRunner::generate(SpanRecorder* rec, StepClock* clock) const {
  cmcp::wl::MultiTenantSpec spec;
  const unsigned n = std::max(spec_.tenants, 1u);
  for (unsigned t = 0; t < n; ++t) {
    auto w = make(spec_.tenants == 0 ? spec_.workload : tenant_workload(t));
    if (rec != nullptr || clock != nullptr)
      w = std::make_unique<TimedWorkload>(std::move(w), rec, clock);
    spec.add(std::move(w));
  }
  return spec;
}

std::uint64_t CellRunner::expected_refs() const {
  const cmcp::wl::MultiTenantSpec spec = generate();
  std::uint64_t refs = 0;
  for (cmcp::Asid t = 0; t < spec.num_tenants(); ++t) {
    const cmcp::wl::Workload& w = spec.tenant(t);
    for (CoreId c = 0; c < w.num_cores(); ++c) {
      const auto stream = w.make_stream(c);
      for (cmcp::wl::Op op = stream->next(); op.kind != cmcp::wl::OpKind::kEnd;
           op = stream->next())
        if (op.kind == cmcp::wl::OpKind::kAccess)
          refs += static_cast<std::uint64_t>(op.count) * op.repeat;
    }
  }
  return refs;
}

RepResult CellRunner::rep(Observers* obs) const {
  SpanRecorder* rec = obs != nullptr ? obs->rec : nullptr;
  const auto open = [rec](const char* name) { return rec != nullptr ? rec->open(name) : -1; };
  const auto close = [rec](int span) {
    if (rec != nullptr) rec->close(span);
  };
  const auto policy = [&](PaperWorkload w, cmcp::core::PolicyFactory& custom) {
    const cmcp::policy::PolicyParams params = policy_for(spec_.policy, w);
    if (rec != nullptr)
      custom = timed_policy_factory(params, *rec, obs->victim_extra_cycles);
    return params;
  };
  cmcp::sim::trace::EventSink* sink = obs != nullptr ? obs->sink : nullptr;
  StepClock* clock = obs != nullptr ? obs->clock : nullptr;
  const auto mark = [clock] {
    if (clock != nullptr) clock->mark();
  };

  RepResult r;
  const int rep_span = open("rep");
  const std::uint64_t t0 = now_ns();
  int span = open("setup.generate");
  cmcp::wl::MultiTenantSpec spec = generate(rec, clock);
  close(span);
  const std::uint64_t t1 = now_ns();

  if (spec_.tenants == 0) {
    cmcp::core::SimulationConfig config;
    config.machine.num_cores = spec_.cores;
    config.pt_kind = cmcp::PageTableKind::kPspt;
    config.policy = policy(spec_.workload, config.custom_policy);
    config.memory_fraction = spec_.memory_fraction > 0.0
                                 ? spec_.memory_fraction
                                 : cmcp::wl::paper_memory_fraction(spec_.workload);
    config.threads = 1;
    config.simcheck = false;
    config.trace = sink;
    span = open("setup.construct");
    cmcp::core::Simulation sim(config, spec.tenant(0));
    close(span);
    const std::uint64_t t2 = now_ns();
    span = open("run");
    mark();
    const cmcp::core::SimulationResult result = sim.run();
    mark();
    close(span);
    const std::uint64_t t3 = now_ns();
    r.construct_ns = t2 - t1;
    r.run_ns = t3 - t2;
    r.outcome = outcome_of(result);
  } else {
    std::vector<cmcp::core::TenantRunConfig> tenant_configs(spec_.tenants);
    for (unsigned t = 0; t < spec_.tenants; ++t)
      tenant_configs[t].policy = policy(tenant_workload(t), tenant_configs[t].custom_policy);
    cmcp::core::MultiTenantConfig config;
    config.partition = cmcp::mm::PartitionKind::kProportionalShare;
    config.memory_fraction = spec_.memory_fraction;
    config.threads = 1;
    config.simcheck = false;
    config.trace = sink;
    span = open("run");
    mark();
    const cmcp::core::MultiTenantResult result =
        cmcp::core::run_multi_tenant(config, spec, tenant_configs);
    mark();
    close(span);
    r.run_ns = now_ns() - t1;
    r.outcome = outcome_of(result);
  }
  r.generate_ns = t1 - t0;
  close(rep_span);
  return r;
}

}  // namespace perfbench
