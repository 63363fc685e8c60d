// Thread-count invariance: the engine's output is byte-identical at any
// --threads value (docs/architecture.md). threads == 1 is the exact serial
// path; higher counts run the worker pool with parallel local spans on
// eligible configurations. This matrix byte-compares the JSONL and
// Perfetto trace exports and the serialized result summary across
// threads ∈ {1, 2, 8} for:
//
//   * the policy matrix (FIFO / CMCP / LRU, memory-constrained — the
//     serial shared-state path at every thread count),
//   * parallel-ELIGIBLE runs (unconstrained CMCP/FIFO with SimCheck off,
//     where threads > 1 really executes local spans on workers), and
//   * a chaos fault mix (an active FaultPlan must force the serial path
//     and stay byte-identical).
//
// A second group proves the same invariance holds when whole RunSpecs
// execute under metrics::run_specs_parallel.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "metrics/experiment.h"
#include "metrics/parallel_runner.h"
#include "sim/trace.h"
#include "workloads/workload_factory.h"

namespace cmcp {
namespace {

struct Artifacts {
  std::string jsonl;     ///< JSONL trace export
  std::string perfetto;  ///< Perfetto trace export
  std::string summary;   ///< serialized result counters
};

std::string serialize_summary(const core::SimulationResult& result) {
  std::ostringstream os;
  os << "makespan=" << result.makespan << '\n';
  for (const auto& [name, value] : metrics::result_summary(result))
    os << name << '=' << value << '\n';
  for (const auto& c : result.per_core)
    os << c.accesses << ',' << c.dtlb_misses << ',' << c.major_faults << ','
       << c.minor_faults << ',' << c.evictions << ','
       << c.remote_invalidations_received << ',' << c.cycles_compute << ','
       << c.cycles_fault << ',' << c.cycles_barrier << ','
       << c.cycles_pcie_wait << '\n';
  return os.str();
}

Artifacts run_cell(PolicyKind policy, double fraction, unsigned threads,
                   bool simcheck, const char* faults = nullptr) {
  wl::WorkloadParams params;
  params.cores = 8;
  params.scale = 0.15;
  params.seed = 42;
  const auto w = wl::make_paper_workload(wl::PaperWorkload::kBt, params);

  sim::trace::EventSink sink;
  core::SimulationConfig config;
  config.machine.num_cores = 8;
  config.policy.kind = policy;
  config.memory_fraction = fraction;
  config.threads = threads;
  config.simcheck = simcheck;
  config.trace = &sink;
  if (faults != nullptr) {
    EXPECT_TRUE(sim::FaultPlanConfig::parse(faults, &config.faults));
  }
  const auto result = core::run_simulation(config, *w);

  Artifacts a;
  const sim::trace::Metadata meta = {{"test", "thread_matrix"}};
  std::ostringstream j, p;
  sim::trace::export_jsonl(sink, meta, metrics::result_summary(result), j);
  sim::trace::export_perfetto(sink, meta, p);
  a.jsonl = j.str();
  a.perfetto = p.str();
  a.summary = serialize_summary(result);
  return a;
}

void expect_invariant(PolicyKind policy, double fraction, bool simcheck,
                      const char* faults = nullptr) {
  const Artifacts serial = run_cell(policy, fraction, 1, simcheck, faults);
  EXPECT_FALSE(serial.jsonl.empty());
  for (const unsigned threads : {2u, 8u}) {
    const Artifacts par = run_cell(policy, fraction, threads, simcheck, faults);
    EXPECT_EQ(serial.jsonl, par.jsonl)
        << to_string(policy) << " fraction " << fraction << " threads "
        << threads;
    EXPECT_EQ(serial.perfetto, par.perfetto)
        << to_string(policy) << " threads " << threads;
    EXPECT_EQ(serial.summary, par.summary)
        << to_string(policy) << " threads " << threads;
  }
}

TEST(ThreadMatrix, ConstrainedPolicyMatrixIsThreadCountInvariant) {
  // Memory-constrained: evictions force every thread count down the serial
  // shared-state path, which must be taken identically.
  expect_invariant(PolicyKind::kFifo, 0.5, /*simcheck=*/true);
  expect_invariant(PolicyKind::kCmcp, 0.5, /*simcheck=*/true);
  expect_invariant(PolicyKind::kLru, 0.5, /*simcheck=*/true);
}

TEST(ThreadMatrix, ParallelEligibleRunsAreThreadCountInvariant) {
  // Unconstrained + SimCheck off: threads > 1 takes the worker-pool path
  // (parallel local spans) and must still reproduce the serial bytes.
  expect_invariant(PolicyKind::kCmcp, 1.5, /*simcheck=*/false);
  expect_invariant(PolicyKind::kFifo, 1.5, /*simcheck=*/false);
}

TEST(ThreadMatrix, ChaosFaultMixIsThreadCountInvariant) {
  // An active FaultPlan forces the serial engine at any thread count; the
  // injected schedule (and its trace) must not depend on `threads`.
  expect_invariant(PolicyKind::kCmcp, 0.6, /*simcheck=*/true,
                   "seed=7,pcie=0.02,ack=0.01,poison=2");
}

// --- run_specs_parallel: whole runs concurrently, traces to disk ----------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing trace file " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(ThreadMatrix, RunSpecsParallelMatchesSerialExecution) {
  // Two specs with engine threading enabled, executed (a) one by one via
  // run_spec and (b) concurrently via run_specs_parallel: per-spec traces
  // and summaries must be byte-identical — outer (experiment-level) and
  // inner (engine-level) parallelism compose without touching results.
  const std::string dir = ::testing::TempDir();
  std::vector<metrics::RunSpec> specs(2);
  for (int i = 0; i < 2; ++i) {
    specs[i].workload = wl::PaperWorkload::kBt;
    specs[i].cores = 8;
    specs[i].scale = 0.15;
    specs[i].seed = 42 + static_cast<std::uint64_t>(i);
    specs[i].policy.kind = i == 0 ? PolicyKind::kCmcp : PolicyKind::kFifo;
    specs[i].memory_fraction = 1.5;
    specs[i].simcheck = false;
    specs[i].threads = 2;
    specs[i].trace_format = sim::trace::Format::kJsonl;
  }

  std::vector<std::string> serial_traces, serial_summaries;
  for (int i = 0; i < 2; ++i) {
    specs[i].trace_path = dir + "/tm_serial_" + std::to_string(i) + ".jsonl";
    serial_summaries.push_back(serialize_summary(metrics::run_spec(specs[i])));
    serial_traces.push_back(slurp(specs[i].trace_path));
  }

  for (int i = 0; i < 2; ++i)
    specs[i].trace_path = dir + "/tm_par_" + std::to_string(i) + ".jsonl";
  const auto results = metrics::run_specs_parallel(specs, 2);
  ASSERT_EQ(results.size(), 2u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(serialize_summary(results[i]), serial_summaries[i]) << i;
    EXPECT_EQ(slurp(specs[i].trace_path), serial_traces[i]) << i;
    std::remove(specs[i].trace_path.c_str());
    std::remove((dir + "/tm_serial_" + std::to_string(i) + ".jsonl").c_str());
  }
}

}  // namespace
}  // namespace cmcp
