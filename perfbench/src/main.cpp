// perfbench_runner: runs one benchmark cell for a given seed in this
// single-threaded process and prints its metrics as JSON.
//
//   perfbench_runner --workload <cell> --seed <n> --seconds <s> --trace <0|1>
//                    [--spans <path>]
//
// --trace 0 times plain reps and prints the end-to-end metrics; --trace 1
// alternates plain and decorated reps and prints the per-layer metrics
// (spans are written to --spans when given). The last stdout line is
// {"correct", "attempted", "failed", "metrics"}; the line before it holds
// the run's metadata and the unguarded timing summaries.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cells.h"
#include "checks.h"
#include "layers.h"
#include "replay.h"
#include "stats.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans;
};

bool parse_args(int argc, char** argv, Args* out) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      out->workload = value;
    } else if (key == "--seed") {
      out->seed = std::strtoull(value, &end, 10);
      if (*end != '\0' || *value == '\0' || *value == '-') return false;
      have_seed = true;
    } else if (key == "--seconds") {
      out->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(out->seconds > 0.0) || out->seconds > 600.0) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) return false;
      out->trace = value[0] - '0';
    } else if (key == "--spans") {
      out->spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !out->workload.empty() && have_seed &&
         out->seconds > 0.0 && out->trace >= 0;
}

/// Reasons this process must not produce numbers; empty when it may.
std::vector<std::string> hygiene_problems() {
  std::vector<std::string> problems;
  // Both silently change the program under measurement.
  for (const char* var : {"CMCP_CHAOS_FAULTS", "CMCP_SIM_THREADS"})
    if (std::getenv(var) != nullptr)
      problems.push_back(std::string(var) + " is set");
  if (CMCP_SIMCHECK_ENABLED) problems.push_back("SimCheck is compiled in");
#ifndef NDEBUG
  problems.push_back("NDEBUG is not defined");
#endif
  return problems;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Ordered JSON object writer for flat {name: value} maps.
class JsonObject {
 public:
  JsonObject& raw(std::string_view key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += quoted(key);
    body_ += ": ";
    body_ += json;
    return *this;
  }
  JsonObject& str(std::string_view key, std::string_view v) { return raw(key, quoted(v)); }
  JsonObject& number(std::string_view key, double v) { return raw(key, num(v)); }
  JsonObject& metric(std::string_view key, double v, std::string_view unit) {
    return raw(key, "{\"value\": " + num(v) + ", \"unit\": " + quoted(unit) + "}");
  }
  std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

JsonObject summary_json(const Summary& s) {
  JsonObject o;
  o.number("lower_quartile", s.lower_quartile)
      .number("median", s.median)
      .number("p90", s.p90)
      .number("reps", static_cast<double>(s.n));
  return o;
}

JsonObject run_metadata(const Args& args) {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1;
  std::string loadavg = "[";
  for (int i = 0; i < 3; ++i) {
    if (i > 0) loadavg += ", ";
    loadavg += num(load[i]);
  }
  loadavg += "]";
  JsonObject meta;
  meta.str("workload", args.workload)
      .number("seed", static_cast<double>(args.seed))
      .number("seconds", args.seconds)
      .number("trace", args.trace)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("cxx_flags", PERFBENCH_CXX_FLAGS)
      .str("simcheck", CMCP_SIMCHECK_ENABLED ? "on" : "off")
      .number("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .raw("loadavg", loadavg);
  return meta;
}

/// Pass/fail bookkeeping over every checked rep.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;

  void record(const std::vector<std::string>& failures, std::string_view what) {
    ++attempted;
    if (failures.empty()) return;
    ++failed;
    for (const std::string& f : failures)
      if (reasons.size() < 16) reasons.push_back(std::string(what) + ":" + f);
  }
};

void print_result(const JsonObject& meta, const Tally& tally, const JsonObject& metrics) {
  JsonObject reasons_line = meta;
  std::string reasons = "[";
  for (std::size_t i = 0; i < tally.reasons.size(); ++i) {
    if (i > 0) reasons += ", ";
    reasons += quoted(tally.reasons[i]);
  }
  reasons_line.raw("failures", reasons + "]");
  std::printf("{\"meta\": %s}\n", reasons_line.json().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), metrics.json().c_str());
  std::fflush(stdout);
}

constexpr int kMinReps = 3;

bool keep_going(std::uint64_t deadline, int reps) {
  return reps < kMinReps || now_ns() < deadline;
}

std::uint64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
}

// --- untraced run: the end-to-end metrics ---------------------------------

/// next() calls between two StepClock marks: sub-millisecond stretches on
/// the paper cells, short enough for the quiet moments of a noisy host to
/// show in some rep.
constexpr std::uint32_t kMarkEvery = 256;

/// The warm-up rep: checked and counted, discarded from timing; its digest
/// is the reference every later rep must reproduce.
struct WarmUp {
  Tally tally;
  Expect expect;
  RepResult rep;
  double refs = 0;
};

WarmUp warm_up(const CellRunner& runner) {
  WarmUp w;
  w.expect = Expect{runner.expected_refs(), runner.spec().evicts, std::nullopt};
  w.rep = runner.rep(nullptr);
  w.tally.record(check_outcome(w.rep.outcome, w.expect), "warmup");
  w.expect.digest = digest(w.rep.outcome);
  w.refs = static_cast<double>(std::max<std::uint64_t>(w.expect.refs, 1));
  return w;
}

int run_plain(const Args& args, const CellRunner& runner) {
  auto [tally, expect, warm, refs] = warm_up(runner);

  std::vector<double> ns_per_ref;
  std::vector<double> setup_s;
  std::vector<std::vector<std::uint64_t>> marks;
  const std::uint64_t deadline = deadline_after(args.seconds);
  for (int reps = 0; keep_going(deadline, reps); ++reps) {
    StepClock clock(kMarkEvery);
    Observers obs;
    obs.clock = &clock;
    const RepResult r = runner.rep(&obs);
    std::vector<std::string> failures = check_outcome(r.outcome, expect);
    if (!marks.empty() && clock.marks().size() != marks.front().size())
      failures.push_back("step-count");
    tally.record(failures, "rep");
    if (marks.empty() || clock.marks().size() == marks.front().size())
      marks.push_back(clock.marks());
    ns_per_ref.push_back(static_cast<double>(r.run_ns) / refs);
    setup_s.push_back(static_cast<double>(r.generate_ns + r.construct_ns) / 1e9);
  }

  const Summary run = summarize(ns_per_ref);
  const Summary setup = summarize(setup_s);
  const double stretchwise = stretchwise_min(marks) / refs;
  JsonObject meta = run_metadata(args);
  meta.raw("run_ns_per_ref", summary_json(run).json())
      .raw("setup_s", summary_json(setup).json())
      .number("refs", refs)
      .number("stretches", static_cast<double>(marks.front().size() - 1));
  JsonObject metrics;
  metrics.metric("host_ns_per_ref", stretchwise, "ns")
      .metric("setup_s", setup.lower_quartile, "s")
      .metric("peak_rss_mb", peak_rss_mb(), "MB")
      .metric("sim_makespan_gcycles", static_cast<double>(warm.outcome.makespan) / 1e9,
              "Gcycles")
      .metric("pass_frac",
              static_cast<double>(tally.attempted - tally.failed) /
                  static_cast<double>(tally.attempted),
              "ratio");
  print_result(meta, tally, metrics);
  return 0;
}

// --- traced run: the per-layer metrics -------------------------------------

/// Union of the built-in policies' stats() keys used by the cells (CMCP and
/// LRU); a key a policy does not report reads 0.
constexpr std::string_view kPolicyStats[] = {
    "promotions", "displacements", "aged_out", "priority_size",
    "fifo_size",  "demotions",     "active",   "inactive"};

constexpr cmcp::sim::trace::EventKind kTraceKinds[] = {
    cmcp::sim::trace::EventKind::kMinorFault,  cmcp::sim::trace::EventKind::kMajorFault,
    cmcp::sim::trace::EventKind::kVictimPick,  cmcp::sim::trace::EventKind::kEviction,
    cmcp::sim::trace::EventKind::kShootdown,   cmcp::sim::trace::EventKind::kSlotHold,
    cmcp::sim::trace::EventKind::kPcieTransfer, cmcp::sim::trace::EventKind::kScanPass,
    cmcp::sim::trace::EventKind::kBarrierWait};

/// Host timings of one traced rep, taken from its spans.
struct TracedTimes {
  double gen_s = 0, construct_s = 0, next_share = 0, self_ns_per_ref = 0;
  double run_ns_per_ref = 0;
  std::array<double, kNumCalls> ns_per_call{};
  std::array<std::uint64_t, kNumCalls> calls{};
};

TracedTimes times_of(const SpanRecorder& rec, int rep_span, const TimerCost& cost,
                     double refs) {
  TracedTimes t;
  int run_span = -1;
  std::array<CallAgg, kNumCalls> agg{};
  const auto& spans = rec.spans();
  for (std::size_t i = static_cast<std::size_t>(rep_span); i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (static_cast<int>(i) != rep_span && s.parent != rep_span) continue;
    if (s.name == "setup.generate") t.gen_s = static_cast<double>(s.duration_ns()) / 1e9;
    if (s.name == "setup.construct") t.construct_s = static_cast<double>(s.duration_ns()) / 1e9;
    if (s.name == "run") run_span = static_cast<int>(i);
    for (std::size_t c = 0; c < kNumCalls; ++c) {
      agg[c].calls += s.calls[c].calls;
      agg[c].ns += s.calls[c].ns;
    }
  }
  const double run_ns = static_cast<double>(spans[static_cast<std::size_t>(run_span)].duration_ns());
  for (std::size_t c = 0; c < kNumCalls; ++c) {
    t.calls[c] = agg[c].calls;
    const double net = std::max(0.0, static_cast<double>(agg[c].ns) -
                                         static_cast<double>(agg[c].calls) * cost.inside_ns);
    t.ns_per_call[c] = agg[c].calls > 0 ? net / static_cast<double>(agg[c].calls) : 0.0;
  }
  const std::size_t next = static_cast<std::size_t>(Call::kNext);
  t.next_share = t.ns_per_call[next] * static_cast<double>(t.calls[next]) / run_ns;
  t.self_ns_per_ref = rec.self_ns(run_span, cost) / refs;
  t.run_ns_per_ref = run_ns / refs;
  return t;
}

int run_traced(const Args& args, const CellRunner& runner) {
  auto [tally, expect, warm, refs] = warm_up(runner);
  const TimerCost cost = calibrate_timer();

  SpanRecorder rec;
  cmcp::sim::trace::EventSink sink;
  std::vector<double> plain_ns_per_ref;
  std::vector<TracedTimes> traced;
  Outcome traced_outcome;
  std::uint64_t victim_extra = 0;
  std::array<std::uint64_t, cmcp::sim::trace::kNumEventKinds> events{};
  std::vector<std::uint64_t> first_counts;

  const std::uint64_t deadline = deadline_after(args.seconds);
  for (int reps = 0; keep_going(deadline, reps); ++reps) {
    const RepResult plain = runner.rep(nullptr);
    tally.record(check_outcome(plain.outcome, expect), "rep");
    plain_ns_per_ref.push_back(static_cast<double>(plain.run_ns) / refs);

    // The decorators and the sink are pure observers: a traced rep must
    // reproduce the plain digest exactly.
    Observers obs{&rec, &sink, 0};
    sink.clear();
    const int rep_span = static_cast<int>(rec.spans().size());
    const RepResult r = runner.rep(&obs);
    const TracedTimes times = times_of(rec, rep_span, cost, refs);
    events.fill(0);
    for (const cmcp::sim::trace::Event& e : sink.events())
      ++events[static_cast<std::size_t>(e.kind)];
    // Per-layer counts are simulated work too: they repeat exactly.
    std::vector<std::uint64_t> counts{obs.victim_extra_cycles};
    for (std::uint64_t c : times.calls) counts.push_back(c);
    for (std::uint64_t e : events) counts.push_back(e);
    std::vector<std::string> failures = check_outcome(r.outcome, expect);
    if (traced.empty()) first_counts = counts;
    if (counts != first_counts) failures.push_back("layer-counts");
    tally.record(failures, "traced");
    traced.push_back(times);
    traced_outcome = r.outcome;
    victim_extra = obs.victim_extra_cycles;
  }
  sink.clear();

  const cmcp::wl::MultiTenantSpec spec = runner.generate();
  const std::vector<PageRef> stream = page_stream(spec, 1'000'000);
  const ReplayNs rp = replay(stream, spec.total_cores(), 5);

  if (!args.spans.empty()) {
    std::ofstream out(args.spans);
    rec.write_json(out, cost);
  }

  const auto lq = [&](auto field) {
    std::vector<double> xs;
    for (const TracedTimes& t : traced) xs.push_back(field(t));
    return quantile(xs, 0.25);
  };
  const Outcome& o = traced_outcome;
  const double krefs = refs / 1000.0;
  const auto per_kref = [&](std::uint64_t v) { return static_cast<double>(v) / krefs; };
  const cmcp::metrics::CoreCounters& tot = o.total;
  const cmcp::metrics::CoreCounters& scn = o.scanner;

  JsonObject m;
  m.metric("workloads.gen_s", lq([](const TracedTimes& t) { return t.gen_s; }), "s")
      .metric("workloads.next_calls",
              static_cast<double>(traced.back().calls[static_cast<std::size_t>(Call::kNext)]),
              "count")
      .metric("workloads.next_ns",
              lq([](const TracedTimes& t) {
                return t.ns_per_call[static_cast<std::size_t>(Call::kNext)];
              }),
              "ns/call")
      .metric("workloads.next_share", lq([](const TracedTimes& t) { return t.next_share; }),
              "ratio");

  m.metric("core.construct_s", lq([](const TracedTimes& t) { return t.construct_s; }), "s")
      .metric("core.self_ns_per_ref",
              lq([](const TracedTimes& t) { return t.self_ns_per_ref; }), "ns/ref")
      .metric("core.major_faults", per_kref(tot.major_faults), "1/kref")
      .metric("core.minor_faults", per_kref(tot.minor_faults), "1/kref")
      .metric("core.evictions", per_kref(tot.evictions + scn.evictions), "1/kref")
      .metric("core.writebacks", per_kref(tot.writebacks + scn.writebacks), "1/kref");
  std::uint64_t cross = 0;
  const std::size_t n = o.parts.size();
  for (std::size_t cause = 0; cause < n && !o.interference.empty(); ++cause)
    for (std::size_t recv = 0; recv < n; ++recv)
      if (cause != recv) cross += o.interference[cause * n + recv];
  m.metric("core.cross_tenant_invalidations", static_cast<double>(cross), "count")
      .metric("core.jain_fairness", o.jain_fairness, "ratio");

  for (std::size_t c = static_cast<std::size_t>(Call::kOnInsert); c < kNumCalls; ++c) {
    const std::string name(kCallNames[c]);  // the policy hooks follow next()
    m.metric("policy." + name + "_calls",
             static_cast<double>(traced.back().calls[c]), "count");
    m.metric("policy." + name + "_ns",
             lq([c](const TracedTimes& t) { return t.ns_per_call[c]; }), "ns/call");
  }
  m.metric("policy.victim_extra_cycles", static_cast<double>(victim_extra), "cycles");
  for (std::string_view key : kPolicyStats) {
    std::uint64_t v = 0;
    for (const auto& [k, value] : o.policy_stats)
      if (k == key) v = value;
    m.metric("policy.stat." + std::string(key), static_cast<double>(v), "count");
  }

  m.metric("mm.pte_lookup_ns", rp.pte_lookup, "ns/op")
      .metric("mm.registry_op_ns", rp.registry_op, "ns/op");

  m.metric("sim.dtlb_misses", per_kref(tot.dtlb_misses), "1/kref")
      .metric("sim.shootdowns", per_kref(tot.shootdowns_initiated + scn.shootdowns_initiated),
              "1/kref")
      .metric("sim.ipis", per_kref(tot.ipis_received + scn.ipis_received), "1/kref")
      .metric("sim.remote_invalidations",
              per_kref(tot.remote_invalidations_received + scn.remote_invalidations_received),
              "1/kref")
      .metric("sim.pcie_bytes_in", per_kref(tot.pcie_bytes_in + scn.pcie_bytes_in), "B/kref")
      .metric("sim.pcie_bytes_out", per_kref(tot.pcie_bytes_out + scn.pcie_bytes_out),
              "B/kref")
      .metric("sim.scans", per_kref(o.scans), "1/kref");
  const std::pair<std::string_view, cmcp::Cycles> causes[] = {
      {"compute", tot.cycles_compute},     {"mem", tot.cycles_mem},
      {"fault", tot.cycles_fault},         {"pcie_wait", tot.cycles_pcie_wait},
      {"shootdown", tot.cycles_shootdown}, {"interrupt", tot.cycles_interrupt},
      {"lock_wait", tot.cycles_lock_wait}, {"barrier", tot.cycles_barrier}};
  double cycles = 0;
  for (const auto& [name, c] : causes) cycles += static_cast<double>(c);
  for (const auto& [name, c] : causes)
    m.metric("sim.cycles." + std::string(name), static_cast<double>(c) / cycles, "ratio");
  for (cmcp::sim::trace::EventKind kind : kTraceKinds)
    m.metric("sim.trace_events." + std::string(cmcp::sim::trace::to_string(kind)),
             static_cast<double>(events[static_cast<std::size_t>(kind)]), "count");
  m.metric("sim.tlb_lookup_ns", rp.tlb_lookup, "ns/op");

  const Summary plain = summarize(plain_ns_per_ref);
  m.metric("bench.trace_overhead_ns_per_ref",
           lq([](const TracedTimes& t) { return t.run_ns_per_ref; }) - plain.lower_quartile,
           "ns/ref");

  JsonObject meta = run_metadata(args);
  meta.raw("plain_host_ns_per_ref", summary_json(plain).json())
      .number("refs", refs)
      .number("traced_reps", static_cast<double>(traced.size()))
      .number("timer_inside_ns", cost.inside_ns)
      .number("timer_total_ns", cost.total_ns)
      .number("replay_refs", static_cast<double>(stream.size()))
      .number("replay_hits", static_cast<double>(rp.hits));
  print_result(meta, tally, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans <path>]\n",
                 argv[0]);
    return 2;
  }
  const CellSpec* cell = find_cell(args.workload);
  if (cell == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", args.workload.c_str());
    for (const CellSpec& c : all_cells()) std::fprintf(stderr, " %.*s",
                                                       static_cast<int>(c.name.size()),
                                                       c.name.data());
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (const auto problems = hygiene_problems(); !problems.empty()) {
    for (const std::string& p : problems)
      std::fprintf(stderr, "refusing to run: %s\n", p.c_str());
    return 2;
  }
  const CellRunner runner(*cell, args.seed);
  return args.trace == 1 ? run_traced(args, runner) : run_plain(args, runner);
}
