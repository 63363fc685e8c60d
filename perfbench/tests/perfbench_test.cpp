// Tests of the benchmark's own machinery: the quantile and stretchwise
// helpers, observer transparency of the decorators, and the correctness gate.
#include <gtest/gtest.h>

#include <algorithm>

#include "cells.h"
#include "checks.h"
#include "layers.h"
#include "replay.h"
#include "stats.h"

namespace perfbench {
namespace {

CellSpec tiny(cmcp::PolicyKind policy, unsigned tenants = 0) {
  CellSpec spec;
  spec.name = "tiny";
  spec.workload = cmcp::wl::PaperWorkload::kBt;
  spec.cores = 4;
  spec.policy = policy;
  spec.tenants = tenants;
  spec.memory_fraction = tenants > 0 ? 0.5 : -1.0;
  spec.scale = 0.05;
  return spec;
}

TEST(Quantile, KnownInputs) {
  EXPECT_DOUBLE_EQ(quantile({5, 1, 4, 2, 3}, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.9), 3.7);
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({7}, 0.25), 7.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.25), 0.0);
  const Summary s = summarize({10, 20, 30, 40, 50});
  EXPECT_DOUBLE_EQ(s.lower_quartile, 20.0);
  EXPECT_DOUBLE_EQ(s.median, 30.0);
  EXPECT_DOUBLE_EQ(s.p90, 46.0);
  EXPECT_EQ(s.n, 5u);
}

TEST(StretchwiseMin, SumsTheFastestRepOfEachStretch) {
  // Stretch 0 takes 10/20/5 ns in the three reps, stretch 1 takes 20/5/35.
  const std::vector<std::vector<std::uint64_t>> marks = {
      {100, 110, 130}, {0, 20, 25}, {7, 12, 47}};
  EXPECT_DOUBLE_EQ(stretchwise_min(marks), 5.0 + 5.0);
  EXPECT_DOUBLE_EQ(stretchwise_min({{3, 9}}), 6.0);
  EXPECT_DOUBLE_EQ(stretchwise_min({}), 0.0);
}

class DecoratedRun : public ::testing::TestWithParam<CellSpec> {};

TEST_P(DecoratedRun, EqualsPlainRun) {
  const CellRunner runner(GetParam(), 7);
  const RepResult plain = runner.rep(nullptr);

  SpanRecorder rec;
  cmcp::sim::trace::EventSink sink;
  Observers obs{&rec, &sink, 0};
  const RepResult traced = runner.rep(&obs);

  EXPECT_EQ(digest(traced.outcome), digest(plain.outcome));
  EXPECT_EQ(traced.outcome.makespan, plain.outcome.makespan);
  const Expect expect{runner.expected_refs(), true, digest(plain.outcome)};
  EXPECT_TRUE(check_outcome(plain.outcome, expect).empty());
  EXPECT_TRUE(check_outcome(traced.outcome, expect).empty());

  // The observers saw the run: streams were pulled, pages inserted, events
  // recorded, and the spans nest rep -> setup.generate / run.
  std::uint64_t next_calls = 0;
  std::uint64_t inserts = 0;
  for (const Span& s : rec.spans()) {
    next_calls += s.calls[static_cast<std::size_t>(Call::kNext)].calls;
    inserts += s.calls[static_cast<std::size_t>(Call::kOnInsert)].calls;
  }
  EXPECT_GT(next_calls, 0u);
  EXPECT_EQ(inserts, traced.outcome.total.major_faults);
  EXPECT_FALSE(sink.events().empty());
  ASSERT_GE(rec.spans().size(), 4u);
  EXPECT_EQ(rec.spans()[1].name, "rep");
  EXPECT_EQ(rec.spans()[2].name, "setup.generate");
  EXPECT_EQ(rec.spans()[2].parent, 1);
  EXPECT_EQ(rec.spans().back().name, "run");
  EXPECT_EQ(rec.spans().back().parent, 1);

  // The step clock marks the same points of the run in every rep, and
  // ticking it changes nothing simulated.
  std::size_t num_marks = 0;
  for (int rep = 0; rep < 2; ++rep) {
    StepClock clock(16);
    Observers clocked;
    clocked.clock = &clock;
    const RepResult c = runner.rep(&clocked);
    EXPECT_EQ(digest(c.outcome), digest(plain.outcome));
    ASSERT_GT(clock.marks().size(), 2u);
    if (rep == 1) {
      EXPECT_EQ(clock.marks().size(), num_marks);
    }
    num_marks = clock.marks().size();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tiny, DecoratedRun,
    ::testing::Values(tiny(cmcp::PolicyKind::kCmcp), tiny(cmcp::PolicyKind::kLru),
                      tiny(cmcp::PolicyKind::kCmcp, 2)),
    [](const auto& param_info) {
      return std::string(param_info.param.policy == cmcp::PolicyKind::kLru ? "lru" : "cmcp") +
             (param_info.param.tenants > 0 ? "_tenants" : "");
    });

TEST(CorrectnessGate, CorruptedCounterIsAFailure) {
  const CellRunner runner(tiny(cmcp::PolicyKind::kCmcp), 7);
  const RepResult r = runner.rep(nullptr);
  const Expect expect{runner.expected_refs(), true, digest(r.outcome)};
  ASSERT_TRUE(check_outcome(r.outcome, expect).empty());
  ASSERT_GT(r.outcome.total.evictions, 0u);

  Outcome corrupted = r.outcome;
  ++corrupted.parts[1].major_faults;
  const auto failures = check_outcome(corrupted, expect);
  EXPECT_EQ(failures, (std::vector<std::string>{"digest", "cross-foot"}));

  Outcome lost_refs = r.outcome;
  --lost_refs.total.accesses;
  --lost_refs.parts[0].accesses;
  const auto refs_failures = check_outcome(lost_refs, expect);
  EXPECT_NE(std::find(refs_failures.begin(), refs_failures.end(), "refs"),
            refs_failures.end());

  // A cell sized to evict nothing fails on the first eviction.
  const Expect no_evictions{expect.refs, false, std::nullopt};
  EXPECT_EQ(check_outcome(r.outcome, no_evictions), std::vector<std::string>{"evicted"});

  Outcome faulty = r.outcome;
  faulty.faults_enabled = true;
  EXPECT_EQ(check_outcome(faulty, Expect{expect.refs, true, std::nullopt}),
            std::vector<std::string>{"faults-enabled"});
}

TEST(CorrectnessGate, TenantInterferenceCrossFoots) {
  const CellRunner runner(tiny(cmcp::PolicyKind::kCmcp, 2), 7);
  const RepResult r = runner.rep(nullptr);
  const Expect expect{runner.expected_refs(), true, std::nullopt};
  ASSERT_TRUE(check_outcome(r.outcome, expect).empty());
  ASSERT_EQ(r.outcome.interference.size(), 4u);

  Outcome corrupted = r.outcome;
  ++corrupted.interference[1];
  EXPECT_EQ(check_outcome(corrupted, expect),
            std::vector<std::string>{"interference-cross-foot"});
}

TEST(Replay, CountsHitsOverTheCellStream) {
  const CellRunner runner(tiny(cmcp::PolicyKind::kCmcp), 7);
  const cmcp::wl::MultiTenantSpec spec = runner.generate();
  const std::vector<PageRef> refs = page_stream(spec, 5000);
  ASSERT_EQ(refs.size(), 5000u);
  for (const PageRef& r : refs) ASSERT_LT(r.core, spec.total_cores());
  const ReplayNs a = replay(refs, spec.total_cores(), 2);
  const ReplayNs b = replay(refs, spec.total_cores(), 2);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_GT(a.hits, 0u);
  EXPECT_GT(a.pte_lookup, 0.0);
}

}  // namespace
}  // namespace perfbench
