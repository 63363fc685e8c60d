// EventQueue (the engine's winner tree) against a naive reference: a linear
// min over one key per core. Ties in virtual time are broken by core id;
// cores leave and re-enter through kMaxKey; the batching horizon is the
// exact second minimum.
#include "core/event_queue.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "core/simulation.h"
#include "workloads/trace.h"

namespace cmcp::core {
namespace {

using Key = std::uint64_t;
constexpr Key kMax = EventQueue::kMaxKey;

/// Smallest key, and smallest key of any other core.
struct RefMin {
  Key min = kMax;
  Key second = kMax;
};

RefMin reference(const std::vector<Key>& keys) {
  RefMin r;
  std::size_t at = keys.size();
  for (std::size_t c = 0; c < keys.size(); ++c)
    if (keys[c] < r.min) {
      r.min = keys[c];
      at = c;
    }
  for (std::size_t c = 0; c < keys.size(); ++c)
    if (c != at) r.second = std::min(r.second, keys[c]);
  return r;
}

void expect_matches(const EventQueue& q, const std::vector<Key>& keys) {
  const RefMin r = reference(keys);
  ASSERT_EQ(q.root(), r.min);
  ASSERT_EQ(q.empty(), r.min == kMax);
  if (q.empty()) return;
  ASSERT_EQ(q.horizon(), r.second);
}

class EventQueueSizes : public ::testing::TestWithParam<CoreId> {};

TEST_P(EventQueueSizes, MatchesLinearMinUnderRandomSets) {
  const CoreId n = GetParam();
  EventQueue q(n);
  std::vector<Key> keys(n, kMax);
  expect_matches(q, keys);

  Rng rng(0x5eed + n);
  for (CoreId c = 0; c < n; ++c) {
    keys[c] = EventQueue::pack(rng.next_below(8), c);
    q.set(c, keys[c]);
  }
  expect_matches(q, keys);

  // Times drawn from a narrow window, so exact time ties between cores are
  // common and the core id decides the order.
  Cycles base = 0;
  const unsigned steps = 20000;
  for (unsigned i = 0; i < steps; ++i) {
    const CoreId c = rng.next_below(4) == 0
                         ? EventQueue::core_of(q.empty() ? 0 : q.root())
                         : static_cast<CoreId>(rng.next_below(n));
    if (rng.next_below(8) == 0) {
      keys[c] = kMax;  // leave (barrier / end)
    } else {
      base += rng.next_below(3);
      keys[c] = EventQueue::pack(base + rng.next_below(4), c);
    }
    q.set(c, keys[c]);
    expect_matches(q, keys);
  }

  // Everyone leaves, then re-enters at one shared time: the lowest core id
  // wins and the next one is the horizon.
  for (CoreId c = 0; c < n; ++c) q.set(c, keys[c] = kMax);
  expect_matches(q, keys);
  EXPECT_TRUE(q.empty());
  for (CoreId c = n; c-- > 0;) {
    q.set(c, keys[c] = EventQueue::pack(base, c));
    expect_matches(q, keys);
  }
  EXPECT_EQ(EventQueue::core_of(q.root()), 0u);
  if (n > 1) {
    EXPECT_EQ(EventQueue::core_of(q.horizon()), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, EventQueueSizes,
                         ::testing::Values(CoreId{1}, CoreId{2}, CoreId{3},
                                           CoreId{56}, CoreId{57},
                                           CoreId{1024},
                                           CoreId{CoreMask::kMaxCores - 1}));

TEST(EventQueue, PackRoundTrips) {
  const Key k = EventQueue::pack(EventQueue::kMaxTime, 1087);
  EXPECT_EQ(EventQueue::time_of(k), EventQueue::kMaxTime);
  EXPECT_EQ(EventQueue::core_of(k), 1087u);
  EXPECT_LT(k, kMax);
  EXPECT_LT(EventQueue::pack(5, 9), EventQueue::pack(6, 0));
  EXPECT_LT(EventQueue::pack(5, 3), EventQueue::pack(5, 4));
}

TEST(EventQueueDeath, PackRejectsTimePastKeyRange) {
  EXPECT_DEATH(EventQueue::pack(EventQueue::kMaxTime + 1, 0),
               "overflows the event key");
}

// A replayed compute op that lands a clock on 2^53 used to wrap its key to
// 0 and spin the engine's stale-key repair forever; it must stop with a
// diagnostic. A clock just below 2^53 still runs to completion.
std::unique_ptr<wl::TraceWorkload> two_core_trace(Cycles compute) {
  std::stringstream in;
  in << "cmcp-trace v1\ncores 2\npages 16\n"
     << "core 0\na 0 4 1 1 r 0\nc " << compute << "\na 4 4 1 1 w 0\n"
     << "core 1\na 8 4 1 1 r 0\n";
  return wl::TraceWorkload::parse(in);
}

SimulationConfig two_core_config() {
  SimulationConfig config;
  config.machine.num_cores = 2;
  config.memory_fraction = 1.0;
  return config;
}

TEST(EngineDeath, ClockPastKeyRangeStopsWithDiagnostic) {
  const auto trace = two_core_trace(Cycles{1} << 53);
  EXPECT_DEATH(run_simulation(two_core_config(), *trace),
               "overflows the event key");
}

TEST(Engine, ClockJustBelowKeyRangeCompletes) {
  // The compute op starts after the first access's faults, so keep the
  // landing clock inside the key range with some headroom.
  const auto trace = two_core_trace((Cycles{1} << 53) - (Cycles{1} << 40));
  const auto result = run_simulation(two_core_config(), *trace);
  EXPECT_GT(result.makespan, Cycles{1} << 52);
}

}  // namespace
}  // namespace cmcp::core
