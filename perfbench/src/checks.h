// Correctness gate behind the benchmark's pass/fail counts: every rep's
// simulated outcome is checked before its host timing is used.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cells.h"

namespace perfbench {

inline constexpr std::size_t kNumCounterFields = 28;

/// Every field of CoreCounters, in declaration order.
std::array<std::uint64_t, kNumCounterFields> counter_fields(
    const cmcp::metrics::CoreCounters& c);

/// FNV-1a over the makespan, every CoreCounters field of every part, the
/// totals, the scanner counters and the policy statistics.
std::uint64_t digest(const Outcome& o);

struct Expect {
  std::uint64_t refs = 0;        ///< references counted in the generated streams
  bool evicts = true;            ///< false: any eviction is a failure
  std::optional<std::uint64_t> digest;  ///< reference digest (warm-up rep)
};

/// Names of the failed checks; empty when the outcome passes.
std::vector<std::string> check_outcome(const Outcome& o, const Expect& expect);

}  // namespace perfbench
