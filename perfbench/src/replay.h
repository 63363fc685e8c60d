// Replays a cell's own page stream through the public lookup calls of
// mm::Pspt, mm::PageRegistry and sim::Tlb, timing each structure alone.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "workloads/multi_tenant.h"

namespace perfbench {

struct PageRef {
  cmcp::CoreId core = 0;
  cmcp::UnitIdx unit = 0;  ///< 4 kB unit, machine-wide (tenant base applied)
};

/// One ref per referenced base page, ops taken round-robin over the
/// machine's cores (one op per core per turn); at most `limit` refs.
std::vector<PageRef> page_stream(const cmcp::wl::MultiTenantSpec& spec,
                                 std::size_t limit);

struct ReplayNs {
  double pte_lookup = 0.0;   ///< Pspt has_mapping + mark_accessed / map
  double registry_op = 0.0;  ///< PageRegistry find / insert
  double tlb_lookup = 0.0;   ///< per-core Tlb lookup / insert
  std::uint64_t hits = 0;    ///< lookups that found an entry, all rounds
};

/// Lower quartile over `rounds` fresh-structure replays, ns per ref.
ReplayNs replay(const std::vector<PageRef>& refs, cmcp::CoreId cores,
                int rounds);

}  // namespace perfbench
