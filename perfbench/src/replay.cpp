#include "replay.h"

#include <algorithm>
#include <memory>

#include "layers.h"
#include "mm/page_registry.h"
#include "mm/pspt.h"
#include "sim/tlb.h"
#include "stats.h"

namespace perfbench {

using cmcp::CoreId;
using cmcp::UnitIdx;

std::vector<PageRef> page_stream(const cmcp::wl::MultiTenantSpec& spec,
                                 std::size_t limit) {
  struct Cursor {
    std::unique_ptr<cmcp::wl::AccessStream> stream;
    CoreId core;
    cmcp::Vpn base;
  };
  std::vector<Cursor> cursors;
  for (cmcp::Asid t = 0; t < spec.num_tenants(); ++t) {
    const cmcp::wl::TenantPlacement p = spec.placement(t);
    for (CoreId c = 0; c < p.num_cores; ++c)
      cursors.push_back({spec.tenant(t).make_stream(c), p.first_core + c, p.area_base_vpn});
  }
  std::vector<PageRef> refs;
  refs.reserve(limit);
  bool live = true;
  while (live && refs.size() < limit) {
    live = false;
    for (Cursor& cur : cursors) {
      cmcp::wl::Op op = cur.stream->next();
      while (op.kind != cmcp::wl::OpKind::kAccess && op.kind != cmcp::wl::OpKind::kEnd)
        op = cur.stream->next();
      if (op.kind == cmcp::wl::OpKind::kEnd) continue;
      live = true;
      for (std::uint32_t i = 0; i < op.count && refs.size() < limit; ++i)
        refs.push_back({cur.core, cur.base + op.vpn + static_cast<cmcp::Vpn>(i) * op.stride});
    }
  }
  return refs;
}

namespace {

template <typename Fn>
double time_per_ref(const std::vector<PageRef>& refs, Fn&& pass) {
  const std::uint64_t t0 = now_ns();
  pass();
  return static_cast<double>(now_ns() - t0) /
         static_cast<double>(std::max<std::size_t>(refs.size(), 1));
}

}  // namespace

ReplayNs replay(const std::vector<PageRef>& refs, CoreId cores, int rounds) {
  UnitIdx units = 0;
  for (const PageRef& r : refs) units = std::max(units, r.unit + 1);
  std::vector<double> pte, reg, tlb;
  std::uint64_t hits = 0;
  for (int round = 0; round < rounds; ++round) {
    {
      cmcp::mm::Pspt pt(cores);
      pt.reserve_units(units);
      pte.push_back(time_per_ref(refs, [&] {
        for (const PageRef& r : refs) {
          if (pt.has_mapping(r.core, r.unit)) {
            pt.mark_accessed(r.core, r.unit);
            ++hits;
          } else {
            pt.map(r.core, r.unit, r.unit);
          }
        }
      }));
    }
    {
      cmcp::mm::PageRegistry registry;
      registry.reserve_units(units);
      reg.push_back(time_per_ref(refs, [&] {
        for (const PageRef& r : refs) {
          if (registry.find(r.unit) != nullptr)
            ++hits;
          else
            registry.insert(r.unit, r.unit, 0);
        }
      }));
    }
    {
      const std::uint32_t entries = cmcp::sim::TlbConfig{}.entries_for(cmcp::PageSizeClass::k4K);
      std::vector<cmcp::sim::Tlb> tlbs(cores, cmcp::sim::Tlb(entries));
      for (cmcp::sim::Tlb& t : tlbs) t.reserve_units(units);
      tlb.push_back(time_per_ref(refs, [&] {
        for (const PageRef& r : refs) {
          if (tlbs[r.core].lookup(r.unit))
            ++hits;
          else
            tlbs[r.core].insert(r.unit);
        }
      }));
    }
  }
  return ReplayNs{quantile(pte, 0.25), quantile(reg, 0.25), quantile(tlb, 0.25),
                  hits};
}

}  // namespace perfbench
