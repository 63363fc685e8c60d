#include "workloads/lu.h"

#include "workloads/partition_util.h"

namespace cmcp::wl {

namespace {
constexpr std::uint32_t kDefaultIterations = 4;
constexpr Cycles kDefaultComputePerPage = 26000;
}  // namespace

LuWorkload::LuWorkload(const LuParams& params) : params_(params) {
  const WorkloadParams& base = params_.base;
  const CoreId n = base.cores;
  const std::uint64_t u_pages = detail::scaled(params_.u_pages, base.scale);
  const std::uint64_t rsd_pages = detail::scaled(params_.rsd_pages, base.scale);
  const std::uint64_t flux_pages = detail::scaled(params_.flux_pages, base.scale);

  const Vpn u_base = 0;
  const Vpn rsd_base = u_base + u_pages;
  const Vpn flux_base = rsd_base + rsd_pages;
  footprint_ = flux_base + flux_pages;

  const std::uint32_t iterations =
      base.iterations != 0 ? base.iterations : kDefaultIterations;
  const Cycles cpp =
      base.compute_per_page != 0 ? base.compute_per_page : kDefaultComputePerPage;
  const std::uint32_t planes = std::max<std::uint32_t>(params_.planes, 1);

  Rng rng(base.seed);
  ScheduleBuilder sb(n, cpp);

  const std::uint64_t u_plane = std::max<std::uint64_t>(u_pages / planes, 1);
  const std::uint64_t rsd_plane = std::max<std::uint64_t>(rsd_pages / planes, 1);

  // Touch core c's partition of one plane plus halos. The upper sweep
  // (cross != 0) decomposes the plane across the memory layout: a fraction
  // of each block's segments is handled by a core 1-2 blocks away (stable
  // across iterations), spreading boundary pages over 3-6 cores — the
  // "somewhat less regular" profile of Fig. 6b.
  const auto sweep_plane = [&](Vpn region_base, std::uint64_t plane_pages,
                               std::uint32_t plane, std::uint64_t cross,
                               bool write) {
    const auto bounds =
        detail::jittered_bounds(plane_pages, n, params_.boundary_jitter, rng);
    const std::uint64_t halo = static_cast<std::uint64_t>(
        params_.halo_fraction * static_cast<double>(plane_pages) / n);
    const Vpn plane_base = region_base + static_cast<Vpn>(plane) * plane_pages;
    if (cross == 0) {
      for (CoreId c = 0; c < n; ++c)
        detail::touch_block_with_halo(sb, c, bounds, plane_base, halo, write,
                                      /*repeat=*/1, /*halo_repeat=*/2);
    } else {
      detail::ExchangeConfig cfg;
      cfg.segment_pages = 8;
      cfg.exchange_fraction = params_.exchange_fraction;
      cfg.max_distance = 2;
      cfg.phase_seed = cross * 0x2545f4914f6cdd1dULL + base.seed;
      const auto runs = detail::exchange_partition(plane_pages, n, cfg);
      for (CoreId c = 0; c < n; ++c) {
        // Halo strips of the nominal block edges, hot (read twice).
        if (halo > 0 && bounds[c] > 0) {
          const std::uint64_t h = std::min(halo, bounds[c]);
          sb.touch(c, plane_base + bounds[c] - h, h, false, 2);
        }
        if (halo > 0 && bounds[c + 1] < plane_pages) {
          const std::uint64_t h = std::min(halo, plane_pages - bounds[c + 1]);
          sb.touch(c, plane_base + bounds[c + 1], h, false, 2);
        }
        for (const auto& [first, len] : runs[c])
          sb.touch(c, plane_base + first, len, write, 1);
      }
    }
    sb.barrier_all();  // wavefront step
  };

  for (std::uint32_t iter = 0; iter < iterations; ++iter) {
    // Residual evaluation: flux scratch streamed privately, rsd written.
    {
      const auto flux_bounds =
          detail::jittered_bounds(flux_pages, n, params_.boundary_jitter, rng);
      for (CoreId c = 0; c < n; ++c) {
        sb.touch(c, flux_base + flux_bounds[c],
                 flux_bounds[c + 1] - flux_bounds[c], /*write=*/true,
                 /*repeat=*/1);
      }
      sb.barrier_all();
    }

    // Lower sweep: forward over the planes, nominal decomposition.
    for (std::uint32_t k = 0; k < planes; ++k) {
      sweep_plane(rsd_base, rsd_plane, k, 0, /*write=*/true);
      sweep_plane(u_base, u_plane, k, 0, /*write=*/false);
    }
    // Upper sweep: backwards, cross decomposition of the same planes.
    for (std::uint32_t k = planes; k-- > 0;) {
      sweep_plane(rsd_base, rsd_plane, k, 1, /*write=*/false);
      sweep_plane(u_base, u_plane, k, 2, /*write=*/true);
    }
  }

  schedules_ = sb.finish();
}

std::unique_ptr<AccessStream> LuWorkload::make_stream(CoreId core) const {
  CMCP_CHECK(core < schedules_.size());
  return std::make_unique<VectorStream>(schedules_[core]);
}

}  // namespace cmcp::wl
