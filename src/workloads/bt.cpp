#include "workloads/bt.h"

#include <algorithm>
#include <utility>

#include "workloads/partition_util.h"

namespace cmcp::wl {

namespace {
constexpr std::uint32_t kDefaultIterations = 5;
constexpr Cycles kDefaultComputePerPage = 34000;
constexpr std::uint64_t kInterleaveChunk = 8;  // pages per region per step
}  // namespace

BtWorkload::BtWorkload(const BtParams& params) : params_(params) {
  const WorkloadParams& base = params_.base;
  const CoreId n = base.cores;
  const std::uint64_t u_pages = detail::scaled(params_.u_pages, base.scale);
  const std::uint64_t rhs_pages = detail::scaled(params_.rhs_pages, base.scale);
  const std::uint64_t lhs_pages = detail::scaled(params_.lhs_pages, base.scale);

  const Vpn u_base = 0;
  const Vpn rhs_base = u_base + u_pages;
  const Vpn lhs_base = rhs_base + rhs_pages;
  footprint_ = lhs_base + lhs_pages;

  const std::uint32_t iterations =
      base.iterations != 0 ? base.iterations : kDefaultIterations;
  const Cycles cpp =
      base.compute_per_page != 0 ? base.compute_per_page : kDefaultComputePerPage;

  Rng rng(base.seed);
  ScheduleBuilder sb(n, cpp);

  struct Region {
    Vpn vbase;
    std::uint64_t pages;
    bool write;
  };

  // One phase: walk the listed arrays together, chunk-interleaved (a line
  // solve reads u and the factored lhs while updating rhs in place).
  //
  // phase_seed == 0 decomposes along the memory layout (jittered blocks).
  // Other seeds model the y/z-direction solves, which decompose the same 3D
  // arrays along a different axis: a fraction of each block's segments is
  // processed by a core 1-3 blocks away (see ExchangeConfig). Interiors stay
  // private; exchanged segments and halos give pages 2-6 mapping cores —
  // BT's flat-tailed distribution in Fig. 6c.
  const auto solve_phase = [&](std::initializer_list<Region> regions,
                               std::uint64_t phase_seed) {
    // Nominal bounds (for halo placement) are jittered per call; exchange
    // phases partition each region for all cores at once.
    detail::ExchangeConfig cfg;
    cfg.exchange_fraction = params_.exchange_fraction;
    cfg.phase_seed = phase_seed * 0x9e3779b97f4a7c15ULL + base.seed;
    std::vector<std::vector<std::uint64_t>> nominal;
    std::vector<std::vector<detail::Runs>> exchanged;
    for (const Region& r : regions) {
      nominal.push_back(
          detail::jittered_bounds(r.pages, n, params_.boundary_jitter, rng));
      if (phase_seed != 0)
        exchanged.push_back(detail::exchange_partition(r.pages, n, cfg));
    }

    for (CoreId c = 0; c < n; ++c) {
      struct Cursor {
        Region region;
        detail::Runs runs;
        std::size_t run = 0;
        std::uint64_t off = 0;
        std::uint64_t halo_base = 0;  ///< first page of the right halo
        std::uint64_t halo = 0;
      };
      std::vector<Cursor> cursors;
      std::size_t ri = 0;
      for (const Region& r : regions) {
        Cursor cur;
        cur.region = r;
        const auto& bounds = nominal[ri];
        const std::uint64_t block = std::max<std::uint64_t>(r.pages / n, 1);
        cur.halo = static_cast<std::uint64_t>(
            params_.halo_fraction * static_cast<double>(block));
        cur.halo_base = bounds[c + 1];
        if (phase_seed == 0)
          cur.runs.emplace_back(bounds[c], bounds[c + 1] - bounds[c]);
        else
          cur.runs = std::move(exchanged[ri][c]);
        ++ri;
        // Halo reads ahead of the sweep: boundary strips of the
        // neighbouring nominal blocks.
        if (cur.halo > 0) {
          if (bounds[c] > 0) {
            const std::uint64_t h = std::min(cur.halo, bounds[c]);
            sb.touch(c, r.vbase + bounds[c] - h, h, false, 1);
          }
          if (bounds[c + 1] < r.pages) {
            const std::uint64_t h = std::min(cur.halo, r.pages - bounds[c + 1]);
            sb.touch(c, r.vbase + bounds[c + 1], h, false, 1);
          }
        }
        cursors.push_back(std::move(cur));
      }

      // Chunk-interleaved sweep across the arrays.
      bool more = true;
      std::uint32_t step = 0;
      while (more) {
        more = false;
        for (Cursor& cur : cursors) {
          if (cur.run >= cur.runs.size()) continue;
          const auto [first, len] = cur.runs[cur.run];
          const std::uint64_t todo =
              std::min(kInterleaveChunk, len - cur.off);
          sb.touch(c, cur.region.vbase + first + cur.off, todo,
                   cur.region.write, 1);
          cur.off += todo;
          if (cur.off >= len) {
            ++cur.run;
            cur.off = 0;
          }
          if (cur.run < cur.runs.size()) more = true;
        }
        // Periodic mid-sweep halo re-reads (boundary coupling terms are
        // consulted throughout a line solve), rotating over the halo band.
        if (++step % 4 == 0) {
          for (const Cursor& cur : cursors) {
            if (cur.halo == 0 || cur.halo_base >= cur.region.pages) continue;
            const std::uint64_t off = (step / 4) % cur.halo;
            if (cur.halo_base + off < cur.region.pages)
              sb.touch_page_compute(c, cur.region.vbase + cur.halo_base + off,
                                    false);
          }
        }
      }
    }
    sb.barrier_all();
  };

  for (std::uint32_t iter = 0; iter < iterations; ++iter) {
    // compute_rhs: u -> rhs along the memory layout.
    solve_phase(
        {Region{u_base, u_pages, false}, Region{rhs_base, rhs_pages, true}}, 0);
    // x / y / z solves: all three arrays; y and z decompose across the
    // layout (exchange partitions with fixed per-direction seeds, so the
    // owner sets are stable across iterations).
    for (std::uint64_t phase = 1; phase <= 3; ++phase) {
      solve_phase({Region{lhs_base, lhs_pages, true},
                   Region{rhs_base, rhs_pages, true},
                   Region{u_base, u_pages, false}},
                  phase);
    }
    // add: u += rhs.
    solve_phase(
        {Region{u_base, u_pages, true}, Region{rhs_base, rhs_pages, false}}, 0);
  }

  schedules_ = sb.finish();
}

std::unique_ptr<AccessStream> BtWorkload::make_stream(CoreId core) const {
  CMCP_CHECK(core < schedules_.size());
  return std::make_unique<VectorStream>(schedules_[core]);
}

}  // namespace cmcp::wl
