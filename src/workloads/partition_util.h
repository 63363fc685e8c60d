// Shared partitioning helpers for the workload generators.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "common/types.h"
#include "workloads/schedule_builder.h"

namespace cmcp::wl::detail {

/// Block-partition boundaries over [0, total) with per-call jitter: boundary
/// i moves by up to +/- jitter_frac * block around its nominal position.
/// Models run-to-run re-balancing of loop iterations onto threads, the
/// mechanism that spreads block-boundary pages over neighbouring cores.
inline std::vector<std::uint64_t> jittered_bounds(std::uint64_t total, CoreId cores,
                                                  double jitter_frac, Rng& rng) {
  CMCP_CHECK(cores > 0);
  std::vector<std::uint64_t> bounds(cores + 1);
  bounds[0] = 0;
  bounds[cores] = total;
  const double block = static_cast<double>(total) / cores;
  const auto jitter = static_cast<std::int64_t>(jitter_frac * block);
  for (CoreId i = 1; i < cores; ++i) {
    const auto nominal = static_cast<std::int64_t>(block * i);
    std::int64_t b = nominal;
    if (jitter > 0)
      b += static_cast<std::int64_t>(rng.next_range(0, 2 * jitter)) - jitter;
    bounds[i] = static_cast<std::uint64_t>(std::clamp<std::int64_t>(
        b, 1, static_cast<std::int64_t>(total) - 1));
  }
  // Jitter can reorder adjacent boundaries at tiny blocks; restore order.
  std::sort(bounds.begin(), bounds.end());
  return bounds;
}

/// Same partition with every boundary shifted by `shift` pages (wrapping is
/// clamped): used to model phases that decompose the same array along a
/// different axis (LU's second sweep, BT's per-direction solves).
inline std::vector<std::uint64_t> shifted_bounds(std::uint64_t total, CoreId cores,
                                                 std::uint64_t shift, double jitter_frac,
                                                 Rng& rng) {
  std::vector<std::uint64_t> bounds = jittered_bounds(total, cores, jitter_frac, rng);
  for (CoreId i = 1; i < cores; ++i)
    bounds[i] = std::min(bounds[i] + shift, total - 1);
  std::sort(bounds.begin(), bounds.end());
  return bounds;
}

/// Touch a core's block [bounds[core], bounds[core+1]) of a region rooted at
/// `region_base`, plus `halo` pages into each neighbouring block. Halo pages
/// carry their own repeat count: boundary data is typically consulted more
/// than once per sweep.
inline void touch_block_with_halo(ScheduleBuilder& sb, CoreId core,
                                  const std::vector<std::uint64_t>& bounds,
                                  Vpn region_base, std::uint64_t halo, bool write,
                                  std::uint16_t repeat,
                                  std::uint16_t halo_repeat = 0) {
  if (halo_repeat == 0) halo_repeat = repeat;
  const std::uint64_t begin = bounds[core];
  const std::uint64_t end = bounds[core + 1];
  if (halo > 0 && begin > 0) {
    // Left halo (tail of the previous block) read before the sweep.
    const std::uint64_t h = std::min(halo, begin);
    sb.touch(core, region_base + begin - h, h, /*write=*/false, halo_repeat);
  }
  if (end > begin) sb.touch(core, region_base + begin, end - begin, write, repeat);
  if (halo > 0) {
    // Right halo (head of the next block) read after reaching the boundary.
    const std::uint64_t total = bounds.back();
    if (end < total) {
      const std::uint64_t h = std::min(halo, total - end);
      sb.touch(core, region_base + end, h, /*write=*/false, halo_repeat);
    }
  }
}

/// Segmented exchange partition: the region is cut into fixed segments;
/// most stay with their nominal block owner, but a deterministic fraction is
/// processed by a core 1..max_distance blocks away. This models solves that
/// decompose the same array along a different axis than the memory layout
/// (BT's directional solves, LU's upper sweep): block interiors stay mostly
/// private while exchanged segments give pages 2-4 mapping cores, producing
/// the heavy-tailed sharing distributions of Fig. 6b/6c.
struct ExchangeConfig {
  std::uint64_t segment_pages = 16;
  double exchange_fraction = 0.30;
  unsigned max_distance = 3;
  std::uint64_t phase_seed = 0;
};

inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Owner core of segment `seg` (segment index within the region).
inline CoreId exchange_owner(std::uint64_t seg, std::uint64_t total_segments,
                             CoreId cores, const ExchangeConfig& cfg) {
  const CoreId nominal = static_cast<CoreId>(
      std::min<std::uint64_t>(seg * cores / std::max<std::uint64_t>(total_segments, 1),
                              cores - 1));
  const std::uint64_t h = mix64(seg * 0x2545f4914f6cdd1dULL + cfg.phase_seed);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (u >= cfg.exchange_fraction || cores < 2) return nominal;
  const unsigned d = 1 + static_cast<unsigned>(mix64(h) % cfg.max_distance);
  return static_cast<CoreId>((nominal + d) % cores);
}

/// (first_page, num_pages) runs of one core's pages, in sweep order.
using Runs = std::vector<std::pair<Vpn, std::uint64_t>>;

/// Every core's segments of a region under an exchange partition: element c
/// holds core c's runs, adjacent segments merged. One pass over the
/// segments, so the cost scales with the region, not with cores x region.
inline std::vector<Runs> exchange_partition(std::uint64_t region_pages, CoreId cores,
                                            const ExchangeConfig& cfg) {
  std::vector<Runs> runs(cores);
  const std::uint64_t seg_pages = std::max<std::uint64_t>(cfg.segment_pages, 1);
  const std::uint64_t total_segments = (region_pages + seg_pages - 1) / seg_pages;
  for (std::uint64_t seg = 0; seg < total_segments; ++seg) {
    Runs& own = runs[exchange_owner(seg, total_segments, cores, cfg)];
    const Vpn first = seg * seg_pages;
    const std::uint64_t len = std::min(seg_pages, region_pages - first);
    if (!own.empty() && own.back().first + own.back().second == first)
      own.back().second += len;  // merge adjacent segments
    else
      own.emplace_back(first, len);
  }
  return runs;
}

inline std::uint64_t scaled(std::uint64_t pages, double scale) {
  const auto v = static_cast<std::uint64_t>(static_cast<double>(pages) * scale);
  return std::max<std::uint64_t>(v, 1);
}

}  // namespace cmcp::wl::detail
