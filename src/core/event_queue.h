// The engine's event queue: a winner (tournament) tree over one packed key
// per simulated core.
//
// A key packs (virtual time, core id) into one u64 so a single integer
// compare is the engine's event order, ties broken by core id. The tree has
// one leaf per core, padded to a power of two; every internal node holds the
// minimum key of its subtree, so the root is the next event. set() rewrites
// one leaf and recomputes its root path with branch-free min — a fixed
// log2(leaves) levels, no data-dependent compares to mispredict. A core
// that leaves the run (barrier, end) holds kMaxKey.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/core_mask.h"
#include "common/types.h"

namespace cmcp::core {

class EventQueue {
 public:
  /// 11 low bits cover CoreMask::kMaxCores simulated cores.
  static constexpr unsigned kCoreBits = 11;
  static constexpr std::uint64_t kCoreIdMask =
      (std::uint64_t{1} << kCoreBits) - 1;
  /// Largest virtual time a key can hold: 64 - kCoreBits bits.
  static constexpr Cycles kMaxTime =
      (Cycles{1} << (64 - kCoreBits)) - 1;
  /// Key of a core that is not runnable; above every packed key.
  static constexpr std::uint64_t kMaxKey = ~std::uint64_t{0};

  static_assert(CoreMask::kMaxCores <= kCoreIdMask);

  static std::uint64_t pack(Cycles time, CoreId core) {
    // A clock past kMaxTime would wrap the key and reorder the run (the
    // engine's stale-key repair would spin forever on it): stop instead.
    CMCP_CHECK_MSG(time <= kMaxTime,
                   "virtual time overflows the event key (2^53 cycles)");
    return (time << kCoreBits) | core;
  }
  static CoreId core_of(std::uint64_t key) {
    return static_cast<CoreId>(key & kCoreIdMask);
  }
  static Cycles time_of(std::uint64_t key) { return key >> kCoreBits; }

  /// Every core starts at kMaxKey (not runnable).
  explicit EventQueue(CoreId num_cores)
      : leaves_(std::bit_ceil(std::size_t{num_cores})),
        tree_(2 * leaves_, kMaxKey) {
    CMCP_CHECK(num_cores > 0 && num_cores <= CoreMask::kMaxCores);
  }

  /// The smallest key: the next event (kMaxKey when no core is runnable).
  std::uint64_t root() const { return tree_[1]; }
  bool empty() const { return root() == kMaxKey; }

  void set(CoreId core, std::uint64_t key) {
    std::size_t i = leaves_ + core;
    tree_[i] = key;
    for (; i > 1; i >>= 1) tree_[i >> 1] = std::min(tree_[i], tree_[i ^ 1]);
  }

  /// Smallest key other than the root's (kMaxKey when the root is alone):
  /// the run-batching horizon. The siblings along the root leaf's path
  /// cover every other leaf, so their minimum is the exact second minimum.
  /// Requires !empty().
  std::uint64_t horizon() const {
    std::uint64_t m = kMaxKey;
    for (std::size_t i = leaves_ + core_of(root()); i > 1; i >>= 1)
      m = std::min(m, tree_[i ^ 1]);
    return m;
  }

 private:
  std::size_t leaves_;  ///< leaf count, a power of two
  /// 1-based implicit tree: tree_[1] is the root, node i's children are
  /// 2i and 2i+1, leaves live at [leaves_, 2 * leaves_).
  std::vector<std::uint64_t> tree_;
};

}  // namespace cmcp::core
