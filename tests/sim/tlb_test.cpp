#include "sim/tlb.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace cmcp::sim {
namespace {

TEST(Tlb, MissThenHit) {
  Tlb tlb(4);
  EXPECT_FALSE(tlb.lookup(10));
  tlb.insert(10);
  EXPECT_TRUE(tlb.lookup(10));
}

TEST(Tlb, EvictsLruWhenFull) {
  Tlb tlb(2);
  tlb.insert(1);
  tlb.insert(2);
  tlb.insert(3);  // evicts 1
  EXPECT_FALSE(tlb.lookup(1));
  EXPECT_TRUE(tlb.lookup(2));
  EXPECT_TRUE(tlb.lookup(3));
}

TEST(Tlb, LookupRefreshesRecency) {
  Tlb tlb(2);
  tlb.insert(1);
  tlb.insert(2);
  EXPECT_TRUE(tlb.lookup(1));  // 2 is now LRU
  tlb.insert(3);               // evicts 2
  EXPECT_TRUE(tlb.lookup(1));
  EXPECT_FALSE(tlb.lookup(2));
  EXPECT_TRUE(tlb.lookup(3));
}

TEST(Tlb, ReinsertRefreshesWithoutDuplicating) {
  Tlb tlb(2);
  tlb.insert(1);
  tlb.insert(2);
  tlb.insert(1);  // already present: refresh, no eviction
  EXPECT_EQ(tlb.occupancy(), 2u);
  tlb.insert(3);  // evicts 2 (LRU), not 1
  EXPECT_TRUE(tlb.lookup(1));
  EXPECT_FALSE(tlb.lookup(2));
}

TEST(Tlb, InvalidateRemovesEntry) {
  Tlb tlb(4);
  tlb.insert(5);
  EXPECT_TRUE(tlb.invalidate(5));
  EXPECT_FALSE(tlb.lookup(5));
  EXPECT_FALSE(tlb.invalidate(5));  // already gone
  EXPECT_EQ(tlb.occupancy(), 0u);
}

TEST(Tlb, InvalidateFreesSlotForReuse) {
  Tlb tlb(2);
  tlb.insert(1);
  tlb.insert(2);
  tlb.invalidate(1);
  tlb.insert(3);  // uses the freed slot: 2 must survive
  EXPECT_TRUE(tlb.lookup(2));
  EXPECT_TRUE(tlb.lookup(3));
}

TEST(Tlb, FlushDropsEverything) {
  Tlb tlb(8);
  for (UnitIdx u = 0; u < 8; ++u) tlb.insert(u);
  tlb.flush();
  EXPECT_EQ(tlb.occupancy(), 0u);
  for (UnitIdx u = 0; u < 8; ++u) EXPECT_FALSE(tlb.lookup(u));
  // Still fully usable after flush.
  tlb.insert(42);
  EXPECT_TRUE(tlb.lookup(42));
}

TEST(Tlb, CapacityOneDegenerate) {
  Tlb tlb(1);
  tlb.insert(1);
  EXPECT_TRUE(tlb.lookup(1));
  tlb.insert(2);
  EXPECT_FALSE(tlb.lookup(1));
  EXPECT_TRUE(tlb.lookup(2));
}

// Reference model: units in MRU -> LRU order, at most `capacity` of them.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  bool lookup(UnitIdx unit) {
    const auto it = std::find(order_.begin(), order_.end(), unit);
    if (it == order_.end()) return false;
    order_.erase(it);
    order_.insert(order_.begin(), unit);
    return true;
  }
  void insert(UnitIdx unit) {
    if (lookup(unit)) return;
    if (order_.size() == capacity_) order_.pop_back();
    order_.insert(order_.begin(), unit);
  }
  bool invalidate(UnitIdx unit) {
    const auto it = std::find(order_.begin(), order_.end(), unit);
    if (it == order_.end()) return false;
    order_.erase(it);
    return true;
  }
  const std::vector<UnitIdx>& order() const { return order_; }

 private:
  std::size_t capacity_;
  std::vector<UnitIdx> order_;
};

// Random insert/lookup/invalidate over `units` units (more than the capacity,
// so the TLB both fills and evicts): every result, the occupancy and the full
// MRU -> LRU order must match the reference model after each operation.
// Returns the highest occupancy reached.
std::size_t stress_against_reference(std::uint32_t capacity, std::uint64_t units,
                                     int ops) {
  Tlb tlb(capacity);
  ReferenceLru model(capacity);
  std::uint64_t state = 12345;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  std::size_t peak = 0;
  for (int i = 0; i < ops; ++i) {
    const UnitIdx unit = static_cast<UnitIdx>(next() % units);
    switch (next() % 3) {
      case 0:
        tlb.insert(unit);
        model.insert(unit);
        break;
      case 1:
        EXPECT_EQ(tlb.lookup(unit), model.lookup(unit)) << "op " << i;
        break;
      case 2:
        EXPECT_EQ(tlb.invalidate(unit), model.invalidate(unit)) << "op " << i;
        break;
    }
    EXPECT_EQ(tlb.occupancy(), model.order().size()) << "op " << i;
    std::vector<UnitIdx> order;
    tlb.for_each_entry([&order](UnitIdx u) { order.push_back(u); });
    if (order != model.order()) {
      ADD_FAILURE() << "MRU order diverged at op " << i;
      break;
    }
    peak = std::max(peak, tlb.occupancy());
  }
  return peak;
}

TEST(TlbProperty, StressAgainstReferenceModel) {
  EXPECT_EQ(stress_against_reference(8, 32, 20000), 8u);
}

// The largest capacity a one-byte slot index allows: slots 0..253 all get
// used, and none of them may collide with the 0xff "not cached" mark.
TEST(TlbProperty, StressAgainstReferenceModelAtByteIndexLimit) {
  EXPECT_EQ(stress_against_reference(254, 1024, 60000), 254u);
}

TEST(TlbDeath, CapacityBeyondByteIndexIsRefused) {
  EXPECT_DEATH(Tlb(255), "TLB capacity must be below 255");
  EXPECT_DEATH(Tlb(256), "TLB capacity must be below 255");
  EXPECT_DEATH(Tlb(100000), "TLB capacity must be below 255");
}

// gtest names each case after the bytes of its parameter, so the padding
// between the two fields is spelled out as zeros; left implicit, it carried
// whatever the stack held and the case names changed from run to run.
struct TlbConfigCase {
  PageSizeClass size;
  std::array<std::uint8_t, 3> padding{};
  std::uint32_t expected;
};
static_assert(std::has_unique_object_representations_v<TlbConfigCase>);

class TlbConfigTest : public ::testing::TestWithParam<TlbConfigCase> {};

TEST_P(TlbConfigTest, EntriesPerSizeClass) {
  const TlbConfig config;
  EXPECT_EQ(config.entries_for(GetParam().size), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllSizes, TlbConfigTest,
    ::testing::Values(TlbConfigCase{.size = PageSizeClass::k4K, .expected = 64},
                      TlbConfigCase{.size = PageSizeClass::k64K, .expected = 32},
                      TlbConfigCase{.size = PageSizeClass::k2M, .expected = 8}));

}  // namespace
}  // namespace cmcp::sim
