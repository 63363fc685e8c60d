#include "common/core_mask.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace cmcp {
namespace {

TEST(CoreMask, StartsEmpty) {
  CoreMask m;
  EXPECT_TRUE(m.none());
  EXPECT_FALSE(m.any());
  EXPECT_EQ(m.count(), 0u);
}

TEST(CoreMask, SetTestClear) {
  CoreMask m;
  m.set(0);
  m.set(63);
  m.set(64);  // crosses the word boundary
  m.set(255);
  EXPECT_TRUE(m.test(0));
  EXPECT_TRUE(m.test(63));
  EXPECT_TRUE(m.test(64));
  EXPECT_TRUE(m.test(255));
  EXPECT_FALSE(m.test(1));
  EXPECT_EQ(m.count(), 4u);
  m.clear(63);
  EXPECT_FALSE(m.test(63));
  EXPECT_EQ(m.count(), 3u);
}

TEST(CoreMask, SetIsIdempotent) {
  CoreMask m;
  m.set(5);
  m.set(5);
  EXPECT_EQ(m.count(), 1u);
}

TEST(CoreMask, ForEachAscending) {
  CoreMask m;
  m.set(200);
  m.set(3);
  m.set(64);
  std::vector<CoreId> seen;
  m.for_each([&](CoreId c) { seen.push_back(c); });
  EXPECT_EQ(seen, (std::vector<CoreId>{3, 64, 200}));
}

TEST(CoreMask, FirstN) {
  const CoreMask m = CoreMask::first_n(56);
  EXPECT_EQ(m.count(), 56u);
  EXPECT_TRUE(m.test(0));
  EXPECT_TRUE(m.test(55));
  EXPECT_FALSE(m.test(56));
}

TEST(CoreMask, FirstNZero) {
  EXPECT_TRUE(CoreMask::first_n(0).none());
}

TEST(CoreMask, Equality) {
  CoreMask a, b;
  a.set(7);
  b.set(7);
  EXPECT_EQ(a, b);
  b.set(8);
  EXPECT_NE(a, b);
}

TEST(CoreMask, UnionAndIntersection) {
  CoreMask a, b;
  a.set(1);
  a.set(2);
  b.set(2);
  b.set(3);
  CoreMask u = a;
  u.unite(b, CoreMask::kWords);
  EXPECT_EQ(u.count(), 3u);
  EXPECT_TRUE(u.test(1) && u.test(2) && u.test(3));
  const CoreMask i = a & b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(2));
  // unite() at a live word count: the same union within those words, and
  // nothing past them.
  CoreMask w = a;
  w.unite(b, 1);
  EXPECT_EQ(w, u);
  b.set(100);
  w.unite(b, 1);
  EXPECT_FALSE(w.test(100));
  w.unite(b, 2);
  EXPECT_TRUE(w.test(100));
  EXPECT_EQ(w.count(2), 4u);
}

TEST(CoreMask, ResetClearsEverything) {
  CoreMask m = CoreMask::first_n(100);
  m.reset();
  EXPECT_TRUE(m.none());
}

TEST(CoreMask, EmptyMaskIteratesNothing) {
  CoreMask m;
  unsigned calls = 0;
  m.for_each([&](CoreId) { ++calls; });
  EXPECT_EQ(calls, 0u);
  // A set-then-cleared mask is indistinguishable from a fresh one.
  m.set(17);
  m.clear(17);
  EXPECT_TRUE(m.none());
  m.for_each([&](CoreId) { ++calls; });
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(m, CoreMask{});
}

TEST(CoreMask, Full64CoreMask) {
  // A full first word (the common 56-64 core Phi configs) must not bleed
  // into the second word or lose its boundary bits.
  const CoreMask m = CoreMask::first_n(64);
  EXPECT_EQ(m.count(), 64u);
  EXPECT_TRUE(m.test(0));
  EXPECT_TRUE(m.test(63));
  EXPECT_FALSE(m.test(64));
  std::vector<CoreId> seen;
  m.for_each([&](CoreId c) { seen.push_back(c); });
  ASSERT_EQ(seen.size(), 64u);
  EXPECT_EQ(seen.front(), 0u);
  EXPECT_EQ(seen.back(), 63u);
}

TEST(CoreMask, FullCapacityMask) {
  const CoreMask m = CoreMask::first_n(CoreMask::kMaxCores);
  EXPECT_EQ(m.count(), CoreMask::kMaxCores);
  EXPECT_TRUE(m.test(CoreMask::kMaxCores - 1));
  unsigned calls = 0;
  CoreId prev = 0;
  bool first = true;
  m.for_each([&](CoreId c) {
    if (!first) {
      EXPECT_EQ(c, prev + 1);
    }
    prev = c;
    first = false;
    ++calls;
  });
  EXPECT_EQ(calls, CoreMask::kMaxCores);
}

TEST(CoreMask, ForEachAscendingAcrossAllWordBoundaries) {
  // One bit in each 64-bit word, plus both edges of a boundary.
  CoreMask m;
  const std::vector<CoreId> cores = {0, 63, 64, 127, 128, 191, 192, 255};
  for (const CoreId c : cores) m.set(c);
  std::vector<CoreId> seen;
  m.for_each([&](CoreId c) { seen.push_back(c); });
  EXPECT_EQ(seen, cores);  // strictly ascending, exactly the set bits
}

TEST(CoreMask, ClearOnEmptyMaskIsHarmless) {
  CoreMask m;
  m.clear(42);
  EXPECT_TRUE(m.none());
  EXPECT_EQ(m.count(), 0u);
}

// count() against a bit-by-bit count of the same words: empty, full, every
// single bit, and random words, one word alone and across all words.
TEST(CoreMask, CountMatchesPerBitCount) {
  const auto per_bit = [](std::uint64_t w) {
    unsigned n = 0;
    for (unsigned b = 0; b < 64; ++b) n += static_cast<unsigned>((w >> b) & 1);
    return n;
  };
  std::vector<std::uint64_t> words = {0, ~std::uint64_t{0}};
  for (unsigned b = 0; b < 64; ++b) words.push_back(std::uint64_t{1} << b);
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 1000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    words.push_back(state ^ (state >> 29));
  }
  for (const std::uint64_t w : words) {
    CoreMask m;
    m.set_word(0, w);
    EXPECT_EQ(m.count(1), per_bit(w)) << std::hex << w;
    EXPECT_EQ(m.count(), per_bit(w)) << std::hex << w;
  }
  CoreMask all;
  unsigned expected = 0;
  for (std::size_t i = 0; i < CoreMask::kWords; ++i) {
    all.set_word(i, words[words.size() - 1 - i]);
    expected += per_bit(all.word(i));
  }
  EXPECT_EQ(all.count(), expected);
}

TEST(CoreMaskDeath, OutOfRangeAborts) {
  CoreMask m;
  EXPECT_DEATH(m.set(CoreMask::kMaxCores), "core < kMaxCores");
}

}  // namespace
}  // namespace cmcp
