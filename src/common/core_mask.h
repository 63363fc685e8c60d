// Fixed-capacity bitset of CPU cores. PSPT tracks, per mapping unit, exactly
// which cores hold a private PTE; shootdown targeting and the CMCP core-map
// count both derive from this mask.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "common/assert.h"
#include "common/types.h"

namespace cmcp {

class CoreMask {
 public:
  /// Upper bound on simulated cores. Knights Corner has 61, but the engine
  /// sweeps past the paper's hardware: the 512/1024-core bench rows probe
  /// where CMCP's no-shootdown advantage saturates, so leave room for 1024
  /// app cores plus scanner pseudo-cores. Masks are 17 words; hot loops
  /// over them are word-skipping, and the page tables store only the words
  /// the machine's core count needs (full-width CoreMask values live on
  /// the stack, where the headroom is cache-hot noise).
  static constexpr CoreId kMaxCores = 1088;

  constexpr CoreMask() = default;

  void set(CoreId core) {
    CMCP_CHECK(core < kMaxCores);
    words_[core >> 6] |= std::uint64_t{1} << (core & 63);
  }

  void clear(CoreId core) {
    CMCP_CHECK(core < kMaxCores);
    words_[core >> 6] &= ~(std::uint64_t{1} << (core & 63));
  }

  bool test(CoreId core) const {
    CMCP_CHECK(core < kMaxCores);
    return (words_[core >> 6] >> (core & 63)) & 1;
  }

  void reset() { words_ = {}; }

  bool any() const {
    for (auto w : words_)
      if (w != 0) return true;
    return false;
  }

  bool none() const { return !any(); }

  /// Number of set bits == number of mapping cores.
  unsigned count() const { return count(words_.size()); }

  /// Number of set bits among the first `words` words. Hot callers that know
  /// the machine's live core count (sim::Machine caps at
  /// ceil(total_cores/64)) skip the always-zero tail of the fixed-capacity
  /// array — one word scanned instead of seventeen at the paper's 56 cores.
  unsigned count(std::size_t words) const {
    unsigned c = 0;
    for (std::size_t wi = 0; wi < words; ++wi) c += popcount64(words_[wi]);
    return c;
  }

  /// Invoke fn(CoreId) for every set bit, ascending.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for_each(words_.size(), static_cast<Fn&&>(fn));
  }

  /// for_each over the first `words` words only (see count(words)).
  template <typename Fn>
  void for_each(std::size_t words, Fn&& fn) const {
    for (std::size_t wi = 0; wi < words; ++wi) {
      std::uint64_t w = words_[wi];
      while (w != 0) {
        const unsigned bit = static_cast<unsigned>(std::countr_zero(w));
        fn(static_cast<CoreId>(wi * 64 + bit));
        w &= w - 1;
      }
    }
  }

  /// Number of 64-bit words backing a full mask.
  static constexpr std::size_t kWords = kMaxCores / 64;

  /// Raw word access, for dense per-unit mask storage (mm::Pspt keeps only
  /// ceil(num_cores/64) words per unit and widens to a CoreMask at the
  /// API boundary).
  std::uint64_t word(std::size_t i) const { return words_[i]; }
  void set_word(std::size_t i, std::uint64_t w) { words_[i] = w; }

  /// All cores in [0, n).
  static CoreMask first_n(CoreId n) {
    CMCP_CHECK(n <= kMaxCores);
    CoreMask m;
    for (CoreId i = 0; i < n; ++i) m.set(i);
    return m;
  }

  friend bool operator==(const CoreMask&, const CoreMask&) = default;

  /// *this |= o over the first `words` words only (see count(words)).
  void unite(const CoreMask& o, std::size_t words) {
    for (std::size_t i = 0; i < words; ++i) words_[i] |= o.words_[i];
  }

  CoreMask operator&(const CoreMask& o) const {
    CoreMask r;
    for (std::size_t i = 0; i < words_.size(); ++i) r.words_[i] = words_[i] & o.words_[i];
    return r;
  }

 private:
  /// Branch-free SWAR population count. Builds for baseline x86-64 have no
  /// POPCNT instruction, and there std::popcount is a libgcc call per word.
  static constexpr unsigned popcount64(std::uint64_t x) {
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return static_cast<unsigned>((x * 0x0101010101010101ULL) >> 56);
  }

  std::array<std::uint64_t, kMaxCores / 64> words_{};
};

}  // namespace cmcp
