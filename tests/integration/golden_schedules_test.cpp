// Pins the generated op streams of the four paper workloads against
// *committed* fingerprints. The simulator goldens (golden_results.txt and
// friends) run cg only and at 8 cores, so a generator change in bt or lu,
// or one that shows only at many cores (an exchange partition with fewer
// segments than cores), would otherwise pass unnoticed.
//
// Each (workload, cores) point is one line: the number of ops over all cores
// and an FNV-1a digest over (kind, vpn, count, stride, repeat, write,
// cycles) of every op of every core's stream, cores in order.
//
// When a generator change is *intended*, regenerate and review the diff:
//
//   CMCP_UPDATE_GOLDEN=1 ./build/tests/cmcp_tests --gtest_filter='GoldenSchedules*'
//   (then review with: git diff tests/data)
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>

#include "workloads/workload_factory.h"

#ifndef CMCP_TEST_DATA_DIR
#define CMCP_TEST_DATA_DIR "tests/data"
#endif

namespace cmcp::wl {
namespace {

std::string golden_path() {
  return std::string(CMCP_TEST_DATA_DIR) + "/golden_schedules.txt";
}

class Fnv1a {
 public:
  template <typename T>
  void add(T value) {
    auto v = static_cast<std::uint64_t>(value);
    for (std::size_t i = 0; i < sizeof(T); ++i, v >>= 8) {
      hash_ ^= v & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void fingerprint(PaperWorkload which, CoreId cores, std::ostream& os) {
  WorkloadParams params;
  params.cores = cores;
  params.seed = 20260806;
  const auto w = make_paper_workload(which, params);
  Fnv1a h;
  std::uint64_t ops = 0;
  for (CoreId c = 0; c < cores; ++c) {
    const auto stream = w->make_stream(c);
    for (Op op = stream->next(); op.kind != OpKind::kEnd; op = stream->next()) {
      h.add(static_cast<std::uint8_t>(op.kind));
      h.add(op.vpn);
      h.add(op.count);
      h.add(op.stride);
      h.add(op.repeat);
      h.add(static_cast<std::uint8_t>(op.write));
      h.add(op.cycles);
      ++ops;
    }
  }
  os << to_string(which) << '.' << cores << "c ops " << ops << " fnv 0x"
     << std::hex << std::setw(16) << std::setfill('0') << h.value() << std::dec
     << '\n';
}

TEST(GoldenSchedules, OpStreamsMatchCommittedGolden) {
  std::ostringstream actual;
  for (const PaperWorkload which : {PaperWorkload::kCg, PaperWorkload::kLu,
                                    PaperWorkload::kBt, PaperWorkload::kScale})
    for (const CoreId cores : {8u, 56u, 1024u}) fingerprint(which, cores, actual);

  if (std::getenv("CMCP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path());
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << actual.str();
    GTEST_SKIP() << "golden file regenerated at " << golden_path();
  }

  std::ifstream in(golden_path());
  ASSERT_TRUE(in.good())
      << "missing " << golden_path()
      << " — regenerate with CMCP_UPDATE_GOLDEN=1 and commit it";
  std::stringstream expected;
  expected << in.rdbuf();
  // One line per point, so the first mismatch names its workload and cores.
  EXPECT_EQ(actual.str(), expected.str());
}

}  // namespace
}  // namespace cmcp::wl
