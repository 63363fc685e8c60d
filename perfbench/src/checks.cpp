#include "checks.h"

namespace perfbench {

static_assert(sizeof(cmcp::metrics::CoreCounters) ==
                  kNumCounterFields * sizeof(std::uint64_t),
              "counter_fields must list every CoreCounters field");

std::array<std::uint64_t, kNumCounterFields> counter_fields(
    const cmcp::metrics::CoreCounters& c) {
  return {c.accesses,         c.dtlb_misses,
          c.major_faults,     c.minor_faults,
          c.remote_invalidations_received,
          c.ipis_received,    c.shootdowns_initiated,
          c.evictions,        c.writebacks,
          c.prefetches,       c.prefetch_hits,
          c.syscalls,         c.pcie_bytes_in,
          c.pcie_bytes_out,   c.faults_injected,
          c.fault_retries,    c.fault_give_ups,
          c.cycles_compute,   c.cycles_mem,
          c.cycles_fault,     c.cycles_pcie_wait,
          c.cycles_shootdown, c.cycles_interrupt,
          c.cycles_lock_wait, c.cycles_barrier,
          c.cycles_syscall,   c.cycles_recovery,
          c.cycles_straggler};
}

namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(const cmcp::metrics::CoreCounters& c) {
    for (std::uint64_t v : counter_fields(c)) add(v);
  }
};

}  // namespace

std::uint64_t digest(const Outcome& o) {
  Fnv f;
  f.add(o.makespan);
  for (const auto& part : o.parts) f.add(part);
  f.add(o.total);
  f.add(o.scanner);
  f.add(o.scans);
  for (const auto& [key, value] : o.policy_stats) {
    for (char ch : key) f.add(static_cast<std::uint64_t>(ch));
    f.add(value);
  }
  for (std::uint64_t v : o.interference) f.add(v);
  return f.h;
}

std::vector<std::string> check_outcome(const Outcome& o, const Expect& expect) {
  std::vector<std::string> failed;
  if (expect.digest && digest(o) != *expect.digest) failed.push_back("digest");
  if (o.total.accesses != expect.refs) failed.push_back("refs");

  cmcp::metrics::CoreCounters sum;
  for (const auto& part : o.parts) sum += part;
  if (counter_fields(sum) != counter_fields(o.total)) failed.push_back("cross-foot");
  if (!o.interference.empty()) {
    // Each tenant's received invalidations are the column sum of the
    // [cause][receiver] matrix.
    const std::size_t n = o.parts.size();
    for (std::size_t recv = 0; recv < n; ++recv) {
      std::uint64_t col = 0;
      for (std::size_t cause = 0; cause < n; ++cause)
        col += o.interference[cause * n + recv];
      if (col != o.parts[recv].remote_invalidations_received) {
        failed.push_back("interference-cross-foot");
        break;
      }
    }
  }
  if (!expect.evicts && o.total.evictions + o.scanner.evictions != 0)
    failed.push_back("evicted");
  if (o.faults_enabled) failed.push_back("faults-enabled");
  return failed;
}

}  // namespace perfbench
