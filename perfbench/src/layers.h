// Observers: an in-memory span recorder and a step clock, fed by forwarding
// decorators around the library's public seams (wl::Workload /
// wl::AccessStream and policy::ReplacementPolicy). The decorators only
// time and count; every call is forwarded unchanged, so a decorated run
// performs bit-identical simulated work.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/memory_manager.h"
#include "policy/policy_factory.h"
#include "policy/replacement_policy.h"
#include "workloads/access_stream.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// High-frequency calls that are aggregated per parent span instead of
/// being recorded one span each (there are millions per rep).
enum class Call : std::uint8_t {
  kNext,
  kOnInsert,
  kOnCoreMapGrow,
  kPickVictim,
  kOnEvict,
  kOnScan,
  kOnTick,
};
inline constexpr std::size_t kNumCalls = 7;
inline constexpr std::array<std::string_view, kNumCalls> kCallNames = {
    "next", "on_insert", "on_core_map_grow", "pick_victim",
    "on_evict", "on_scan", "on_tick"};

struct CallAgg {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;  ///< raw: includes the timer's own bias
};

struct Span {
  std::string name;
  int parent = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::array<CallAgg, kNumCalls> calls{};

  std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// Cost of timing one empty call with now_ns(): `inside` is the bias one
/// measured interval carries, `total` the whole cost a timed call adds.
struct TimerCost {
  double inside_ns = 0.0;
  double total_ns = 0.0;
};
TimerCost calibrate_timer();

/// Spans kept in memory (rep -> setup.generate / setup.construct / run);
/// aggregated calls land on whichever span is open when they happen.
class SpanRecorder {
 public:
  int open(std::string name);
  void close(int id);

  void add(Call call, std::uint64_t ns) {
    CallAgg& agg = spans_[static_cast<std::size_t>(current_)].calls[static_cast<std::size_t>(call)];
    ++agg.calls;
    agg.ns += ns;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// A span's duration minus the part its child spans and aggregated
  /// calls cover, with the timer's cost taken out of the calls.
  double self_ns(int id, const TimerCost& cost) const;

  /// JSON dump of every span (written when the run ends).
  void write_json(std::ostream& os, const TimerCost& cost) const;

 private:
  /// Index 0 is a root span that catches calls made outside any span.
  std::vector<Span> spans_{Span{"root", -1, 0, 0, {}}};
  int current_ = 0;
};

/// Times one call into the recorder's open span.
class ScopedCall {
 public:
  ScopedCall(SpanRecorder& rec, Call call) : rec_(rec), call_(call), t0_(now_ns()) {}
  ~ScopedCall() { rec_.add(call_, now_ns() - t0_); }
  ScopedCall(const ScopedCall&) = delete;
  ScopedCall& operator=(const ScopedCall&) = delete;

 private:
  SpanRecorder& rec_;
  Call call_;
  std::uint64_t t0_;
};

/// Forwarding ReplacementPolicy that times every hook. Installed through
/// SimulationConfig::custom_policy / TenantRunConfig::custom_policy.
class TimedPolicy final : public cmcp::policy::ReplacementPolicy {
 public:
  TimedPolicy(std::unique_ptr<cmcp::policy::ReplacementPolicy> inner,
              SpanRecorder& rec, std::uint64_t& victim_extra_cycles)
      : inner_(std::move(inner)), rec_(rec), extra_(victim_extra_cycles) {}

  std::string_view name() const override { return inner_->name(); }
  void on_insert(cmcp::mm::ResidentPage& page) override {
    ScopedCall t(rec_, Call::kOnInsert);
    inner_->on_insert(page);
  }
  void on_core_map_grow(cmcp::mm::ResidentPage& page) override {
    ScopedCall t(rec_, Call::kOnCoreMapGrow);
    inner_->on_core_map_grow(page);
  }
  cmcp::mm::ResidentPage* pick_victim(cmcp::CoreId core,
                                      cmcp::Cycles& extra_cycles) override {
    cmcp::mm::ResidentPage* victim;
    {
      ScopedCall t(rec_, Call::kPickVictim);
      victim = inner_->pick_victim(core, extra_cycles);
    }
    extra_ += extra_cycles;
    return victim;
  }
  void on_evict(cmcp::mm::ResidentPage& page) override {
    ScopedCall t(rec_, Call::kOnEvict);
    inner_->on_evict(page);
  }
  void on_scan(cmcp::mm::ResidentPage& page, bool referenced) override {
    ScopedCall t(rec_, Call::kOnScan);
    inner_->on_scan(page, referenced);
  }
  bool wants_scanner() const override { return inner_->wants_scanner(); }
  void on_tick(cmcp::Cycles now) override {
    ScopedCall t(rec_, Call::kOnTick);
    inner_->on_tick(now);
  }
  bool parallel_local_safe() const override { return inner_->parallel_local_safe(); }
  void stats(const cmcp::policy::StatVisitor& visit) const override {
    inner_->stats(visit);
  }
  std::int64_t tracked_pages() const override { return inner_->tracked_pages(); }

 private:
  std::unique_ptr<cmcp::policy::ReplacementPolicy> inner_;
  SpanRecorder& rec_;
  std::uint64_t& extra_;
};

/// Factory installing TimedPolicy around the built-in policy `params`.
cmcp::core::PolicyFactory timed_policy_factory(
    const cmcp::policy::PolicyParams& params, SpanRecorder& rec,
    std::uint64_t& victim_extra_cycles);

/// Timestamps every `every`-th AccessStream::next() call, counted over all
/// of a rep's streams. The engine is deterministic, so mark k falls at the
/// same point of the simulation in every rep: the stretches between
/// consecutive marks are identical simulated work, comparable rep by rep.
class StepClock {
 public:
  explicit StepClock(std::uint32_t every) : every_(every), left_(every) {}

  void tick() {
    if (--left_ != 0) return;
    left_ = every_;
    mark();
  }
  void mark() { marks_.push_back(now_ns()); }
  const std::vector<std::uint64_t>& marks() const { return marks_; }

 private:
  std::uint32_t every_;
  std::uint32_t left_;
  std::vector<std::uint64_t> marks_;
};

/// Forwarding Workload whose streams tick `clock` and/or time every next()
/// call into `rec` (either may be null).
class TimedWorkload final : public cmcp::wl::Workload {
 public:
  TimedWorkload(std::unique_ptr<cmcp::wl::Workload> inner, SpanRecorder* rec,
                StepClock* clock)
      : inner_(std::move(inner)), rec_(rec), clock_(clock) {}

  std::string_view name() const override { return inner_->name(); }
  cmcp::CoreId num_cores() const override { return inner_->num_cores(); }
  std::uint64_t footprint_base_pages() const override {
    return inner_->footprint_base_pages();
  }
  std::unique_ptr<cmcp::wl::AccessStream> make_stream(cmcp::CoreId core) const override;

 private:
  std::unique_ptr<cmcp::wl::Workload> inner_;
  SpanRecorder* rec_;
  StepClock* clock_;
};

}  // namespace perfbench
