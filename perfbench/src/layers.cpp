#include "layers.h"

#include <algorithm>
#include <ostream>

#include "stats.h"

namespace perfbench {

TimerCost calibrate_timer() {
  constexpr int kIters = 200'000;
  std::vector<double> inside;
  std::vector<double> total;
  for (int round = 0; round < 9; ++round) {
    std::uint64_t acc = 0;
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kIters; ++i) {
      const std::uint64_t a = now_ns();
      acc += now_ns() - a;
    }
    const std::uint64_t t1 = now_ns();
    inside.push_back(static_cast<double>(acc) / kIters);
    total.push_back(static_cast<double>(t1 - t0) / kIters);
  }
  return TimerCost{quantile(inside, 0.5), quantile(total, 0.5)};
}

int SpanRecorder::open(std::string name) {
  spans_.push_back(Span{std::move(name), current_, now_ns(), 0, {}});
  current_ = static_cast<int>(spans_.size() - 1);
  return current_;
}

void SpanRecorder::close(int id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now_ns();
  current_ = span.parent;
}

double SpanRecorder::self_ns(int id, const TimerCost& cost) const {
  const Span& span = spans_[static_cast<std::size_t>(id)];
  double covered = 0.0;
  for (const Span& s : spans_)
    if (s.parent == id) covered += static_cast<double>(s.duration_ns());
  for (const CallAgg& c : span.calls)
    covered += static_cast<double>(c.ns) +
               static_cast<double>(c.calls) * (cost.total_ns - cost.inside_ns);
  return static_cast<double>(span.duration_ns()) - covered;
}

void SpanRecorder::write_json(std::ostream& os, const TimerCost& cost) const {
  os << "{\"timer_inside_ns\": " << cost.inside_ns
     << ", \"timer_total_ns\": " << cost.total_ns << ", \"spans\": [\n";
  for (std::size_t i = 1; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "  {\"id\": " << i << ", \"name\": \"" << s.name
       << "\", \"parent\": " << s.parent << ", \"start_ns\": " << s.start_ns
       << ", \"end_ns\": " << s.end_ns
       << ", \"self_ns\": " << self_ns(static_cast<int>(i), cost) << ", \"calls\": {";
    bool first = true;
    for (std::size_t c = 0; c < kNumCalls; ++c) {
      if (s.calls[c].calls == 0) continue;
      const double net = static_cast<double>(s.calls[c].ns) -
                         static_cast<double>(s.calls[c].calls) * cost.inside_ns;
      os << (first ? "" : ", ") << "\"" << kCallNames[c] << "\": {\"count\": "
         << s.calls[c].calls << ", \"ns\": " << std::max(net, 0.0) << "}";
      first = false;
    }
    os << "}}" << (i + 1 < spans_.size() ? "," : "") << "\n";
  }
  os << "]}\n";
}

cmcp::core::PolicyFactory timed_policy_factory(
    const cmcp::policy::PolicyParams& params, SpanRecorder& rec,
    std::uint64_t& victim_extra_cycles) {
  return [params, &rec, &victim_extra_cycles](cmcp::policy::PolicyHost& host)
             -> std::unique_ptr<cmcp::policy::ReplacementPolicy> {
    return std::make_unique<TimedPolicy>(cmcp::policy::make_policy(host, params),
                                         rec, victim_extra_cycles);
  };
}

namespace {

class TimedStream final : public cmcp::wl::AccessStream {
 public:
  TimedStream(std::unique_ptr<cmcp::wl::AccessStream> inner, SpanRecorder* rec,
              StepClock* clock)
      : inner_(std::move(inner)), rec_(rec), clock_(clock) {}

  cmcp::wl::Op next() override {
    if (clock_ != nullptr) clock_->tick();
    if (rec_ == nullptr) return inner_->next();
    ScopedCall t(*rec_, Call::kNext);
    return inner_->next();
  }

 private:
  std::unique_ptr<cmcp::wl::AccessStream> inner_;
  SpanRecorder* rec_;
  StepClock* clock_;
};

}  // namespace

std::unique_ptr<cmcp::wl::AccessStream> TimedWorkload::make_stream(
    cmcp::CoreId core) const {
  return std::make_unique<TimedStream>(inner_->make_stream(core), rec_, clock_);
}

}  // namespace perfbench
