#include "perfbench/trace.h"

#include <signal.h>
#include <sys/time.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <utility>

namespace gmr::perfbench {

namespace {

/// Process CPU time between two samples.
constexpr long kSampleIntervalUs = 3000;

std::atomic<std::int64_t> sample_count{0};
std::atomic<std::int64_t> sample_ns{0};
volatile double sample_sink = 0.0;

std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

/// One host-speed sample: a small bytecode-style interpreter over two
/// stack arrays, with data-dependent dispatch. Async-signal-safe: no
/// allocation, no locks, lock-free atomics only.
void OnProfileSignal(int) {
  const int saved_errno = errno;
  constexpr std::size_t kSlots = 1024;
  constexpr std::uint64_t kPattern = 0x9e3779b97f4a7c15ULL;
  static constexpr unsigned char kCode[] = {0, 1, 2, 0, 3, 1, 2,
                                            3, 0, 2, 1, 3, 0, 1};
  std::array<double, kSlots> xs;
  std::array<double, kSlots> ys{};
  for (std::size_t i = 0; i < kSlots; ++i) xs[i] = 1.0 + 1e-3 * i;
  const std::int64_t start = ThreadCpuNs();
  for (std::size_t i = 0; i < kSlots; ++i) {
    double acc = xs[i];
    for (const unsigned char op : kCode) {
      switch ((op + (kPattern >> (i & 7))) & 3) {
        case 0:
          acc = acc * 1.0001 + 0.5;
          break;
        case 1:
          acc = acc / (1.0 + acc * acc);
          break;
        case 2:
          acc = acc - 0.25 * xs[(i + 7) % kSlots];
          break;
        default:
          acc = acc < 0 ? -acc : acc + 1e-3;
          break;
      }
    }
    ys[i] += acc;
  }
  // Stored before the clock is read, so the loop can neither be dropped nor
  // moved past the reading.
  sample_sink = ys[kSlots / 2];
  sample_ns.fetch_add(ThreadCpuNs() - start, std::memory_order_relaxed);
  sample_count.fetch_add(1, std::memory_order_relaxed);
  errno = saved_errno;
}

void SetProfileTimer(long interval_us) {
  itimerval timer{};
  timer.it_interval.tv_usec = interval_us;
  timer.it_value.tv_usec = interval_us;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

}  // namespace

void StartHostSampling() {
  static_assert(std::atomic<std::int64_t>::is_always_lock_free);
  struct sigaction action {};
  action.sa_handler = OnProfileSignal;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);
  SetProfileTimer(kSampleIntervalUs);
}

void StopHostSampling() { SetProfileTimer(0); }

HostSamples ReadHostSamples() {
  HostSamples samples;
  samples.count = sample_count.load(std::memory_order_relaxed);
  samples.ns = sample_ns.load(std::memory_order_relaxed);
  return samples;
}

double SelfSeconds(const std::vector<Span>& spans, int index) {
  double self = spans[static_cast<std::size_t>(index)].seconds;
  for (const Span& span : spans) {
    if (span.parent == index) self -= span.seconds;
  }
  return self;
}

namespace {

class TimedEvaluation final : public gp::SequentialEvaluation {
 public:
  TimedEvaluation(std::unique_ptr<gp::SequentialEvaluation> inner,
                  const TimedFitness* owner)
      : inner_(std::move(inner)), owner_(owner) {}
  ~TimedEvaluation() override { owner_->AddSteps(steps_, ns_); }

  bool Step() override {
    const std::int64_t start = NowNs();
    const bool more = inner_->Step();
    ns_ += NowNs() - start;
    ++steps_;
    return more;
  }
  double CurrentFitness() const override { return inner_->CurrentFitness(); }
  std::size_t steps_taken() const override { return inner_->steps_taken(); }
  EvalOutcome outcome() const override { return inner_->outcome(); }

 private:
  std::unique_ptr<gp::SequentialEvaluation> inner_;
  const TimedFitness* owner_;
  std::uint64_t steps_ = 0;
  std::int64_t ns_ = 0;
};

}  // namespace

TimedFitness::TimedFitness(const gp::SequentialFitness* inner,
                           bool capture_phenotypes)
    : inner_(inner), capture_(capture_phenotypes) {}

std::unique_ptr<gp::SequentialEvaluation> TimedFitness::Begin(
    const std::vector<expr::ExprPtr>& equations,
    const std::vector<double>& parameters, bool use_compiled_backend) const {
  const std::int64_t start = NowNs();
  std::unique_ptr<gp::SequentialEvaluation> eval =
      inner_->Begin(equations, parameters, use_compiled_backend);
  begin_ns_.fetch_add(NowNs() - start, std::memory_order_relaxed);
  begin_calls_.fetch_add(1, std::memory_order_relaxed);
  if (capture_) {
    std::uint64_t key = 0x9e3779b97f4a7c15ULL;
    for (const auto& eq : equations) {
      key = (key ^ eq->StructuralHash()) * 0x100000001b3ULL;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (phenotypes_.size() < kMaxCapturedPhenotypes) {
      phenotypes_.try_emplace(key, equations);
    }
  }
  return std::make_unique<TimedEvaluation>(std::move(eval), this);
}

std::vector<std::vector<expr::ExprPtr>> TimedFitness::UniquePhenotypes()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::uint64_t, std::vector<expr::ExprPtr>>> sorted(
      phenotypes_.begin(), phenotypes_.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::vector<expr::ExprPtr>> out;
  out.reserve(sorted.size());
  for (auto& [key, equations] : sorted) out.push_back(std::move(equations));
  return out;
}

void StampSink::Emit(obs::TraceEvent event) {
  Stamp stamp;
  stamp.ns = NowNs();
  stamp.type = event.type;
  for (const auto& [key, value] : event.labels) {
    if (key == "action") stamp.action = value;
  }
  for (const auto& [key, value] : event.timings) {
    if (key == "wall_s") stamp.wall_s = value;
  }
  if (forward_ != nullptr) {
    const std::int64_t start = NowNs();
    forward_->Emit(std::move(event));
    forward_ns_ += NowNs() - start;
  }
  stamps_.push_back(std::move(stamp));
  if (on_event_) on_event_(stamps_.back());
}

void StampSink::Flush() {
  if (forward_ == nullptr) return;
  const std::int64_t start = NowNs();
  forward_->Flush();
  forward_ns_ += NowNs() - start;
}

calibrate::Objective ObjectiveProbe::Wrap(calibrate::Objective inner) {
  return [this, inner = std::move(inner)](const std::vector<double>& x) {
    value_calls.fetch_add(1, std::memory_order_relaxed);
    if (!timed) return inner(x);
    const std::int64_t start = NowNs();
    const double value = inner(x);
    value_ns.fetch_add(NowNs() - start, std::memory_order_relaxed);
    return value;
  };
}

calibrate::GradientObjective ObjectiveProbe::Wrap(
    calibrate::GradientObjective inner) {
  return [this, inner = std::move(inner)](const std::vector<double>& x,
                                          std::vector<double>* gradient) {
    gradient_calls.fetch_add(1, std::memory_order_relaxed);
    if (!timed) return inner(x, gradient);
    const std::int64_t start = NowNs();
    const double value = inner(x, gradient);
    gradient_ns.fetch_add(NowNs() - start, std::memory_order_relaxed);
    return value;
  };
}

}  // namespace gmr::perfbench
