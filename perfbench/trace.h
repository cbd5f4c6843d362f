// Out-of-program instrumentation for the traced benchmark run. Every probe
// here wraps a public interface of the library (a gp::SequentialFitness, an
// obs::TelemetrySink, a calibration objective) and records time and counts
// at that layer boundary; nothing inside src/ is modified. Spans and stamps
// stay in memory and are reduced to per-layer numbers when the run ends.

#ifndef GMR_PERFBENCH_TRACE_H_
#define GMR_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "calibrate/calibrator.h"
#include "gp/fitness.h"
#include "obs/telemetry.h"

namespace gmr::perfbench {

/// Monotonic nanoseconds (steady clock).
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process, every thread, in nanoseconds. Unlike wall
/// time it leaves out time the process waited for a processor, including
/// time the virtual machine's host ran other guests (steal).
inline std::int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

/// Host-speed samples taken so far: how many, and their summed CPU time.
struct HostSamples {
  std::int64_t count = 0;
  std::int64_t ns = 0;
};

/// Starts host-speed sampling for the rest of the process: every 3 ms of
/// process CPU time (ITIMER_PROF), a SIGPROF handler
/// runs a fixed, allocation-free, branch-heavy interpreter kernel of about
/// 30 us on whichever thread is running, lane threads included, and adds
/// its CPU time to process-wide totals. The kernel runs only benchmark code,
/// so a change to the library never moves it; it moves with the speed the
/// shared host gives the thread it interrupts (see README.md, "Host speed").
/// The handler is installed with SA_RESTART and saves errno.
void StartHostSampling();

/// Stops the timer; the handler stays installed for signals in flight.
void StopHostSampling();

/// The totals so far (zero before StartHostSampling).
HostSamples ReadHostSamples();

/// Mean sample time at reference host speed: on the machine the benchmark
/// was built on, samples read about this when the host was slow.
inline constexpr double kSampleReferenceNs = 30000.0;

/// Wall time, process CPU time and host samples since construction.
struct Stopwatch {
  HostSamples samples = ReadHostSamples();
  std::int64_t wall_ns = NowNs();
  std::int64_t cpu_ns = CpuNs();
  double WallSeconds() const {
    return 1e-9 * static_cast<double>(NowNs() - wall_ns);
  }
  double CpuSeconds() const {
    return 1e-9 * static_cast<double>(CpuNs() - cpu_ns);
  }
  /// Process CPU time less the samples' own, restated at reference host
  /// speed: scaled by kSampleReferenceNs over the mean time of the samples
  /// taken since construction, which ran interleaved with the measured work
  /// on the same threads. Unscaled if no sample was taken.
  double RestatedSeconds() const {
    const double cpu = CpuSeconds();
    const HostSamples now = ReadHostSamples();
    const double count = static_cast<double>(now.count - samples.count);
    const double ns = static_cast<double>(now.ns - samples.ns);
    if (count == 0.0) return cpu;
    return (cpu - 1e-9 * ns) * kSampleReferenceNs / (ns / count);
  }
};

/// One timed interval. `parent` indexes the enclosing span (-1 = root).
struct Span {
  std::string name;
  int parent = -1;
  double seconds = 0.0;
};

/// Span duration minus the time its direct children cover.
double SelfSeconds(const std::vector<Span>& spans, int index);

/// Lane-safe timing decorator around a SequentialFitness. Begin (which
/// hosts the per-candidate compile under the RC backends) and every Step
/// are timed; per-evaluation sums fold into shared atomics when the
/// evaluation ends, so worker lanes never contend per step. Begin, Step,
/// PrepareBatch and num_states forward unchanged, so the search sees the
/// same fitness values as without the decorator.
class TimedFitness final : public gp::SequentialFitness {
 public:
  /// With `capture_phenotypes`, the first kMaxCapturedPhenotypes
  /// structurally distinct phenotypes that reach Begin are kept (for the
  /// static-gate replay). The cap keeps the probe cheap: holding every
  /// phenotype of a run alive slows the search itself by about a third.
  static constexpr std::size_t kMaxCapturedPhenotypes = 2000;
  TimedFitness(const gp::SequentialFitness* inner, bool capture_phenotypes);

  std::size_t num_cases() const override { return inner_->num_cases(); }
  std::size_t num_parameters() const override {
    return inner_->num_parameters();
  }
  std::size_t num_states() const override { return inner_->num_states(); }
  std::unique_ptr<gp::SequentialEvaluation> Begin(
      const std::vector<expr::ExprPtr>& equations,
      const std::vector<double>& parameters,
      bool use_compiled_backend) const override;
  bool WantsBatchPreparation() const override {
    return inner_->WantsBatchPreparation();
  }
  void PrepareBatch(const std::vector<std::vector<expr::ExprPtr>>& phenotypes)
      const override {
    inner_->PrepareBatch(phenotypes);
  }

  std::uint64_t begin_calls() const { return begin_calls_.load(); }
  std::uint64_t steps() const { return steps_.load(); }
  double begin_seconds() const { return 1e-9 * begin_ns_.load(); }
  double step_seconds() const { return 1e-9 * step_ns_.load(); }
  /// Captured distinct phenotypes, in hash order (empty unless capturing).
  std::vector<std::vector<expr::ExprPtr>> UniquePhenotypes() const;

  /// Called by a finished evaluation to fold in its step totals.
  void AddSteps(std::uint64_t steps, std::int64_t ns) const {
    steps_.fetch_add(steps, std::memory_order_relaxed);
    step_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

 private:
  const gp::SequentialFitness* inner_;
  const bool capture_;
  mutable std::atomic<std::uint64_t> begin_calls_{0};
  mutable std::atomic<std::uint64_t> steps_{0};
  mutable std::atomic<std::int64_t> begin_ns_{0};
  mutable std::atomic<std::int64_t> step_ns_{0};
  mutable std::mutex mu_;
  mutable std::unordered_map<std::uint64_t, std::vector<expr::ExprPtr>>
      phenotypes_;
};

/// In-memory telemetry sink that timestamps every event on arrival and
/// optionally forwards it to another sink (the durable run's JSONL trace).
/// Time spent inside the forward sink's Emit and Flush is the obs layer's
/// cost. Coordinator-only, like every TelemetrySink.
class StampSink final : public obs::TelemetrySink {
 public:
  struct Stamp {
    std::string type;
    std::string action;  ///< "action" label of ckpt events.
    std::int64_t ns = 0;
    double wall_s = 0.0;  ///< "wall_s" timing of eval_batch events.
  };

  explicit StampSink(obs::TelemetrySink* forward = nullptr)
      : forward_(forward) {}

  bool enabled() const override { return true; }
  void Emit(obs::TraceEvent event) override;
  void Flush() override;

  const std::vector<Stamp>& stamps() const { return stamps_; }
  double forward_seconds() const { return 1e-9 * forward_ns_; }

  /// Optional per-event hook run after the stamp is recorded (used to
  /// measure snapshot sizes when a ckpt save lands).
  void set_on_event(std::function<void(const Stamp&)> hook) {
    on_event_ = std::move(hook);
  }

 private:
  obs::TelemetrySink* forward_;
  std::vector<Stamp> stamps_;
  std::int64_t forward_ns_ = 0;
  std::function<void(const Stamp&)> on_event_;
};

/// Timing wrappers around the calibration objectives. The wrappers share
/// the counters below; calls may come from any thread.
struct ObjectiveProbe {
  std::atomic<std::uint64_t> value_calls{0};
  std::atomic<std::uint64_t> gradient_calls{0};
  std::atomic<std::int64_t> value_ns{0};
  std::atomic<std::int64_t> gradient_ns{0};
  /// Clock reads are skipped when false (the untraced run only counts).
  bool timed = false;

  calibrate::Objective Wrap(calibrate::Objective inner);
  calibrate::GradientObjective Wrap(calibrate::GradientObjective inner);
};

}  // namespace gmr::perfbench

#endif  // GMR_PERFBENCH_TRACE_H_
