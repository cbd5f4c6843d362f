// The three benchmark workloads (see perfbench/README.md for sizing and
// rationale). Each is built from the workload seed alone and runs through
// the library's public entry points.

#ifndef GMR_PERFBENCH_WORKLOADS_H_
#define GMR_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace gmr::perfbench {

/// What one execution of a workload's main call produced.
struct RunRecord {
  /// Process CPU time of the main calls (every lane) restated at reference
  /// host speed (Stopwatch::RestatedSeconds), in total and per panel
  /// instance.
  double run_s = 0.0;
  std::vector<double> instance_s;
  /// Plain process CPU time of the main calls, in total.
  double cpu_s = 0.0;
  /// Wall time of the main calls, in total and per panel instance.
  double wall_s = 0.0;
  std::vector<double> instance_wall_s;
  double test_rmse = 0.0;
  /// Deterministic work counts (a pure function of the workload seed):
  /// compared across repetitions, between the traced and untraced run, and
  /// by the counter-diff mode.
  std::map<std::string, double> counters;
  /// Work counts that depend on how evaluation lanes interleave (a
  /// candidate duplicated within one batch may hit the cache or run twice);
  /// reported, never compared.
  std::map<std::string, double> lane_counters;
  /// Operations attempted / failed (candidates and checkpoint saves for
  /// GMR, objective calls for calibration).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Failed output-correctness checks, one line each (empty = correct).
  std::vector<std::string> errors;
  /// Per-layer metrics; filled by traced runs only.
  std::map<std::string, double> layers;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds every input of the main call: data, grammar, priors, registry,
  /// fitness and (for the durable workload) the checkpoint directory.
  /// Called once, before any run.
  virtual void Setup() = 0;

  /// Runs the main call untraced on every panel instance and checks its
  /// outputs.
  virtual RunRecord Run() = 0;

  /// Runs every panel instance twice, untraced and with the layer probes of
  /// perfbench/trace.h, back to back and alternating which of the two goes
  /// first, so both times of an instance see the same host state. Returns
  /// {untraced, traced}.
  virtual std::pair<RunRecord, RunRecord> RunPaired() = 0;
};

/// Median of a non-empty sample.
double Median(std::vector<double> values);

/// "revise_plankton", "revise_transport_durable" or "calibrate_transport";
/// null for any other name. `scratch_dir` receives checkpoint and trace
/// files; it must exist and is left for the caller to remove.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed,
                                       const std::string& scratch_dir);

}  // namespace gmr::perfbench

#endif  // GMR_PERFBENCH_WORKLOADS_H_
