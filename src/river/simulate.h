#ifndef GMR_RIVER_SIMULATE_H_
#define GMR_RIVER_SIMULATE_H_

#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/status.h"
#include "expr/ast.h"
#include "expr/batch_jit.h"
#include "gp/fitness.h"
#include "river/constituents.h"
#include "river/dataset.h"

namespace gmr::river {

/// Time-stepping scheme for the constituent processes.
enum class IntegrationMethod {
  kEuler,  ///< Forward Euler (the default; cheap and robust under clamping).
  kRk4,    ///< Classic 4th-order Runge-Kutta (drivers held constant within
           ///< the day, as the data is daily).
};

/// Which "runtime compilation" backend evaluates candidate equations when
/// the RC speedup is on. Every rollout (Simulate, RiverFitness, the
/// channel, the adjoint's forward sweep) runs one register program for the
/// equation system (expr/compile.h), one parameter vector at a time.
enum class CompiledBackend {
  kBytecodeVm = 0,  ///< The VM programs alone; the default.
  kBatchJit,        ///< Generation-batched cc + dlopen (expr/batch_jit.h):
                    ///< one translation unit per compile batch, one symbol
                    ///< per unique equation, structure-hash compile cache.
                    ///< Each symbol overrides its equation's VM output; an
                    ///< equation whose compile fails (or once the breaker
                    ///< opens) keeps the VM output.
};

/// Numerical integration settings for the constituent processes.
struct SimulationConfig {
  IntegrationMethod method = IntegrationMethod::kEuler;
  /// Substeps per day; >1 improves stability of fast grazing dynamics
  /// without changing the daily fitness cases.
  int substeps = 2;
  /// State clamp: keeps candidate processes (which may be wildly wrong
  /// during search) from producing NaN/Inf cascades. Divergent candidates
  /// hit the clamp and collect a large but finite error.
  double state_min = 0.01;
  double state_max = 1e4;

  /// Number of constituent states the rollout integrates. Must match both
  /// the ConstituentSet and the equation count — validated with a typed
  /// ConfigError at construction of every runner/fitness (never silently
  /// truncated). The default matches the legacy two-species preset.
  int num_species = 2;

  /// Backend used when the evaluator requests compiled evaluation.
  CompiledBackend compiled_backend = CompiledBackend::kBytecodeVm;
  /// Compile cache + TU batcher consulted by the kBatchJit backend; null
  /// uses the process-wide expr::BatchJitSession::Default(). Not owned.
  expr::BatchJitSession* batch_jit_session = nullptr;

  /// Divergence watchdogs. A tripped watchdog aborts the rollout: every
  /// remaining day deterministically predicts state_max (a pure function of
  /// the candidate, so caching and short-circuiting stay exact) without
  /// further derivative evaluations. 0 disables a watchdog.
  ///
  /// Total non-finite derivative evaluations tolerated per rollout before
  /// aborting with EvalOutcome::kNonFiniteDerivative.
  int max_nonfinite_derivatives = 8;
  /// Consecutive substeps with a state pinned at state_max tolerated before
  /// aborting with EvalOutcome::kClampSaturated. (Dwelling at state_min is
  /// ordinary winter die-off, not divergence, and is never counted.)
  int max_saturated_substeps = 64;
  /// Total substeps allowed per rollout before aborting with
  /// EvalOutcome::kBudgetExceeded; 0 means unlimited. The default rollout
  /// uses num_days * substeps, so this only matters for configurations with
  /// adaptive substepping or as a hard safety net.
  std::size_t substep_budget = 0;
};

/// The commit clamp of every integrator (station, channel, and the
/// adjoint's replay). Sign-aware: -Inf (and NaN with the sign bit set) pins
/// to the biological floor, +Inf/NaN to the ceiling — a huge negative
/// update means the population crashed, not exploded. Pinning at the
/// ceiling sets *saturated_high (when non-null); the floor is ordinary
/// die-off and is never reported.
inline double ClampState(double value, const SimulationConfig& config,
                         bool* saturated_high = nullptr) {
  if (!std::isfinite(value)) {
    if (std::signbit(value)) return config.state_min;
    if (saturated_high != nullptr) *saturated_high = true;
    return config.state_max;
  }
  if (value < config.state_min) return config.state_min;
  if (value > config.state_max) {
    if (saturated_high != nullptr) *saturated_high = true;
    return config.state_max;
  }
  return value;
}

/// True when ClampState passes `raw` through unchanged — the only case
/// with a nonzero (unit) clamp derivative. Pinned or non-finite raw states
/// are locally constant, so the adjoint drops their cotangent exactly.
inline bool ClampPassesThrough(double raw, const SimulationConfig& config) {
  return std::isfinite(raw) && raw >= config.state_min &&
         raw <= config.state_max;
}

/// Validates the config against the constituent registry and the
/// phenotype's equation count: the species counts must agree
/// (kSpeciesCountMismatch), substeps must be >= 1 (kBadSubsteps), the state
/// clamp must be a finite interval with state_min < state_max
/// (kBadStateBounds), and the watchdog limits must be >= 0
/// (kNegativeWatchdogLimit). Every simulation/fitness entry point calls
/// this before touching state.
ConfigError ValidateSimulation(const SimulationConfig& config,
                               const ConstituentSet& constituents,
                               std::size_t num_equations);

/// Validates that every observation mapping of the set points at a series
/// the dataset actually carries (kBadObservedSeries otherwise).
ConfigError ValidateObservations(const ConstituentSet& constituents,
                                 const RiverDataset& dataset);

/// One observation binding of a fitness problem: constituent state index ->
/// dataset observed-series index.
struct ObservationBinding {
  std::size_t species = 0;
  int series = 0;
};

/// The observations a rollout is scored against, in registry order: every
/// constituent with a mapped series, or — when none is mapped — the primary
/// state against series 0. The fitness evaluator and the adjoint's RMSE
/// both score through this one rule.
std::vector<ObservationBinding> BindObservations(
    const ConstituentSet& constituents);

/// What happened inside one simulation rollout (all counters are totals for
/// the rollout).
struct SimulationReport {
  EvalOutcome outcome = EvalOutcome::kOk;
  /// True when a watchdog aborted the rollout early.
  bool aborted = false;
  /// True when at least one equation requested kBatchJit but ran on the
  /// VM program (compile failure or open circuit breaker).
  bool jit_fallback = false;
  std::size_t substeps_used = 0;
  std::size_t days_simulated = 0;
  /// Substeps aborted after this many days (== days_simulated when the
  /// rollout ran to completion).
  std::size_t days_before_abort = 0;
  std::size_t nonfinite_derivatives = 0;
  /// Substeps that left a state pinned at state_max.
  std::size_t clamp_saturations = 0;
};

/// Full multi-constituent rollout trajectory: series[species][day] is the
/// end-of-day state of that constituent (or the state_max penalty value on
/// every day after a watchdog abort).
struct SimulationTrajectory {
  std::vector<std::vector<double>> series;
};

/// Simulates the constituent processes over dataset days [t_begin, t_end)
/// from the given per-species initial state. When `report` is non-null it
/// is filled with the rollout's containment telemetry.
SimulationTrajectory Simulate(const std::vector<expr::ExprPtr>& equations,
                              const std::vector<double>& parameters,
                              const RiverDataset& dataset,
                              std::size_t t_begin, std::size_t t_end,
                              const ConstituentSet& constituents,
                              const std::vector<double>& initial_state,
                              const SimulationConfig& config, bool compiled,
                              SimulationReport* report = nullptr);

/// The river fitness problem: one fitness case per day; fitness is the
/// running RMSE between the simulated and observed series of every
/// observed constituent (the paper's fitness function for the legacy
/// single-observation problem). Supports both evaluation backends as
/// required by gp::SequentialFitness.
class RiverFitness : public gp::SequentialFitness {
 public:
  /// Evaluates days [t_begin, t_end) of `constituents` starting from the
  /// given per-species initial state.
  RiverFitness(const RiverDataset* dataset, std::size_t t_begin,
               std::size_t t_end, ConstituentSet constituents,
               std::vector<double> initial_state,
               SimulationConfig config = SimulationConfig{});

  /// Convenience: the training-period fitness of `dataset` under the
  /// legacy plankton preset.
  static RiverFitness ForTraining(const RiverDataset* dataset,
                                  SimulationConfig config = {});
  /// Convenience: the test-period fitness of `dataset` under the legacy
  /// plankton preset.
  static RiverFitness ForTest(const RiverDataset* dataset,
                              SimulationConfig config = {});

  /// Training/test-window fitness of an arbitrary constituent registry
  /// (initial states from the registry's declarations).
  static RiverFitness ForTrainingWith(const RiverDataset* dataset,
                                      const ConstituentSet& constituents,
                                      SimulationConfig config = {});
  static RiverFitness ForTestWith(const RiverDataset* dataset,
                                  const ConstituentSet& constituents,
                                  SimulationConfig config = {});

  std::size_t num_cases() const override { return t_end_ - t_begin_; }
  std::size_t num_parameters() const override;
  std::size_t num_states() const override { return constituents_.size(); }

  std::unique_ptr<gp::SequentialEvaluation> Begin(
      const std::vector<expr::ExprPtr>& equations,
      const std::vector<double>& parameters,
      bool use_compiled_backend) const override;

  /// Under kBatchJit: compile every unique equation of the batch into one
  /// translation unit at the batch barrier, so the per-individual Begin()
  /// calls are pure cache hits (no compiler invocations on worker lanes).
  bool WantsBatchPreparation() const override;
  void PrepareBatch(const std::vector<std::vector<expr::ExprPtr>>& phenotypes)
      const override;

  const RiverDataset& dataset() const { return *dataset_; }
  const ConstituentSet& constituents() const { return constituents_; }

 private:
  const RiverDataset* dataset_;
  std::size_t t_begin_;
  std::size_t t_end_;
  ConstituentSet constituents_;
  std::vector<double> initial_state_;
  SimulationConfig config_;
};

}  // namespace gmr::river

#endif  // GMR_RIVER_SIMULATE_H_
