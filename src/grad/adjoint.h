#ifndef GMR_GRAD_ADJOINT_H_
#define GMR_GRAD_ADJOINT_H_

#include <cstddef>
#include <vector>

#include "calibrate/calibrator.h"
#include "expr/ast.h"
#include "gp/fitness.h"
#include "river/constituents.h"
#include "river/dataset.h"
#include "river/simulate.h"

/// Discrete adjoint of the river rollout: exact ∂RMSE/∂θ through the Euler
/// and RK4 stepper of river/stepper.h, differentiating the code that
/// actually runs — state clamps, watchdog aborts, protected kernels — not
/// the idealized ODE. See DESIGN.md §4l.
namespace gmr::grad {

struct GradientResult {
  /// Training RMSE at θ, bit-identical to the interpreter/VM rollout the
  /// fitness evaluator computes (RiverFitness + RiverEvaluation).
  double rmse = 0.0;
  /// ∂RMSE/∂θ, one entry per parameter slot. All-zero (and still valid)
  /// when the rollout aborted on day 0 or RMSE is exactly 0.
  std::vector<double> gradient;
  /// False when the tape could not be built (`tape_alloc` fault,
  /// allocation failure) or any adjoint came back non-finite
  /// (`adjoint_nan` fault, overflowing cotangents). The rmse/report fields
  /// are valid either way; consumers degrade to derivative-free search.
  bool gradient_valid = false;
  /// Containment telemetry of the underlying forward rollout.
  river::SimulationReport report;
  /// Tape-size telemetry: total linearized nodes across the equations, and
  /// how many of them the activity pass pruned.
  std::size_t tape_nodes = 0;
  std::size_t pruned_nodes = 0;
};

/// Exact gradient of the windowed RMSE fitness (days [t_begin, t_end),
/// squared error summed over every observed constituent) with respect to
/// the parameter vector, for an arbitrary ConstituentSet registry.
///
/// Forward sweep: the compiled rollout on the bytecode VM, checkpointing
/// each begin-of-day state. Reverse sweep: days in reverse order,
/// recomputing the day's substeps from the checkpoint with the rollout's
/// own stepper (river/stepper.h) over the tapes, then
/// propagating the state cotangent λ backwards — through the commit clamp
/// (cotangent dropped exactly where the clamp pinned the state), each RK4
/// stage in reverse, and each equation's tape. Watchdog-aware: days at or
/// after `days_before_abort` predict the constant penalty state, so they
/// contribute exactly zero gradient and the reverse sweep skips them — an
/// aborted candidate yields the deterministic penalty gradient, never NaN.
///
/// When `prune` is set, each equation's tape is activity-pruned over a
/// sound rollout env: parameters pinned to θ, drivers spanning the
/// dataset hull of the window, and states spanning the commit clamp under
/// Euler or unbounded (RK4 stage inputs are unclamped and may even be
/// NaN) under RK4.
GradientResult RmseGradient(const std::vector<expr::ExprPtr>& equations,
                            const std::vector<double>& parameters,
                            const river::RiverDataset& dataset,
                            std::size_t t_begin, std::size_t t_end,
                            const river::ConstituentSet& constituents,
                            const std::vector<double>& initial_state,
                            const river::SimulationConfig& config,
                            bool prune = true);

/// gp::GradientFitness over RmseGradient: the gradient side-channel of a
/// RiverFitness problem, used for elite constant polish in TAG3P.
class RiverGradientFitness : public gp::GradientFitness {
 public:
  RiverGradientFitness(const river::RiverDataset* dataset,
                       std::size_t t_begin, std::size_t t_end,
                       river::ConstituentSet constituents,
                       std::vector<double> initial_state,
                       river::SimulationConfig config = {});

  /// Training-window gradient problem of `constituents` over `dataset`
  /// (initial states from the registry), matching
  /// RiverFitness::ForTrainingWith.
  static RiverGradientFitness ForTraining(
      const river::RiverDataset* dataset,
      const river::ConstituentSet& constituents,
      river::SimulationConfig config = {});

  bool EvaluateGradient(const std::vector<expr::ExprPtr>& equations,
                        const std::vector<double>& parameters, double* value,
                        std::vector<double>* gradient,
                        GradientStats* stats) const override;

 private:
  const river::RiverDataset* dataset_;
  std::size_t t_begin_;
  std::size_t t_end_;
  river::ConstituentSet constituents_;
  std::vector<double> initial_state_;
  river::SimulationConfig config_;
};

/// Calibration adapters: value and gradient objectives over the training
/// RMSE of a fixed equation system, ready for CalibrationProblem. Both
/// roll out on the compiled bytecode VM (bit-identical to the
/// interpreter); the observation bindings are resolved once per adapter.
/// The value objective is exactly the rollout RMSE; the gradient objective
/// reports failures (tape faults, non-finite adjoints) by filling the
/// gradient with NaN, which the gradient-based calibrators treat as a
/// signal to degrade to derivative-free search.
calibrate::Objective MakeRmseObjective(
    std::vector<expr::ExprPtr> equations, const river::RiverDataset* dataset,
    std::size_t t_begin, std::size_t t_end,
    river::ConstituentSet constituents, std::vector<double> initial_state,
    river::SimulationConfig config = {});

calibrate::GradientObjective MakeRmseGradientObjective(
    std::vector<expr::ExprPtr> equations, const river::RiverDataset* dataset,
    std::size_t t_begin, std::size_t t_end,
    river::ConstituentSet constituents, std::vector<double> initial_state,
    river::SimulationConfig config = {});

}  // namespace gmr::grad

#endif  // GMR_GRAD_ADJOINT_H_
