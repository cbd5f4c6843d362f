#ifndef GMR_GRAD_ADJOINT_H_
#define GMR_GRAD_ADJOINT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/interval.h"
#include "calibrate/calibrator.h"
#include "expr/ast.h"
#include "expr/compile.h"
#include "expr/eval.h"
#include "gp/fitness.h"
#include "river/constituents.h"
#include "river/dataset.h"
#include "river/simulate.h"

/// Reverse-mode autodiff on the register tape of expr/compile.h, and the
/// discrete adjoint of the river rollout built on it: exact ∂RMSE/∂θ
/// through the Euler and RK4 stepper of river/stepper.h, differentiating
/// the code that actually runs — state clamps, watchdog aborts, protected
/// kernels — not the idealized ODE. See DESIGN.md §4l.
namespace gmr::grad {

/// A compiled equation system and the reverse sweep over its instructions.
///
/// The forward values are the VM's own: every instruction writes its own
/// register, so after Bind, Hold and Run the register file holds every
/// intermediate value. The reverse sweep keeps one cotangent per register
/// and propagates it with the derivative of whichever kernel branch the
/// forward value actually took: a protected division inside its
/// |b| < kDivEpsilon band is the constant 1 and pushes nothing; log inside
/// its zero band pushes nothing; a clamped exp argument pushes nothing;
/// min/max route the cotangent to the branch the value kernel selected
/// (ties to the right operand, as in `a < b ? a : b`). Gradients are
/// therefore exact derivatives of the protected evaluation semantics — not
/// of the unprotected textbook expression — which is what the
/// finite-difference gradcheck oracle verifies.
///
/// Parameter and state registers are live (they collect the adjoints);
/// constants and held variables (drivers are exogenous data) are dead.
/// When a domain environment is supplied, the activity pass
/// (analysis/activity.h) also kills every instruction whose value is
/// provably independent of every parameter and state. A dead instruction
/// is skipped, a push or seed into a dead register is dropped, and so is a
/// zero cotangent — which is what makes a parameter the activity pass
/// reports inactive come back as exactly 0.0, never a rounding residue,
/// and keeps 0 * inf from minting NaNs on paths whose true derivative is
/// zero.
class GradientProgram {
 public:
  /// Compiles `roots` over `layout`. When `prune_env` is non-null the
  /// activity pass runs over it — the env must soundly contain every
  /// runtime value the program will see. Hosts the `tape_alloc` fault
  /// point: when armed, construction throws std::bad_alloc so gradient
  /// consumers exercise their derivative-free degradation path.
  GradientProgram(std::span<const expr::Expr* const> roots,
                  const expr::TapeLayout& layout,
                  const analysis::DomainEnv* prune_env);

  /// The forward program; Bind, Hold and Run it as a rollout does.
  const expr::CompiledProgram& program() const { return program_; }
  const expr::Tape& tape() const { return program_.tape(); }
  /// Instructions the activity pass killed (0 without an env).
  std::size_t pruned() const { return pruned_; }

  /// Adds `seed` to the cotangent of root `root`'s output register unless
  /// that register is dead. Hosts the `adjoint_nan` fault point: when
  /// armed, the seed is poisoned to NaN so downstream validity checks must
  /// flag the gradient instead of trusting it.
  void Seed(std::size_t root, double seed, double* cotangents) const;

  /// Reverses instructions [begin, end), last first: each live one with a
  /// nonzero cotangent adds its operands' shares to their cotangents.
  /// `values` is a register file the forward run of those instructions
  /// left; `cotangents` holds one entry per register.
  void Reverse(std::size_t begin, std::size_t end, const double* values,
               double* cotangents) const;

 private:
  expr::CompiledProgram program_;
  /// Per register: 1 when it takes a cotangent.
  std::vector<std::uint8_t> live_;
  std::size_t pruned_ = 0;
};

/// Value and adjoints of one expression at one point.
struct ExprGradient {
  double value = 0.0;
  /// ∂value/∂p, one entry per parameter slot of the layout.
  std::vector<double> parameters;
  /// ∂value/∂v for the state variables [0, num_states).
  std::vector<double> states;
  /// Σ |cotangent × value| over the instruction registers: to first order,
  /// how far the value moves when every intermediate value is off by one
  /// relative unit (its rounding sensitivity).
  double rounding = 0.0;
};

/// Runs the one-root program `gradient` at `ctx` (all three segments) and
/// reverses every instruction from a seed of 1.0. The context's regions
/// must cover the program's layout.
ExprGradient Differentiate(const GradientProgram& gradient,
                           const expr::EvalContext& ctx);

struct GradientResult {
  /// Training RMSE at θ, bit-identical to the interpreter/VM rollout the
  /// fitness evaluator computes (RiverFitness + RiverEvaluation).
  double rmse = 0.0;
  /// ∂RMSE/∂θ, one entry per parameter slot. All-zero (and still valid)
  /// when the rollout aborted on day 0 or RMSE is exactly 0.
  std::vector<double> gradient;
  /// False when the gradient program could not be built (`tape_alloc`
  /// fault, allocation failure) or any adjoint came back non-finite
  /// (`adjoint_nan` fault, overflowing cotangents). The rmse/report fields
  /// are valid either way; consumers degrade to derivative-free search.
  bool gradient_valid = false;
  /// Containment telemetry of the underlying forward rollout.
  river::SimulationReport report;
  /// Tape-size telemetry: instructions of the system's register tape, and
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
/// own stepper (river/stepper.h) on a GradientProgram of the system under
/// the rollout's RolloutLayout — bound once, held once per day, run once
/// per stage, its register file recorded after each stage — then
/// propagating the state cotangent λ backwards through the commit clamp
/// (cotangent dropped exactly where the clamp pinned the state) and each
/// RK4 stage. The tape's segments reverse at their forward rates: the run
/// segment every stage, the hold segment once per day on the day's summed
/// cotangents, the bind segment once per gradient. Watchdog-aware: days at
/// or after `days_before_abort` predict the constant penalty state, so
/// they contribute exactly zero gradient and the reverse sweep skips them
/// — an aborted candidate yields the deterministic penalty gradient, never
/// NaN.
///
/// When `prune` is set, the program is activity-pruned over a sound
/// rollout env: parameters pinned to θ, drivers spanning the dataset hull
/// of the window, and states spanning the commit clamp under Euler or
/// unbounded (RK4 stage inputs are unclamped and may even be NaN) under
/// RK4.
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
/// reports failures (`tape_alloc` faults, non-finite adjoints) by filling the
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
