#ifndef GMR_RIVER_STEPPER_H_
#define GMR_RIVER_STEPPER_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/fault_injection.h"
#include "expr/ast.h"
#include "expr/batch_jit.h"
#include "expr/batch_vm.h"
#include "expr/compile.h"
#include "expr/eval.h"
#include "river/dataset.h"
#include "river/simulate.h"
#include "river/variables.h"

/// The integrator core of every rollout: the per-lane divergence watchdog,
/// the derivative runner, and the Euler/RK4 lane stepper. The station
/// rollouts (Simulate, RiverFitness: width 1; BatchSimulate: run-time
/// width) step through LaneStepper, the channel (river/transport.cc) runs
/// its reach as one watchdog lane over the same runner, and the adjoint
/// (grad/adjoint.cc) replays LaneStepper::Substep over its tapes — so the
/// replay matches the forward sweep bitwise by construction.
namespace gmr::river {

/// Lane-count template argument of a block whose width is chosen at run
/// time.
inline constexpr std::size_t kDynamicWidth = 0;

/// The divergence watchdog of one lane (the three SimulationConfig limits)
/// and the SimulationReport counters it keeps. Once it aborts, the lane
/// takes no further substeps and every remaining day predicts
/// config.state_max.
class LaneWatchdog {
 public:
  bool aborted() const { return aborted_; }

  /// Counts one day of the window. Every day counts, including the
  /// penalty days after an abort.
  void BeginDay() { ++days_simulated_; }

  /// Charges one substep against config.substep_budget; false after
  /// aborting with kBudgetExceeded when the budget is spent.
  bool ChargeSubstep(const SimulationConfig& config) {
    if (config.substep_budget > 0 && substeps_used_ >= config.substep_budget) {
      Abort(EvalOutcome::kBudgetExceeded);
      return false;
    }
    ++substeps_used_;
    return true;
  }

  /// One derivative call: ONE increment when any of the lane's outputs is
  /// non-finite (not one per species — the historical counting contract).
  void NoteDerivatives(bool all_finite, const SimulationConfig& config) {
    if (all_finite) return;
    ++nonfinite_derivatives_;
    if (config.max_nonfinite_derivatives > 0 &&
        nonfinite_derivatives_ >=
            static_cast<std::size_t>(config.max_nonfinite_derivatives)) {
      Abort(EvalOutcome::kNonFiniteDerivative);
    }
  }

  /// One committed substep: `saturated` when it pinned any state at
  /// state_max. Dwelling at the ceiling for max_saturated_substeps
  /// consecutive commits aborts with kClampSaturated.
  void NoteCommit(bool saturated, const SimulationConfig& config) {
    if (!saturated) {
      consecutive_saturated_ = 0;
      return;
    }
    ++clamp_saturations_;
    ++consecutive_saturated_;
    if (config.max_saturated_substeps > 0 &&
        consecutive_saturated_ >=
            static_cast<std::size_t>(config.max_saturated_substeps)) {
      Abort(EvalOutcome::kClampSaturated);
    }
  }

  EvalOutcome outcome(bool jit_fallback) const {
    if (aborted_) return abort_outcome_;
    return jit_fallback ? EvalOutcome::kJitCompileFailed : EvalOutcome::kOk;
  }

  void FillReport(bool jit_fallback, SimulationReport* report) const {
    report->outcome = outcome(jit_fallback);
    report->aborted = aborted_;
    report->jit_fallback = jit_fallback;
    report->substeps_used = substeps_used_;
    report->days_simulated = days_simulated_;
    report->days_before_abort = aborted_ ? days_before_abort_ : days_simulated_;
    report->nonfinite_derivatives = nonfinite_derivatives_;
    report->clamp_saturations = clamp_saturations_;
  }

 private:
  void Abort(EvalOutcome outcome) {
    aborted_ = true;
    abort_outcome_ = outcome;
    // The current day did not complete; it and all later days predict the
    // penalty value.
    days_before_abort_ = days_simulated_ - 1;
  }

  bool aborted_ = false;
  EvalOutcome abort_outcome_ = EvalOutcome::kOk;
  std::size_t substeps_used_ = 0;
  std::size_t days_simulated_ = 0;
  std::size_t days_before_abort_ = 0;
  std::size_t nonfinite_derivatives_ = 0;
  std::size_t clamp_saturations_ = 0;
  std::size_t consecutive_saturated_ = 0;
};

/// Writes the ten Table IV drivers of day `t` into the driver rows of an
/// SoA variable block (slot num_species + k, every lane).
inline void BroadcastDrivers(const RiverDataset& dataset, std::size_t t,
                             std::size_t num_species, std::size_t width,
                             double* variables) {
  for (int k = 0; k < kNumDriverVariables; ++k) {
    const double v = dataset.drivers[static_cast<std::size_t>(kVlgt + k)][t];
    std::fill_n(variables + (num_species + static_cast<std::size_t>(k)) * width,
                width, v);
  }
}

/// Under kBatchJit, the generation-JIT symbols of an equation system, one
/// per equation (empty under kBytecodeVm). Pure cache hits when the
/// evaluator's PrepareBatch already compiled this generation; a miss
/// compiles a (small) TU for these equations. A null symbol (compile
/// failure, open breaker) leaves its equation to the VM program.
class JitSymbols {
 public:
  JitSymbols() = default;
  JitSymbols(const std::vector<expr::ExprPtr>& equations,
             const SimulationConfig& config);

  /// True when the VM program must run: no symbols, or some equation fell
  /// back to it.
  bool NeedsProgram() const { return fns_.empty() || fallback_; }

  /// Overwrites each compiled equation's outputs, out[e * width + lane].
  void Override(const double* variables, const double* parameters,
                double* out, std::size_t width) const {
    for (std::size_t e = 0; e < fns_.size(); ++e) {
      if (fns_[e] == nullptr) continue;
      fns_[e](variables, parameters, out + e * width,
              static_cast<long>(width));
    }
  }

  /// True when any equation degraded from its symbol to the VM program.
  bool fallback() const { return fallback_; }

 private:
  std::vector<expr::BatchJitSession::BatchFn> fns_;
  bool fallback_ = false;
};

/// Evaluates every process derivative of a lane block per call: equation
/// `e`'s lanes land at out[e * width + lane] (the SoA layout of
/// batch_vm.h; width 1 is the scalar layout). Lane width picks the VM:
/// width 1 runs the tree interpreter, or one register program for the
/// system that runs its parameter-only instructions once per rollout and
/// its driver-only ones once per day (Hold); wider blocks run the system's
/// whole batch program per call. Under kBatchJit the generation-JIT
/// symbols override either one per equation. Hosts the `derivative_nan`
/// fault point.
template <std::size_t kWidth>
class DerivativeRunner {
 public:
  /// `parameters` is the SoA parameter block, [slot * width + lane]; it is
  /// not copied and must outlive the runner. `compiled` false selects the
  /// interpreter, which runs at width 1 only.
  DerivativeRunner(const std::vector<expr::ExprPtr>& equations,
                   const double* parameters, std::size_t num_parameters,
                   std::size_t num_variables, std::size_t width,
                   bool compiled, const SimulationConfig& config)
      : parameters_(parameters),
        num_parameters_(num_parameters),
        num_variables_(num_variables),
        num_equations_(equations.size()),
        compiled_(compiled) {
    GMR_CHECK(!equations.empty());
    GMR_CHECK(parameters_ != nullptr || num_parameters_ == 0);
    if constexpr (kWidth == kDynamicWidth) {
      width_ = width;
    } else {
      GMR_CHECK_EQ(width, kWidth);
    }
    if (!compiled_) {
      GMR_CHECK_EQ(width, 1u);
      equations_ = equations;
      return;
    }
    // The variable slots past the species are the day's drivers.
    const expr::TapeLayout layout{num_variables_, num_parameters_,
                                  num_equations_};
    if constexpr (kWidth == 1) {
      program_ = expr::Compile(equations, layout);
      program_.Bind(parameters_, num_parameters_);
    } else {
      program_ = expr::CompileBatch(equations, layout);
    }
    jit_ = JitSymbols(equations, config);
  }

  std::size_t width() const {
    if constexpr (kWidth == kDynamicWidth) {
      return width_;
    } else {
      return kWidth;
    }
  }

  /// Loads the held slots (the drivers) of `variables` into the width-1
  /// program and runs its driver-only instructions; rerun whenever a
  /// driver changes, before the next Derivatives call. A no-op for the
  /// interpreter, for wider blocks (the batch program reads every slot per
  /// call), and when the JIT symbols cover every equation.
  void Hold(const double* variables) const {
    if constexpr (kWidth == 1) {
      if (compiled_ && jit_.NeedsProgram()) {
        program_.Hold(variables, num_variables_);
      }
    }
  }

  void Derivatives(const double* variables, double* out) const {
    if (FaultInjected(FaultPoint::kDerivativeNan)) {
      std::fill_n(out, num_equations_ * width(),
                  std::numeric_limits<double>::quiet_NaN());
      return;
    }
    if (!compiled_) {
      expr::EvalContext ctx;
      ctx.variables = variables;
      ctx.num_variables = num_variables_;
      ctx.parameters = parameters_;
      ctx.num_parameters = num_parameters_;
      for (std::size_t e = 0; e < num_equations_; ++e) {
        out[e] = expr::EvalExpr(*equations_[e], ctx);
      }
      return;
    }
    if (jit_.NeedsProgram()) {
      if constexpr (kWidth == 1) {
        program_.Run(variables, num_variables_, out);
      } else {
        expr::BatchEvalContext ctx;
        ctx.variables = variables;
        ctx.num_variables = num_variables_;
        ctx.parameters = parameters_;
        ctx.num_parameters = num_parameters_;
        ctx.width = width();
        program_.RunLanes(ctx, out);
      }
    }
    jit_.Override(variables, parameters_, out, width());
  }

  /// True when any equation degraded from a JIT symbol to the VM program.
  bool jit_fallback() const { return jit_.fallback(); }

 private:
  using Program = std::conditional_t<kWidth == 1, expr::CompiledProgram,
                                     expr::BatchProgram>;

  const double* parameters_;
  std::size_t num_parameters_;
  std::size_t num_variables_;
  std::size_t num_equations_;
  std::size_t width_ = kWidth;
  bool compiled_;
  /// The interpreter's equations (empty when compiled).
  std::vector<expr::ExprPtr> equations_;
  Program program_;
  JitSymbols jit_;
};

/// Euler or RK4 integration of a block of lanes that share one equation
/// system (one parameter vector per lane, held by the derivative source),
/// with one LaneWatchdog per lane. kWidth fixes the lane count at compile
/// time (1 for the station rollouts, so no stride arithmetic survives), or
/// is kDynamicWidth for a run-time lane count.
///
/// Layout: states, variables and stage slopes are SoA blocks,
/// [slot * width + lane]; the variable block holds the constituent states
/// at slots [0, N), then the ten Table IV drivers. At N == 2 every index,
/// every arithmetic operation and every watchdog decision is exactly the
/// historical two-species integrator's (the bit-identity contract of the
/// legacy preset).
///
/// Masking: a lane whose watchdog aborted is skipped by all bookkeeping
/// and commits — it still flows through the branch-free derivative
/// kernels, its outputs ignored, while its neighbors keep integrating. Each
/// lane's trajectory and counters are therefore bit-identical to a width-1
/// rollout of that lane alone.
template <std::size_t kWidth>
class LaneStepper {
 public:
  LaneStepper(const std::vector<double>& initial_state, std::size_t width,
              const SimulationConfig& config)
      : config_(config),
        num_species_(initial_state.size()),
        rk4_(config.method == IntegrationMethod::kRk4),
        dt_(1.0 / static_cast<double>(config.substeps)),
        states_(num_species_ * width),
        vars_((num_species_ + static_cast<std::size_t>(kNumDriverVariables)) *
              width),
        k_(NumStages() * num_species_ * width) {
    if constexpr (kWidth == kDynamicWidth) {
      GMR_CHECK_GT(width, 0u);
      watchdogs_.resize(width);
    } else {
      GMR_CHECK_EQ(width, kWidth);
    }
    for (std::size_t s = 0; s < num_species_; ++s) {
      std::fill_n(&states_[s * width], width,
                  ClampState(initial_state[s], config_));
    }
  }

  std::size_t width() const {
    if constexpr (kWidth == kDynamicWidth) {
      return watchdogs_.size();
    } else {
      return kWidth;
    }
  }

  /// Committed (clamped) state of one constituent in one lane.
  double& state(std::size_t species, std::size_t lane) {
    return states_[species * width() + lane];
  }

  /// End-of-day state of one constituent in one lane, or the penalty value
  /// after that lane's watchdog aborted.
  double StateOrPenalty(std::size_t species, std::size_t lane) const {
    return watchdogs_[lane].aborted() ? config_.state_max
                                      : states_[species * width() + lane];
  }

  const LaneWatchdog& watchdog(std::size_t lane) const {
    return watchdogs_[lane];
  }

  /// Integrates day `t` (drivers held constant within the day) for every
  /// live lane: config.substeps substeps, each charged against every live
  /// lane's budget, with `runner` filling one slope per equation and lane
  /// from the variable block.
  void AdvanceDay(const RiverDataset& dataset, std::size_t t,
                  const DerivativeRunner<kWidth>& runner) {
    bool any_live = false;
    for (LaneWatchdog& watchdog : watchdogs_) {
      watchdog.BeginDay();
      any_live = any_live || !watchdog.aborted();
    }
    if (any_live) StepDay(dataset, t, runner);
  }

  void LoadDrivers(const RiverDataset& dataset, std::size_t t) {
    BroadcastDrivers(dataset, t, num_species_, width(), vars_.data());
  }

  /// One Euler or RK4 substep of every live lane. Each stage's input is the
  /// committed state plus StageShift(stage) times the previous stage's
  /// slopes; `derive` evaluates it, and every live lane notes the call on
  /// its watchdog. A lane that aborts at stage k skips the later stages'
  /// bookkeeping and the commit (when no lane is left, the substep stops).
  /// Each raw end-of-substep state of a surviving lane goes to
  /// `on_raw(species, raw)` before the clamp commits it.
  template <class Derive, class OnRaw>
  void Substep(const Derive& derive, const OnRaw& on_raw) {
    const std::size_t block = num_species_ * width();
    double* k0 = k_.data();
    // A loop, not std::copy_n: at a handful of species the memmove call
    // costs more than the copy.
    for (std::size_t i = 0; i < block; ++i) vars_[i] = states_[i];
    derive(std::size_t{0}, vars_.data(), k0);
    if (!NoteStage(k0)) return;
    if (!rk4_) {
      Commit([&](std::size_t i) { return states_[i] + dt_ * k0[i]; }, on_raw);
      return;
    }
    for (std::size_t stage = 1; stage < 4; ++stage) {
      double* k = &k_[stage * block];
      const double* k_prev = k - block;
      const double shift = StageShift(stage);
      for (std::size_t i = 0; i < block; ++i) {
        vars_[i] = states_[i] + shift * k_prev[i];
      }
      derive(stage, vars_.data(), k);
      if (!NoteStage(k)) return;
    }
    const double* k1 = k0 + block;
    const double* k2 = k1 + block;
    const double* k3 = k2 + block;
    Commit(
        [&](std::size_t i) {
          return states_[i] +
                 dt_ / 6.0 * (k0[i] + 2.0 * k1[i] + 2.0 * k2[i] + k3[i]);
        },
        on_raw);
  }

  /// Derivative evaluations per substep: 1 (Euler) or 4 (RK4).
  std::size_t NumStages() const { return rk4_ ? 4 : 1; }

  /// d(stage input)/d(previous stage's slope): o * dt with the RK4 stage
  /// offsets o = {0, 1/2, 1/2, 1}.
  double StageShift(std::size_t stage) const {
    return kRk4Offsets[stage] * dt_;
  }

  /// d(raw end-of-substep state)/d(stage slope): dt under Euler, the RK4
  /// weights dt/6 * {1, 2, 2, 1} under RK4.
  double StageWeight(std::size_t stage) const {
    if (!rk4_) return dt_;
    return stage == 0 || stage == 3 ? dt_ / 6.0 : dt_ / 3.0;
  }

 private:
  static constexpr double kRk4Offsets[4] = {0.0, 0.5, 0.5, 1.0};

  /// The substeps of a day with at least one live lane. Kept out of
  /// AdvanceDay so its penalty-day exit stays a few instructions, which
  /// also skips the runner's per-day Hold on penalty days.
  void StepDay(const RiverDataset& dataset, std::size_t t,
               const DerivativeRunner<kWidth>& runner) {
    LoadDrivers(dataset, t);
    runner.Hold(vars_.data());
    const auto derive = [&runner](std::size_t, const double* variables,
                                  double* slopes) {
      runner.Derivatives(variables, slopes);
    };
    for (int step = 0; step < config_.substeps; ++step) {
      bool any_charged = false;
      for (LaneWatchdog& watchdog : watchdogs_) {
        if (!watchdog.aborted() && watchdog.ChargeSubstep(config_)) {
          any_charged = true;
        }
      }
      if (!any_charged) break;
      Substep(derive, [](std::size_t, double) {});
    }
  }

  /// Watchdog bookkeeping of one derivative call: every live lane notes
  /// whether its outputs are all finite. False when no lane is left.
  bool NoteStage(const double* k) {
    const std::size_t w = width();
    bool any_live = false;
    for (std::size_t l = 0; l < w; ++l) {
      LaneWatchdog& watchdog = watchdogs_[l];
      if (watchdog.aborted()) continue;
      bool all_finite = true;
      for (std::size_t s = 0; s < num_species_; ++s) {
        all_finite = all_finite && std::isfinite(k[s * w + l]);
      }
      watchdog.NoteDerivatives(all_finite, config_);
      any_live = any_live || !watchdog.aborted();
    }
    return any_live;
  }

  /// Clamps and commits every live lane's raw end-of-substep states,
  /// raw_of(slot), tracking ceiling saturations (ORed across species) on
  /// the lane's watchdog. Each raw state reads only its own slots, so it
  /// commits in the same pass.
  template <class RawOf, class OnRaw>
  void Commit(const RawOf& raw_of, const OnRaw& on_raw) {
    const std::size_t w = width();
    for (std::size_t l = 0; l < w; ++l) {
      LaneWatchdog& watchdog = watchdogs_[l];
      if (watchdog.aborted()) continue;
      bool saturated = false;
      for (std::size_t s = 0; s < num_species_; ++s) {
        const std::size_t i = s * w + l;
        const double raw = raw_of(i);
        on_raw(s, raw);
        states_[i] = ClampState(raw, config_, &saturated);
      }
      watchdog.NoteCommit(saturated, config_);
    }
  }

  using Watchdogs =
      std::conditional_t<kWidth == kDynamicWidth, std::vector<LaneWatchdog>,
                         std::array<LaneWatchdog, kWidth>>;

  SimulationConfig config_;
  std::size_t num_species_;
  bool rk4_;
  double dt_;
  Watchdogs watchdogs_{};
  std::vector<double> states_;
  std::vector<double> vars_;
  /// Stage slopes, [(stage * num_species + species) * width + lane].
  std::vector<double> k_;
};

}  // namespace gmr::river

#endif  // GMR_RIVER_STEPPER_H_
