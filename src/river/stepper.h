#ifndef GMR_RIVER_STEPPER_H_
#define GMR_RIVER_STEPPER_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/fault_injection.h"
#include "expr/ast.h"
#include "expr/compile.h"
#include "expr/eval.h"
#include "river/dataset.h"
#include "river/simulate.h"
#include "river/variables.h"

/// The integrator core of every rollout: the divergence watchdog, the
/// derivative runner, and the Euler/RK4 stepper. The station rollouts
/// (Simulate, RiverFitness) step through LaneStepper, the channel
/// (river/transport.cc) steps its cells one at a time on the same runner
/// under one reach-wide watchdog, and the adjoint (grad/adjoint.cc)
/// replays LaneStepper::Substep over a program compiled with the same
/// RolloutLayout — so every rollout runs the same VM, stepper and
/// watchdog, and the replay matches the forward sweep bitwise by
/// construction.
namespace gmr::river {

/// The divergence watchdog of one rollout (the three SimulationConfig
/// limits) and the SimulationReport counters it keeps. Once it aborts, the
/// rollout takes no further substeps and every remaining day predicts
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

  /// One derivative call: ONE increment when any of the rollout's outputs
  /// is non-finite (not one per species — the historical counting contract).
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

  /// kOk, or the outcome the watchdog aborted with.
  EvalOutcome outcome() const { return abort_outcome_; }

  void FillReport(SimulationReport* report) const {
    report->outcome = abort_outcome_;
    report->aborted = aborted_;
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

/// Writes the ten Table IV drivers of day `t` into the driver slots
/// [num_species, num_species + 10) of a variable vector.
inline void LoadDrivers(const RiverDataset& dataset, std::size_t t,
                        std::size_t num_species, double* variables) {
  for (int k = 0; k < kNumDriverVariables; ++k) {
    variables[num_species + static_cast<std::size_t>(k)] =
        dataset.drivers[static_cast<std::size_t>(kVlgt + k)][t];
  }
}

/// The register layout every rollout compiles its equation system with:
/// the species are the states, the ten drivers after them are held.
inline expr::TapeLayout RolloutLayout(std::size_t num_species,
                                      std::size_t num_parameters) {
  return {num_species + static_cast<std::size_t>(kNumDriverVariables),
          num_parameters, num_species};
}

/// Evaluates every process derivative of one parameter vector per call:
/// equation `e` lands at out[e]. Runs the tree interpreter, or one register
/// program for the system that runs its parameter-only instructions once
/// per rollout (at construction) and its driver-only ones once per day
/// (Hold). Hosts the `derivative_nan` fault point.
class DerivativeRunner {
 public:
  /// `parameters` is not copied and must outlive the runner. `compiled`
  /// false selects the interpreter. Variable vectors follow RolloutLayout:
  /// one state per equation, then the ten drivers.
  DerivativeRunner(const std::vector<expr::ExprPtr>& equations,
                   const double* parameters, std::size_t num_parameters,
                   bool compiled)
      : parameters_(parameters),
        num_parameters_(num_parameters),
        num_variables_(
            RolloutLayout(equations.size(), num_parameters).num_variables),
        num_equations_(equations.size()),
        compiled_(compiled) {
    GMR_CHECK(!equations.empty());
    GMR_CHECK(parameters_ != nullptr || num_parameters_ == 0);
    if (!compiled_) {
      equations_ = equations;
      return;
    }
    program_ = expr::Compile(
        equations, RolloutLayout(num_equations_, num_parameters_));
    program_.Bind(parameters_, num_parameters_);
  }

  /// Loads the held slots (the drivers) of `variables` into the program
  /// and runs its driver-only instructions; rerun whenever a driver
  /// changes, before the next Derivatives call. A no-op for the
  /// interpreter.
  void Hold(const double* variables) const {
    if (compiled_) program_.Hold(variables, num_variables_);
  }

  void Derivatives(const double* variables, double* out) const {
    if (FaultInjected(FaultPoint::kDerivativeNan)) {
      std::fill_n(out, num_equations_,
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
    program_.Run(variables, num_variables_, out);
  }

 private:
  const double* parameters_;
  std::size_t num_parameters_;
  std::size_t num_variables_;
  std::size_t num_equations_;
  bool compiled_;
  /// The interpreter's equations (empty when compiled).
  std::vector<expr::ExprPtr> equations_;
  expr::CompiledProgram program_;
};

/// Euler or RK4 integration of one equation system under one parameter
/// vector (held by the derivative source), with one LaneWatchdog.
///
/// Layout: the variable vector holds the constituent states at slots
/// [0, N), then the ten Table IV drivers; stage slopes are
/// [stage * N + species]. At N == 2 every index, every arithmetic
/// operation and every watchdog decision is exactly the historical
/// two-species integrator's (the bit-identity contract of the legacy
/// preset).
///
/// Once the watchdog aborts, the stepper takes no further substeps and
/// StateOrPenalty reports config.state_max for every remaining day.
class LaneStepper {
 public:
  LaneStepper(const std::vector<double>& initial_state,
              const SimulationConfig& config)
      : config_(config),
        num_species_(initial_state.size()),
        rk4_(config.method == IntegrationMethod::kRk4),
        dt_(1.0 / static_cast<double>(config.substeps)),
        states_(num_species_),
        vars_(num_species_ + static_cast<std::size_t>(kNumDriverVariables)),
        k_(NumStages() * num_species_) {
    for (std::size_t s = 0; s < num_species_; ++s) {
      states_[s] = ClampState(initial_state[s], config_);
    }
  }

  /// Committed (clamped) state of one constituent.
  double& state(std::size_t species) { return states_[species]; }

  /// End-of-day state of one constituent, or the penalty value after the
  /// watchdog aborted.
  double StateOrPenalty(std::size_t species) const {
    return watchdog_.aborted() ? config_.state_max : states_[species];
  }

  const LaneWatchdog& watchdog() const { return watchdog_; }

  /// Integrates day `t` (drivers held constant within the day):
  /// config.substeps substeps, each charged against the budget, with
  /// `runner` filling one slope per equation from the variable vector.
  void AdvanceDay(const RiverDataset& dataset, std::size_t t,
                  const DerivativeRunner& runner) {
    watchdog_.BeginDay();
    if (!watchdog_.aborted()) StepDay(dataset, t, runner);
  }

  /// One Euler or RK4 substep. Each stage's input is the committed state
  /// plus StageShift(stage) times the previous stage's slopes; `derive`
  /// evaluates it, and the watchdog notes the call. When the watchdog
  /// aborts at stage k, the later stages and the commit are skipped. Each
  /// raw end-of-substep state goes to `on_raw(species, raw)` before the
  /// clamp commits it.
  template <class Derive, class OnRaw>
  void Substep(const Derive& derive, const OnRaw& on_raw) {
    const std::size_t n = num_species_;
    double* k0 = k_.data();
    // A loop, not std::copy_n: at a handful of species the memmove call
    // costs more than the copy.
    for (std::size_t i = 0; i < n; ++i) vars_[i] = states_[i];
    derive(std::size_t{0}, vars_.data(), k0);
    if (!NoteStage(k0)) return;
    if (!rk4_) {
      Commit([&](std::size_t i) { return states_[i] + dt_ * k0[i]; }, on_raw);
      return;
    }
    for (std::size_t stage = 1; stage < 4; ++stage) {
      double* k = &k_[stage * n];
      const double* k_prev = k - n;
      const double shift = StageShift(stage);
      for (std::size_t i = 0; i < n; ++i) {
        vars_[i] = states_[i] + shift * k_prev[i];
      }
      derive(stage, vars_.data(), k);
      if (!NoteStage(k)) return;
    }
    const double* k1 = k0 + n;
    const double* k2 = k1 + n;
    const double* k3 = k2 + n;
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

  /// The substeps of a live day. Kept out of AdvanceDay so its penalty-day
  /// exit stays a few instructions, which also skips the runner's per-day
  /// Hold on penalty days.
  void StepDay(const RiverDataset& dataset, std::size_t t,
               const DerivativeRunner& runner) {
    LoadDrivers(dataset, t, num_species_, vars_.data());
    runner.Hold(vars_.data());
    const auto derive = [&runner](std::size_t, const double* variables,
                                  double* slopes) {
      runner.Derivatives(variables, slopes);
    };
    for (int step = 0; step < config_.substeps; ++step) {
      if (watchdog_.aborted() || !watchdog_.ChargeSubstep(config_)) break;
      Substep(derive, [](std::size_t, double) {});
    }
  }

  /// Watchdog bookkeeping of one derivative call: notes whether every
  /// output is finite. False once the watchdog aborted.
  bool NoteStage(const double* k) {
    bool all_finite = true;
    for (std::size_t s = 0; s < num_species_; ++s) {
      all_finite = all_finite && std::isfinite(k[s]);
    }
    watchdog_.NoteDerivatives(all_finite, config_);
    return !watchdog_.aborted();
  }

  /// Clamps and commits the raw end-of-substep states, raw_of(species),
  /// tracking ceiling saturations (ORed across species) on the watchdog.
  /// Each raw state reads only its own slots, so it commits in the same
  /// pass.
  template <class RawOf, class OnRaw>
  void Commit(const RawOf& raw_of, const OnRaw& on_raw) {
    bool saturated = false;
    for (std::size_t s = 0; s < num_species_; ++s) {
      const double raw = raw_of(s);
      on_raw(s, raw);
      states_[s] = ClampState(raw, config_, &saturated);
    }
    watchdog_.NoteCommit(saturated, config_);
  }

  SimulationConfig config_;
  std::size_t num_species_;
  bool rk4_;
  double dt_;
  LaneWatchdog watchdog_;
  std::vector<double> states_;
  std::vector<double> vars_;
  /// Stage slopes, [stage * num_species + species].
  std::vector<double> k_;
};

}  // namespace gmr::river

#endif  // GMR_RIVER_STEPPER_H_
