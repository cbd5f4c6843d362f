#include "river/simulate.h"

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"
#include "expr/batch_vm.h"
#include "expr/compile.h"
#include "expr/eval.h"
#include "river/parameters.h"
#include "river/variables.h"

namespace gmr::river {

ConfigError ValidateSimulation(const SimulationConfig& config,
                               const ConstituentSet& constituents,
                               std::size_t num_equations) {
  ConfigError err = constituents.Validate();
  if (!err.ok()) return err;
  if (config.num_species < 1 ||
      static_cast<std::size_t>(config.num_species) != constituents.size()) {
    return ConfigError::Error(
        ConfigErrorCode::kSpeciesCountMismatch,
        "config.num_species=" + std::to_string(config.num_species) +
            " but constituent set '" + constituents.preset() + "' declares " +
            std::to_string(constituents.size()) + " species");
  }
  if (num_equations != constituents.size()) {
    return ConfigError::Error(
        ConfigErrorCode::kSpeciesCountMismatch,
        "phenotype has " + std::to_string(num_equations) +
            " process equations for " + std::to_string(constituents.size()) +
            " constituents");
  }
  if (config.substeps < 1) {
    return ConfigError::Error(
        ConfigErrorCode::kBadSubsteps,
        "config.substeps=" + std::to_string(config.substeps) +
            " but a day needs at least one substep");
  }
  if (!std::isfinite(config.state_min) || !std::isfinite(config.state_max) ||
      !(config.state_min < config.state_max)) {
    return ConfigError::Error(
        ConfigErrorCode::kBadStateBounds,
        "config.state_min=" + std::to_string(config.state_min) +
            " and config.state_max=" + std::to_string(config.state_max) +
            " do not bound a finite, non-empty interval");
  }
  if (config.max_nonfinite_derivatives < 0 ||
      config.max_saturated_substeps < 0) {
    return ConfigError::Error(
        ConfigErrorCode::kNegativeWatchdogLimit,
        "watchdog limits must be >= 0 (0 disables): "
        "max_nonfinite_derivatives=" +
            std::to_string(config.max_nonfinite_derivatives) +
            ", max_saturated_substeps=" +
            std::to_string(config.max_saturated_substeps));
  }
  return ConfigError::Ok();
}

ConfigError ValidateObservations(const ConstituentSet& constituents,
                                 const RiverDataset& dataset) {
  for (const Constituent& c : constituents.constituents()) {
    if (c.observed_series >= dataset.NumObservedSeries()) {
      return ConfigError::Error(
          ConfigErrorCode::kBadObservedSeries,
          "constituent " + c.name + " observes series " +
              std::to_string(c.observed_series) + " but the dataset has " +
              std::to_string(dataset.NumObservedSeries()));
    }
  }
  return ConfigError::Ok();
}

ConfigError ValidateBatchLanes(
    const std::vector<std::vector<double>>& parameter_lanes) {
  if (parameter_lanes.empty()) return ConfigError::Ok();
  const std::size_t n = parameter_lanes[0].size();
  for (std::size_t l = 1; l < parameter_lanes.size(); ++l) {
    if (parameter_lanes[l].size() != n) {
      return ConfigError::Error(
          ConfigErrorCode::kParameterLaneMismatch,
          "batch lane " + std::to_string(l) + " carries " +
              std::to_string(parameter_lanes[l].size()) +
              " parameters but lane 0 carries " + std::to_string(n));
    }
  }
  return ConfigError::Ok();
}

std::vector<ObservationBinding> BindObservations(
    const ConstituentSet& constituents) {
  std::vector<ObservationBinding> observations;
  for (std::size_t i = 0; i < constituents.size(); ++i) {
    const Constituent& c = constituents.at(i);
    if (c.observed_series >= 0) {
      observations.push_back(ObservationBinding{i, c.observed_series});
    }
  }
  // A problem with no mapped observation still needs a defined fitness;
  // fall back to the primary state against the primary series.
  if (observations.empty()) {
    observations.push_back(ObservationBinding{
        static_cast<std::size_t>(constituents.PrimaryObserved()), 0});
  }
  return observations;
}

namespace {

/// Under kBatchJit, the generation-JIT symbols of an equation system, one
/// per equation (empty under kBytecodeVm). Pure cache hits when the
/// evaluator's PrepareBatch already compiled this generation; a miss
/// compiles a (small) TU for these equations. A null symbol (compile
/// failure, open breaker) leaves its equation to the VM program.
class JitSymbols {
 public:
  JitSymbols() = default;
  JitSymbols(const std::vector<expr::ExprPtr>& equations,
             const SimulationConfig& config) {
    if (config.compiled_backend != CompiledBackend::kBatchJit) return;
    expr::BatchJitSession* session =
        config.batch_jit_session != nullptr
            ? config.batch_jit_session
            : expr::BatchJitSession::Default();
    std::vector<const expr::Expr*> roots;
    roots.reserve(equations.size());
    for (const auto& eq : equations) roots.push_back(eq.get());
    fns_ = session->CompileBatch(roots);
    for (const auto fn : fns_) {
      if (fn == nullptr) fallback_ = true;
    }
  }

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

/// Evaluates every derivative equation for a whole lane block per call
/// (one lane per parameter vector, SoA layout of batch_vm.h) through one
/// batch program for the whole system. Equation `e`'s outputs land at
/// derivatives[e * width + lane].
class BatchRunner {
 public:
  BatchRunner(const std::vector<expr::ExprPtr>& equations,
              const expr::TapeLayout& layout, const SimulationConfig& config)
      : program_(expr::CompileBatch(equations, layout)),
        jit_(equations, config) {}

  /// Fault-injected entry point of the batched rollout.
  void Derivatives(const expr::BatchEvalContext& ctx,
                   double* derivatives) const {
    if (FaultInjected(FaultPoint::kDerivativeNan)) {
      const std::size_t n = program_.num_outputs() * ctx.width;
      for (std::size_t i = 0; i < n; ++i) {
        derivatives[i] = std::numeric_limits<double>::quiet_NaN();
      }
      return;
    }
    if (jit_.NeedsProgram()) program_.RunLanes(ctx, derivatives);
    jit_.Override(ctx.variables, ctx.parameters, derivatives, ctx.width);
  }

  bool jit_fallback() const { return jit_.fallback(); }

 private:
  expr::BatchProgram program_;
  JitSymbols jit_;
};

/// Evaluates the per-constituent process derivatives (one equation per
/// state slot) of one scalar rollout: interpreted tree walking, or
/// "runtime compilation" — one register program for the whole equation
/// system with its parameter registers bound once per rollout, whose
/// outputs the batch-JIT symbols override at width 1 under kBatchJit.
class ProcessRunner {
 public:
  ProcessRunner(const std::vector<expr::ExprPtr>& equations,
                const std::vector<double>* parameters,
                std::size_t num_variables, bool compiled,
                const SimulationConfig& config)
      : equations_(equations), parameters_(parameters), compiled_(compiled) {
    GMR_CHECK(!equations_.empty());
    GMR_CHECK(parameters_ != nullptr);
    if (!compiled_) return;
    program_ = expr::Compile(
        equations_, expr::TapeLayout{num_variables, parameters_->size()});
    program_.Bind(parameters_->data(), parameters_->size());
    jit_ = JitSymbols(equations_, config);
  }

  /// Computes every constituent derivative for the given variable vector
  /// (layout of the problem's ConstituentSet, parameters bound at
  /// construction). `derivatives` has one slot per equation.
  void Derivatives(const double* variables, std::size_t num_variables,
                   double* derivatives) const {
    const std::size_t n = equations_.size();
    if (FaultInjected(FaultPoint::kDerivativeNan)) {
      for (std::size_t e = 0; e < n; ++e) {
        derivatives[e] = std::numeric_limits<double>::quiet_NaN();
      }
      return;
    }
    if (!compiled_) {
      expr::EvalContext ctx;
      ctx.variables = variables;
      ctx.num_variables = num_variables;
      ctx.parameters = parameters_->data();
      ctx.num_parameters = parameters_->size();
      for (std::size_t e = 0; e < n; ++e) {
        derivatives[e] = expr::EvalExpr(*equations_[e], ctx);
      }
      return;
    }
    if (jit_.NeedsProgram()) {
      program_.Run(variables, num_variables, derivatives);
    }
    // Lane 0 of the SoA layout is exactly the scalar layout.
    jit_.Override(variables, parameters_->data(), derivatives, 1);
  }

  /// True when any equation degraded from a JIT symbol to the VM program.
  bool jit_fallback() const { return jit_.fallback(); }

 private:
  std::vector<expr::ExprPtr> equations_;
  const std::vector<double>* parameters_;
  bool compiled_;
  expr::CompiledProgram program_;
  JitSymbols jit_;
};

/// Shared integration state for Simulate and RiverEvaluation over an
/// arbitrary constituent registry, including the divergence watchdogs.
/// Once a watchdog aborts the rollout, every remaining day predicts
/// config.state_max in O(1) — a deterministic penalty that keeps the
/// full-horizon RMSE comparable across candidates (and bit-identical
/// regardless of thread count) while skipping all further derivative
/// evaluations.
///
/// Variable layout: constituent states at slots [0, N), then the ten
/// Table IV drivers — so at N == 2 every index, every arithmetic operation,
/// and every watchdog decision is exactly the historical two-species
/// integrator (the bit-identity contract of the legacy preset).
class Integrator {
 public:
  Integrator(const std::vector<expr::ExprPtr>& equations,
             const std::vector<double>* parameters, bool compiled,
             const RiverDataset* dataset,
             const std::vector<double>& initial_state,
             const SimulationConfig& config)
      : runner_(equations, parameters,
                initial_state.size() +
                    static_cast<std::size_t>(kNumDriverVariables),
                compiled, config),
        dataset_(dataset),
        config_(config),
        num_species_(initial_state.size()),
        num_variables_(initial_state.size() +
                       static_cast<std::size_t>(kNumDriverVariables)),
        vars_(num_variables_, 0.0),
        d_(num_species_, 0.0),
        raw_(num_species_, 0.0),
        k_(4 * num_species_, 0.0) {
    GMR_CHECK_EQ(equations.size(), num_species_);
    state_.reserve(num_species_);
    for (std::size_t s = 0; s < num_species_; ++s) {
      state_.push_back(ClampState(initial_state[s], config));
    }
  }

  /// Integrates one day using the drivers of day `t`; read the end-of-day
  /// states through StateOrPenalty.
  void AdvanceDay(std::size_t t) {
    ++days_simulated_;
    if (aborted_) return;
    double* variables = vars_.data();
    for (int k = 0; k < kNumDriverVariables; ++k) {
      variables[num_species_ + static_cast<std::size_t>(k)] =
          dataset_->drivers[static_cast<std::size_t>(kVlgt + k)][t];
    }
    const double dt = 1.0 / static_cast<double>(config_.substeps);
    for (int step = 0; step < config_.substeps && !aborted_; ++step) {
      if (config_.substep_budget > 0 &&
          substeps_used_ >= config_.substep_budget) {
        Abort(EvalOutcome::kBudgetExceeded);
        break;
      }
      ++substeps_used_;
      if (config_.method == IntegrationMethod::kRk4) {
        Rk4Step(variables, dt);
      } else {
        EulerStep(variables, dt);
      }
    }
  }

  /// End-of-day state of one constituent, or the penalty value after a
  /// watchdog abort.
  double StateOrPenalty(std::size_t species) const {
    return aborted_ ? config_.state_max : state_[species];
  }

  EvalOutcome outcome() const {
    if (aborted_) return abort_outcome_;
    if (runner_.jit_fallback()) return EvalOutcome::kJitCompileFailed;
    return EvalOutcome::kOk;
  }

  bool aborted() const { return aborted_; }

  void FillReport(SimulationReport* report) const {
    report->outcome = outcome();
    report->aborted = aborted_;
    report->jit_fallback = runner_.jit_fallback();
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

  /// Watchdog bookkeeping for one Derivatives call: ONE increment per call
  /// when any output is non-finite (not one per species — the historical
  /// counting contract).
  void NoteDerivatives(const double* derivatives) {
    bool all_finite = true;
    for (std::size_t s = 0; s < num_species_; ++s) {
      all_finite = all_finite && std::isfinite(derivatives[s]);
    }
    if (all_finite) return;
    ++nonfinite_derivatives_;
    if (config_.max_nonfinite_derivatives > 0 &&
        nonfinite_derivatives_ >=
            static_cast<std::size_t>(config_.max_nonfinite_derivatives)) {
      Abort(EvalOutcome::kNonFiniteDerivative);
    }
  }

  /// Clamps and commits the end-of-substep state, tracking consecutive
  /// ceiling saturations (ORed across species) for the divergence watchdog.
  void CommitState(const double* raw) {
    bool saturated = false;
    for (std::size_t s = 0; s < num_species_; ++s) {
      state_[s] = ClampState(raw[s], config_, &saturated);
    }
    if (!saturated) {
      consecutive_saturated_ = 0;
      return;
    }
    ++clamp_saturations_;
    ++consecutive_saturated_;
    if (config_.max_saturated_substeps > 0 &&
        consecutive_saturated_ >=
            static_cast<std::size_t>(config_.max_saturated_substeps)) {
      Abort(EvalOutcome::kClampSaturated);
    }
  }

  void EulerStep(double* variables, double dt) {
    for (std::size_t s = 0; s < num_species_; ++s) variables[s] = state_[s];
    runner_.Derivatives(variables, num_variables_, d_.data());
    NoteDerivatives(d_.data());
    if (aborted_) return;
    for (std::size_t s = 0; s < num_species_; ++s) {
      raw_[s] = state_[s] + dt * d_[s];
    }
    CommitState(raw_.data());
  }

  void Rk4Step(double* variables, double dt) {
    const double offsets[4] = {0.0, 0.5, 0.5, 1.0};
    for (int stage = 0; stage < 4; ++stage) {
      const double o = offsets[stage];
      double* k = &k_[static_cast<std::size_t>(stage) * num_species_];
      const double* k_prev =
          stage == 0
              ? nullptr
              : &k_[static_cast<std::size_t>(stage - 1) * num_species_];
      for (std::size_t s = 0; s < num_species_; ++s) {
        variables[s] =
            o == 0.0 ? state_[s] : state_[s] + o * dt * k_prev[s];
      }
      runner_.Derivatives(variables, num_variables_, k);
      NoteDerivatives(k);
      if (aborted_) return;
    }
    for (std::size_t s = 0; s < num_species_; ++s) {
      raw_[s] = state_[s] +
                dt / 6.0 *
                    (k_[0 * num_species_ + s] + 2.0 * k_[1 * num_species_ + s] +
                     2.0 * k_[2 * num_species_ + s] + k_[3 * num_species_ + s]);
    }
    CommitState(raw_.data());
  }

  ProcessRunner runner_;
  const RiverDataset* dataset_;
  SimulationConfig config_;
  std::size_t num_species_;
  std::size_t num_variables_;
  std::vector<double> state_;
  std::vector<double> vars_;
  /// Scratch: one derivative per species (Euler), committed raw states, and
  /// the four RK stage slopes [stage * num_species + species].
  std::vector<double> d_;
  std::vector<double> raw_;
  std::vector<double> k_;

  bool aborted_ = false;
  EvalOutcome abort_outcome_ = EvalOutcome::kOk;
  std::size_t substeps_used_ = 0;
  std::size_t days_simulated_ = 0;
  std::size_t days_before_abort_ = 0;
  std::size_t nonfinite_derivatives_ = 0;
  std::size_t clamp_saturations_ = 0;
  std::size_t consecutive_saturated_ = 0;
};

/// Lane-parallel mirror of Integrator: the same watchdog state machine,
/// replicated per lane over SoA buffers whose lane blocks span
/// species x lanes (the MassBalanceStore layout). Every lane's trajectory,
/// counters, and abort behavior are bit-identical to running the scalar
/// Integrator on that lane's parameter vector alone (under an equivalent
/// backend): a lane that trips a watchdog is masked out of commits and
/// bookkeeping — its remaining days predict state_max — while its neighbors
/// keep integrating. Masked lanes still flow through the (branch-free)
/// derivative kernels; their outputs are simply ignored.
class BatchIntegrator {
 public:
  BatchIntegrator(const std::vector<expr::ExprPtr>& equations,
                  const std::vector<std::vector<double>>& parameter_lanes,
                  const RiverDataset* dataset,
                  const std::vector<double>& initial_state, int primary,
                  const SimulationConfig& config)
      : runner_(equations,
                expr::TapeLayout{
                    initial_state.size() +
                        static_cast<std::size_t>(kNumDriverVariables),
                    parameter_lanes.front().size()},
                config),
        dataset_(dataset),
        config_(config),
        width_(parameter_lanes.size()),
        num_species_(initial_state.size()),
        num_variables_(initial_state.size() +
                       static_cast<std::size_t>(kNumDriverVariables)),
        primary_(static_cast<std::size_t>(primary)),
        states_(initial_state.size(), parameter_lanes.size()) {
    GMR_CHECK_GT(width_, 0u);
    GMR_CHECK_EQ(equations.size(), num_species_);
    GMR_CHECK_LT(primary_, num_species_);
    num_parameters_ = parameter_lanes[0].size();
    params_.resize(num_parameters_ * width_);
    for (std::size_t l = 0; l < width_; ++l) {
      GMR_CHECK_EQ(parameter_lanes[l].size(), num_parameters_);
      for (std::size_t s = 0; s < num_parameters_; ++s) {
        params_[s * width_ + l] = parameter_lanes[l][s];
      }
    }
    for (std::size_t s = 0; s < num_species_; ++s) {
      const double v = ClampState(initial_state[s], config_);
      double* row = states_.row(s);
      for (std::size_t l = 0; l < width_; ++l) row[l] = v;
    }
    lanes_.assign(width_, Lane{});
    vars_.resize(num_variables_ * width_);
    k_.resize(4 * num_species_ * width_);
    raw_lane_.resize(num_species_);
    stage_live_.resize(width_);
  }

  /// Integrates one day for every lane; out[lane] is that lane's end-of-day
  /// primary observed constituent (or the penalty value once the lane has
  /// aborted).
  void AdvanceDay(std::size_t t, double* out) {
    bool all_aborted = true;
    for (Lane& lane : lanes_) {
      ++lane.days_simulated;
      all_aborted = all_aborted && lane.aborted;
    }
    if (!all_aborted) {
      for (int k = 0; k < kNumDriverVariables; ++k) {
        const double v =
            dataset_->drivers[static_cast<std::size_t>(kVlgt + k)][t];
        double* row =
            &vars_[(num_species_ + static_cast<std::size_t>(k)) * width_];
        for (std::size_t l = 0; l < width_; ++l) row[l] = v;
      }
      const double dt = 1.0 / static_cast<double>(config_.substeps);
      for (int step = 0; step < config_.substeps; ++step) {
        bool any_active = false;
        for (Lane& lane : lanes_) {
          if (lane.aborted) continue;
          if (config_.substep_budget > 0 &&
              lane.substeps_used >= config_.substep_budget) {
            AbortLane(lane, EvalOutcome::kBudgetExceeded);
            continue;
          }
          ++lane.substeps_used;
          any_active = true;
        }
        if (!any_active) break;
        if (config_.method == IntegrationMethod::kRk4) {
          Rk4Step(dt);
        } else {
          EulerStep(dt);
        }
      }
    }
    for (std::size_t l = 0; l < width_; ++l) {
      out[l] =
          lanes_[l].aborted ? config_.state_max : states_.at(primary_, l);
    }
  }

  /// End-of-day state of one constituent in one lane, or the penalty value
  /// after that lane's watchdog abort.
  double StateOrPenalty(std::size_t species, std::size_t lane) const {
    return lanes_[lane].aborted ? config_.state_max
                                : states_.at(species, lane);
  }

  void FillReport(std::size_t lane_index, SimulationReport* report) const {
    const Lane& lane = lanes_[lane_index];
    report->outcome = lane.aborted ? lane.abort_outcome
                      : runner_.jit_fallback()
                          ? EvalOutcome::kJitCompileFailed
                          : EvalOutcome::kOk;
    report->aborted = lane.aborted;
    report->jit_fallback = runner_.jit_fallback();
    report->substeps_used = lane.substeps_used;
    report->days_simulated = lane.days_simulated;
    report->days_before_abort =
        lane.aborted ? lane.days_before_abort : lane.days_simulated;
    report->nonfinite_derivatives = lane.nonfinite_derivatives;
    report->clamp_saturations = lane.clamp_saturations;
  }

 private:
  /// One lane's copy of the scalar Integrator's watchdog state machine
  /// (the states themselves live in the SoA MassBalanceStore).
  struct Lane {
    bool aborted = false;
    EvalOutcome abort_outcome = EvalOutcome::kOk;
    std::size_t substeps_used = 0;
    std::size_t days_simulated = 0;
    std::size_t days_before_abort = 0;
    std::size_t nonfinite_derivatives = 0;
    std::size_t clamp_saturations = 0;
    std::size_t consecutive_saturated = 0;
  };

  /// One batched derivative call over the current variable block.
  void Derive(double* k) const {
    expr::BatchEvalContext ctx;
    ctx.variables = vars_.data();
    ctx.num_variables = num_variables_;
    ctx.parameters = params_.data();
    ctx.num_parameters = num_parameters_;
    ctx.width = width_;
    runner_.Derivatives(ctx, k);
  }

  double* StageBlock(int stage) {
    return &k_[static_cast<std::size_t>(stage) * num_species_ * width_];
  }

  void AbortLane(Lane& lane, EvalOutcome outcome) {
    lane.aborted = true;
    lane.abort_outcome = outcome;
    lane.days_before_abort = lane.days_simulated - 1;
  }

  /// One increment per Derivatives call when any species' output for this
  /// lane is non-finite (the scalar counting contract).
  void NoteDerivatives(Lane& lane, std::size_t l, const double* k_block) {
    bool all_finite = true;
    for (std::size_t s = 0; s < num_species_; ++s) {
      all_finite = all_finite && std::isfinite(k_block[s * width_ + l]);
    }
    if (all_finite) return;
    ++lane.nonfinite_derivatives;
    if (config_.max_nonfinite_derivatives > 0 &&
        lane.nonfinite_derivatives >=
            static_cast<std::size_t>(config_.max_nonfinite_derivatives)) {
      AbortLane(lane, EvalOutcome::kNonFiniteDerivative);
    }
  }

  void CommitState(Lane& lane, std::size_t l, const double* raw) {
    bool saturated = false;
    for (std::size_t s = 0; s < num_species_; ++s) {
      states_.at(s, l) = ClampState(raw[s], config_, &saturated);
    }
    if (!saturated) {
      lane.consecutive_saturated = 0;
      return;
    }
    ++lane.clamp_saturations;
    ++lane.consecutive_saturated;
    if (config_.max_saturated_substeps > 0 &&
        lane.consecutive_saturated >=
            static_cast<std::size_t>(config_.max_saturated_substeps)) {
      AbortLane(lane, EvalOutcome::kClampSaturated);
    }
  }

  void EulerStep(double dt) {
    for (std::size_t s = 0; s < num_species_; ++s) {
      double* row = &vars_[s * width_];
      const double* state_row = states_.row(s);
      for (std::size_t l = 0; l < width_; ++l) row[l] = state_row[l];
    }
    double* k = StageBlock(0);
    Derive(k);
    for (std::size_t l = 0; l < width_; ++l) {
      Lane& lane = lanes_[l];
      if (lane.aborted) continue;
      NoteDerivatives(lane, l, k);
      if (lane.aborted) continue;
      for (std::size_t s = 0; s < num_species_; ++s) {
        raw_lane_[s] = states_.at(s, l) + dt * k[s * width_ + l];
      }
      CommitState(lane, l, raw_lane_.data());
    }
  }

  void Rk4Step(double dt) {
    const double offsets[4] = {0.0, 0.5, 0.5, 1.0};
    // A lane that aborts at stage k skips the later stages' bookkeeping and
    // the final commit — the batched image of the scalar early return.
    for (std::size_t l = 0; l < width_; ++l) {
      stage_live_[l] = lanes_[l].aborted ? 0 : 1;
    }
    for (int stage = 0; stage < 4; ++stage) {
      const double o = offsets[stage];
      double* k = StageBlock(stage);
      const double* k_prev = stage == 0 ? nullptr : StageBlock(stage - 1);
      for (std::size_t s = 0; s < num_species_; ++s) {
        double* var_row = &vars_[s * width_];
        const double* state_row = states_.row(s);
        const double* k_prev_row =
            k_prev == nullptr ? nullptr : k_prev + s * width_;
        for (std::size_t l = 0; l < width_; ++l) {
          var_row[l] = o == 0.0 ? state_row[l]
                                : state_row[l] + o * dt * k_prev_row[l];
        }
      }
      Derive(k);
      for (std::size_t l = 0; l < width_; ++l) {
        if (stage_live_[l] == 0) continue;
        NoteDerivatives(lanes_[l], l, k);
        if (lanes_[l].aborted) stage_live_[l] = 0;
      }
    }
    const double* k0 = StageBlock(0);
    const double* k1 = StageBlock(1);
    const double* k2 = StageBlock(2);
    const double* k3 = StageBlock(3);
    for (std::size_t l = 0; l < width_; ++l) {
      if (stage_live_[l] == 0) continue;
      Lane& lane = lanes_[l];
      for (std::size_t s = 0; s < num_species_; ++s) {
        raw_lane_[s] =
            states_.at(s, l) +
            dt / 6.0 *
                (k0[s * width_ + l] + 2.0 * k1[s * width_ + l] +
                 2.0 * k2[s * width_ + l] + k3[s * width_ + l]);
      }
      CommitState(lane, l, raw_lane_.data());
    }
  }

  BatchRunner runner_;
  const RiverDataset* dataset_;
  SimulationConfig config_;
  std::size_t width_;
  std::size_t num_species_;
  std::size_t num_variables_;
  std::size_t primary_;
  std::size_t num_parameters_ = 0;
  std::vector<Lane> lanes_;
  /// Species x lanes SoA state blocks.
  MassBalanceStore states_;
  /// SoA blocks: index [slot * width_ + lane].
  std::vector<double> params_;
  std::vector<double> vars_;
  /// RK stage slopes, [(stage * num_species + species) * width_ + lane];
  /// Euler uses stage 0 only.
  std::vector<double> k_;
  /// Per-lane raw-state scratch for CommitState.
  std::vector<double> raw_lane_;
  std::vector<char> stage_live_;
};

class RiverEvaluation : public gp::SequentialEvaluation {
 public:
  RiverEvaluation(const std::vector<expr::ExprPtr>& equations,
                  const std::vector<double>& parameters, bool compiled,
                  const RiverDataset* dataset, std::size_t t_begin,
                  std::size_t t_end,
                  const std::vector<double>& initial_state,
                  std::vector<ObservationBinding> observations,
                  const SimulationConfig& config)
      : parameters_(parameters),
        integrator_(equations, &parameters_, compiled, dataset,
                    initial_state, config),
        dataset_(dataset),
        observations_(std::move(observations)),
        t_(t_begin),
        t_end_(t_end) {}

  bool Step() override {
    GMR_CHECK_LT(t_, t_end_);
    integrator_.AdvanceDay(t_);
    for (const ObservationBinding& binding : observations_) {
      const double predicted = integrator_.StateOrPenalty(binding.species);
      const double observed = dataset_->ObservedSeries(binding.series)[t_];
      const double error = predicted - observed;
      sse_ += error * error;
    }
    ++steps_;
    ++t_;
    return t_ < t_end_;
  }

  double CurrentFitness() const override {
    if (steps_ == 0) return 0.0;
    // RMSE over days x observed constituents; with a single observed
    // series this is exactly the historical sqrt(sse / steps).
    return std::sqrt(
        sse_ / static_cast<double>(steps_ * observations_.size()));
  }

  std::size_t steps_taken() const override { return steps_; }

  EvalOutcome outcome() const override { return integrator_.outcome(); }

 private:
  // Owns a copy so the integrator's pointer stays valid for the lifetime of
  // the evaluation regardless of caller storage.
  std::vector<double> parameters_;
  Integrator integrator_;
  const RiverDataset* dataset_;
  std::vector<ObservationBinding> observations_;
  std::size_t t_;
  std::size_t t_end_;
  double sse_ = 0.0;
  std::size_t steps_ = 0;
};

}  // namespace

SimulationTrajectory Simulate(const std::vector<expr::ExprPtr>& equations,
                              const std::vector<double>& parameters,
                              const RiverDataset& dataset,
                              std::size_t t_begin, std::size_t t_end,
                              const ConstituentSet& constituents,
                              const std::vector<double>& initial_state,
                              const SimulationConfig& config, bool compiled,
                              SimulationReport* report) {
  GMR_CHECK_LE(t_end, dataset.num_days);
  GMR_CHECK_LE(t_begin, t_end);
  const ConfigError err =
      ValidateSimulation(config, constituents, equations.size());
  GMR_CHECK_MSG(err.ok(), err.message.c_str());
  GMR_CHECK_EQ(initial_state.size(), constituents.size());
  Integrator integrator(equations, &parameters, compiled, &dataset,
                        initial_state, config);
  SimulationTrajectory trajectory;
  trajectory.series.resize(constituents.size());
  for (auto& series : trajectory.series) series.reserve(t_end - t_begin);
  for (std::size_t t = t_begin; t < t_end; ++t) {
    integrator.AdvanceDay(t);
    for (std::size_t s = 0; s < constituents.size(); ++s) {
      trajectory.series[s].push_back(integrator.StateOrPenalty(s));
    }
  }
  if (report != nullptr) integrator.FillReport(report);
  return trajectory;
}

BatchSimulationResult BatchSimulate(
    const std::vector<expr::ExprPtr>& equations,
    const std::vector<std::vector<double>>& parameter_lanes,
    const RiverDataset& dataset, std::size_t t_begin, std::size_t t_end,
    const ConstituentSet& constituents,
    const std::vector<double>& initial_state,
    const SimulationConfig& config) {
  GMR_CHECK_LE(t_end, dataset.num_days);
  GMR_CHECK_LE(t_begin, t_end);
  ConfigError err = ValidateSimulation(config, constituents, equations.size());
  GMR_CHECK_MSG(err.ok(), err.message.c_str());
  err = ValidateBatchLanes(parameter_lanes);
  GMR_CHECK_MSG(err.ok(), err.message.c_str());
  GMR_CHECK_EQ(initial_state.size(), constituents.size());
  BatchSimulationResult result;
  result.width = parameter_lanes.size();
  result.num_species = constituents.size();
  result.predicted.resize(result.width);
  result.reports.resize(result.width);
  if (result.width == 0) return result;
  BatchIntegrator integrator(equations, parameter_lanes, &dataset,
                             initial_state, constituents.PrimaryObserved(),
                             config);
  std::vector<double> day(result.width, 0.0);
  for (auto& lane : result.predicted) lane.reserve(t_end - t_begin);
  for (std::size_t t = t_begin; t < t_end; ++t) {
    integrator.AdvanceDay(t, day.data());
    for (std::size_t l = 0; l < result.width; ++l) {
      result.predicted[l].push_back(day[l]);
    }
  }
  for (std::size_t l = 0; l < result.width; ++l) {
    integrator.FillReport(l, &result.reports[l]);
  }
  return result;
}

RiverFitness::RiverFitness(const RiverDataset* dataset, std::size_t t_begin,
                           std::size_t t_end, ConstituentSet constituents,
                           std::vector<double> initial_state,
                           SimulationConfig config)
    : dataset_(dataset),
      t_begin_(t_begin),
      t_end_(t_end),
      constituents_(std::move(constituents)),
      initial_state_(std::move(initial_state)),
      config_(config) {
  GMR_CHECK(dataset_ != nullptr);
  GMR_CHECK_LT(t_begin_, t_end_);
  GMR_CHECK_LE(t_end_, dataset_->num_days);
  ConfigError err =
      ValidateSimulation(config_, constituents_, constituents_.size());
  GMR_CHECK_MSG(err.ok(), err.message.c_str());
  err = ValidateObservations(constituents_, *dataset_);
  GMR_CHECK_MSG(err.ok(), err.message.c_str());
  GMR_CHECK_EQ(initial_state_.size(), constituents_.size());
}

RiverFitness RiverFitness::ForTraining(const RiverDataset* dataset,
                                       SimulationConfig config) {
  const double bphy = dataset->initial_bphy;
  const double bzoo = dataset->initial_bzoo;
  config.num_species = 2;
  return RiverFitness(dataset, 0, dataset->train_end,
                      ConstituentSet::LegacyPlankton(bphy, bzoo, bphy, bzoo),
                      {bphy, bzoo}, config);
}

RiverFitness RiverFitness::ForTest(const RiverDataset* dataset,
                                   SimulationConfig config) {
  const double bphy = dataset->test_initial_bphy;
  const double bzoo = dataset->test_initial_bzoo;
  config.num_species = 2;
  return RiverFitness(dataset, dataset->train_end, dataset->num_days,
                      ConstituentSet::LegacyPlankton(bphy, bzoo, bphy, bzoo),
                      {bphy, bzoo}, config);
}

RiverFitness RiverFitness::ForTrainingWith(const RiverDataset* dataset,
                                           const ConstituentSet& constituents,
                                           SimulationConfig config) {
  config.num_species = static_cast<int>(constituents.size());
  return RiverFitness(dataset, 0, dataset->train_end, constituents,
                      constituents.InitialStates(), config);
}

RiverFitness RiverFitness::ForTestWith(const RiverDataset* dataset,
                                       const ConstituentSet& constituents,
                                       SimulationConfig config) {
  config.num_species = static_cast<int>(constituents.size());
  return RiverFitness(dataset, dataset->train_end, dataset->num_days,
                      constituents, constituents.TestInitialStates(), config);
}

std::size_t RiverFitness::num_parameters() const {
  return constituents_.num_parameters();
}

bool RiverFitness::WantsBatchPreparation() const {
  return config_.compiled_backend == CompiledBackend::kBatchJit;
}

void RiverFitness::PrepareBatch(
    const std::vector<std::vector<expr::ExprPtr>>& phenotypes) const {
  expr::BatchJitSession* session =
      config_.batch_jit_session != nullptr ? config_.batch_jit_session
                                           : expr::BatchJitSession::Default();
  std::vector<const expr::Expr*> roots;
  roots.reserve(constituents_.size() * phenotypes.size());
  for (const auto& equations : phenotypes) {
    for (const auto& eq : equations) roots.push_back(eq.get());
  }
  if (!roots.empty()) session->CompileBatch(roots);
}

std::unique_ptr<gp::SequentialEvaluation> RiverFitness::Begin(
    const std::vector<expr::ExprPtr>& equations,
    const std::vector<double>& parameters,
    bool use_compiled_backend) const {
  const ConfigError err =
      ValidateSimulation(config_, constituents_, equations.size());
  GMR_CHECK_MSG(err.ok(), err.message.c_str());
  return std::make_unique<RiverEvaluation>(
      equations, parameters, use_compiled_backend, dataset_, t_begin_,
      t_end_, initial_state_, BindObservations(constituents_), config_);
}

}  // namespace gmr::river
