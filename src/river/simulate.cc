#include "river/simulate.h"

#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "common/check.h"
#include "river/parameters.h"
#include "river/stepper.h"
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

JitSymbols::JitSymbols(const std::vector<expr::ExprPtr>& equations,
                       const SimulationConfig& config) {
  if (config.compiled_backend != CompiledBackend::kBatchJit) return;
  expr::BatchJitSession* session = config.batch_jit_session != nullptr
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

namespace {

/// One rollout: the derivative runner over the caller's parameter vector
/// (not copied; it must outlive the rollout) and the stepper driving it.
class Rollout {
 public:
  Rollout(const std::vector<expr::ExprPtr>& equations,
          const std::vector<double>& parameters, bool compiled,
          const RiverDataset* dataset,
          const std::vector<double>& initial_state,
          const SimulationConfig& config)
      : runner_(equations, parameters.data(), parameters.size(), compiled,
                config),
        stepper_(initial_state, config),
        dataset_(dataset) {
    GMR_CHECK_EQ(equations.size(), initial_state.size());
  }

  /// Integrates day `t`; read the end-of-day states through
  /// StateOrPenalty.
  void AdvanceDay(std::size_t t) {
    stepper_.AdvanceDay(*dataset_, t, runner_);
  }

  double StateOrPenalty(std::size_t species) const {
    return stepper_.StateOrPenalty(species);
  }

  EvalOutcome outcome() const {
    return stepper_.watchdog().outcome(runner_.jit_fallback());
  }

  void FillReport(SimulationReport* report) const {
    stepper_.watchdog().FillReport(runner_.jit_fallback(), report);
  }

 private:
  DerivativeRunner runner_;
  LaneStepper stepper_;
  const RiverDataset* dataset_;
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
        rollout_(equations, parameters_, compiled, dataset, initial_state,
                 config),
        dataset_(dataset),
        observations_(std::move(observations)),
        t_(t_begin),
        t_end_(t_end) {}

  bool Step() override {
    GMR_CHECK_LT(t_, t_end_);
    rollout_.AdvanceDay(t_);
    for (const ObservationBinding& binding : observations_) {
      const double predicted = rollout_.StateOrPenalty(binding.species);
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

  EvalOutcome outcome() const override { return rollout_.outcome(); }

 private:
  // Owns a copy so the runner's pointer stays valid for the lifetime of the
  // evaluation regardless of caller storage.
  std::vector<double> parameters_;
  Rollout rollout_;
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
  Rollout rollout(equations, parameters, compiled, &dataset, initial_state,
                  config);
  SimulationTrajectory trajectory;
  trajectory.series.resize(constituents.size());
  for (auto& series : trajectory.series) series.reserve(t_end - t_begin);
  for (std::size_t t = t_begin; t < t_end; ++t) {
    rollout.AdvanceDay(t);
    for (std::size_t s = 0; s < constituents.size(); ++s) {
      trajectory.series[s].push_back(rollout.StateOrPenalty(s));
    }
  }
  if (report != nullptr) rollout.FillReport(report);
  return trajectory;
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
