#include "grad/adjoint.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <new>
#include <utility>

#include "common/check.h"
#include "expr/eval.h"
#include "grad/tape.h"
#include "river/stepper.h"
#include "river/variables.h"

namespace gmr::grad {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// The forward rollout of both calibration objectives: the compiled
/// bytecode program, bit-identical to the interpreter (and so to the
/// reverse sweep's tape replay) and to the fitness evaluator's VM path.
/// The batch JIT is never used here: its ULP budget would break the
/// replay's bitwise agreement with the forward states.
river::SimulationTrajectory ForwardRollout(
    const std::vector<expr::ExprPtr>& equations,
    const std::vector<double>& parameters, const river::RiverDataset& dataset,
    std::size_t t_begin, std::size_t t_end,
    const river::ConstituentSet& constituents,
    const std::vector<double>& initial_state, river::SimulationConfig config,
    river::SimulationReport* report) {
  config.compiled_backend = river::CompiledBackend::kBytecodeVm;
  return river::Simulate(equations, parameters, dataset, t_begin, t_end,
                         constituents, initial_state, config,
                         /*compiled=*/true, report);
}

/// RMSE of a trajectory over its days and the bindings, summed in
/// RiverEvaluation's order (days outer, bindings inner) so it matches the
/// fitness evaluator bitwise.
double TrajectoryRmse(const river::SimulationTrajectory& trajectory,
                      const river::RiverDataset& dataset, std::size_t t_begin,
                      std::size_t steps,
                      const std::vector<river::ObservationBinding>& bindings) {
  if (steps == 0) return 0.0;
  double sse = 0.0;
  for (std::size_t d = 0; d < steps; ++d) {
    for (const river::ObservationBinding& binding : bindings) {
      const double error = trajectory.series[binding.species][d] -
                           dataset.ObservedSeries(binding.series)[t_begin + d];
      sse += error * error;
    }
  }
  return std::sqrt(sse / static_cast<double>(steps * bindings.size()));
}

/// Sound pruning env for the rollout: parameters pinned to θ (the tape is
/// rebuilt per gradient query), drivers spanning the window's data hull,
/// and states spanning the commit clamp (Euler feeds equations committed
/// states only) or unbounded with the NaN bit (RK4 stage inputs are
/// unclamped sums that can overflow or go NaN).
analysis::DomainEnv RolloutEnv(const std::vector<double>& parameters,
                               const river::RiverDataset& dataset,
                               std::size_t t_begin, std::size_t t_end,
                               std::size_t num_species,
                               const river::SimulationConfig& config) {
  analysis::DomainEnv env;
  analysis::Interval state_interval;
  if (config.method == river::IntegrationMethod::kEuler) {
    state_interval = analysis::Interval::Of(config.state_min,
                                            config.state_max);
  } else {
    state_interval = analysis::Interval::All();
    state_interval.maybe_nan = true;
  }
  env.variables.assign(num_species, state_interval);
  for (int k = 0; k < river::kNumDriverVariables; ++k) {
    const std::vector<double>& series =
        dataset.drivers[static_cast<std::size_t>(river::kVlgt + k)];
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    bool clean = t_begin < t_end;
    for (std::size_t t = t_begin; t < t_end && clean; ++t) {
      clean = std::isfinite(series[t]);
      lo = std::min(lo, series[t]);
      hi = std::max(hi, series[t]);
    }
    env.variables.push_back(clean ? analysis::Interval::Of(lo, hi)
                                  : analysis::Interval::All());
  }
  env.parameters.reserve(parameters.size());
  for (const double p : parameters) {
    env.parameters.push_back(analysis::Interval::Point(p));
  }
  return env;
}

/// Forward record of one replayed substep: the raw (pre-clamp) end state,
/// and per stage every tape's value buffer, concatenated at per-equation
/// offsets.
struct SubstepRecord {
  std::vector<double> raw;
  std::vector<std::vector<double>> stage_values;
};

}  // namespace

GradientResult RmseGradient(const std::vector<expr::ExprPtr>& equations,
                            const std::vector<double>& parameters,
                            const river::RiverDataset& dataset,
                            std::size_t t_begin, std::size_t t_end,
                            const river::ConstituentSet& constituents,
                            const std::vector<double>& initial_state,
                            const river::SimulationConfig& config,
                            bool prune) {
  GradientResult result;
  const std::size_t num_species = constituents.size();
  const std::size_t num_variables =
      num_species + static_cast<std::size_t>(river::kNumDriverVariables);
  const std::size_t steps = t_end - t_begin;
  result.gradient.assign(parameters.size(), 0.0);

  // Forward sweep: the compiled rollout, whose trajectory doubles as the
  // begin-of-day state checkpoints of the reverse sweep.
  const river::SimulationTrajectory trajectory =
      ForwardRollout(equations, parameters, dataset, t_begin, t_end,
                     constituents, initial_state, config, &result.report);
  const std::vector<river::ObservationBinding> bindings =
      river::BindObservations(constituents);
  result.rmse = TrajectoryRmse(trajectory, dataset, t_begin, steps, bindings);
  if (steps == 0) {
    result.gradient_valid = true;
    return result;
  }

  // One tape per equation, activity-pruned over the rollout env.
  analysis::DomainEnv env;
  if (prune) {
    env = RolloutEnv(parameters, dataset, t_begin, t_end, num_species,
                     config);
  }
  std::vector<Tape> tapes;
  tapes.reserve(equations.size());
  std::size_t max_tape = 0;
  std::vector<std::size_t> offsets;
  std::size_t total_nodes = 0;
  try {
    for (const expr::ExprPtr& eq : equations) {
      tapes.emplace_back(*eq, static_cast<int>(parameters.size()),
                         static_cast<int>(num_species),
                         prune ? &env : nullptr);
      offsets.push_back(total_nodes);
      total_nodes += tapes.back().size();
      max_tape = std::max(max_tape, tapes.back().size());
      result.tape_nodes += tapes.back().size();
      result.pruned_nodes += tapes.back().pruned_nodes();
    }
  } catch (const std::bad_alloc&) {
    // `tape_alloc` fault or a genuine allocation failure: the value is
    // still good; the gradient is not. Consumers degrade.
    result.gradient_valid = false;
    return result;
  }

  // Days at or after the abort point predict the constant penalty state:
  // zero gradient by construction, so the reverse sweep skips them.
  const std::size_t good_days =
      result.report.aborted ? result.report.days_before_abort : steps;
  if (result.rmse == 0.0) {
    // RMSE is non-differentiable at exactly 0; report the zero subgradient.
    result.gradient_valid = true;
    return result;
  }

  // The replay steps through the rollout's own stepper, with the
  // tapes as derivative source. The forward watchdogs never tripped on the
  // replayed days, so the replay runs with them disabled.
  river::SimulationConfig replay_config = config;
  replay_config.max_nonfinite_derivatives = 0;
  replay_config.max_saturated_substeps = 0;
  replay_config.substep_budget = 0;
  river::LaneStepper replay(initial_state, replay_config);
  const std::size_t num_stages = replay.NumStages();
  const int substeps = config.substeps;

  std::vector<SubstepRecord> records(static_cast<std::size_t>(substeps));
  for (SubstepRecord& record : records) {
    record.raw.assign(num_species, 0.0);
    record.stage_values.assign(num_stages,
                               std::vector<double>(total_nodes, 0.0));
  }

  std::vector<double> lambda(num_species, 0.0);   // dSSE/d(end-of-day state)
  std::vector<double> param_adjoint(parameters.size(), 0.0);
  std::vector<double> lambda_raw(num_species, 0.0);
  std::vector<double> lambda_next(num_species, 0.0);
  std::vector<double> stage_adjoint(num_species, 0.0);
  std::vector<double> gk(num_stages * num_species, 0.0);
  std::vector<double> cotangents(max_tape, 0.0);

  expr::EvalContext ctx;
  ctx.num_variables = num_variables;
  ctx.parameters = parameters.data();
  ctx.num_parameters = parameters.size();
  for (std::size_t d = good_days; d-- > 0;) {
    // Seed with this day's residuals: d(SSE)/d(prediction) = 2 * error.
    for (const river::ObservationBinding& binding : bindings) {
      const double error =
          trajectory.series[binding.species][d] -
          dataset.ObservedSeries(binding.series)[t_begin + d];
      lambda[binding.species] += 2.0 * error;
    }
    // Recompute the day's substeps from the begin-of-day checkpoint,
    // recording every stage's tape values and every raw state.
    for (std::size_t s = 0; s < num_species; ++s) {
      replay.state(s) = d == 0 ? river::ClampState(initial_state[s], config)
                               : trajectory.series[s][d - 1];
    }
    replay.LoadDrivers(dataset, t_begin + d);
    for (SubstepRecord& record : records) {
      replay.Substep(
          [&](std::size_t stage, const double* variables, double* slopes) {
            ctx.variables = variables;
            double* values = record.stage_values[stage].data();
            for (std::size_t e = 0; e < tapes.size(); ++e) {
              slopes[e] = tapes[e].Forward(ctx, values + offsets[e]);
            }
          },
          [&](std::size_t species, double raw) { record.raw[species] = raw; });
    }
    // Reverse the substeps: through the commit clamp, the stage chain, and
    // each equation's tape.
    for (int step = substeps; step-- > 0;) {
      const SubstepRecord& record = records[static_cast<std::size_t>(step)];
      for (std::size_t s = 0; s < num_species; ++s) {
        lambda_raw[s] =
            river::ClampPassesThrough(record.raw[s], config) ? lambda[s] : 0.0;
        lambda_next[s] = lambda_raw[s];  // raw = state + ... (identity term)
      }
      for (std::size_t stage = 0; stage < num_stages; ++stage) {
        const double weight = replay.StageWeight(stage);
        for (std::size_t s = 0; s < num_species; ++s) {
          gk[stage * num_species + s] = lambda_raw[s] * weight;
        }
      }
      for (std::size_t stage = num_stages; stage-- > 0;) {
        const std::vector<double>& values = record.stage_values[stage];
        std::fill(stage_adjoint.begin(), stage_adjoint.end(), 0.0);
        for (std::size_t e = 0; e < tapes.size(); ++e) {
          const double seed = gk[stage * num_species + e];
          if (seed == 0.0) continue;
          tapes[e].Reverse(values.data() + offsets[e], seed,
                           param_adjoint.data(), stage_adjoint.data(),
                           cotangents.data());
        }
        // Stage input x = state + StageShift * k_prev: the identity part
        // feeds the substep's state cotangent, the k_prev part the previous
        // stage's slope cotangent.
        for (std::size_t s = 0; s < num_species; ++s) {
          lambda_next[s] += stage_adjoint[s];
        }
        if (stage > 0) {
          const double shift = replay.StageShift(stage);
          for (std::size_t s = 0; s < num_species; ++s) {
            gk[(stage - 1) * num_species + s] += shift * stage_adjoint[s];
          }
        }
      }
      lambda = lambda_next;
    }
  }

  // dRMSE/dθ = dSSE/dθ / (2 * RMSE * days * observations).
  const double scale =
      1.0 / (2.0 * result.rmse * static_cast<double>(steps) *
             static_cast<double>(bindings.size()));
  bool valid = true;
  for (std::size_t i = 0; i < parameters.size(); ++i) {
    result.gradient[i] = param_adjoint[i] == 0.0 ? 0.0
                                                 : param_adjoint[i] * scale;
    valid = valid && std::isfinite(result.gradient[i]);
  }
  result.gradient_valid = valid;
  return result;
}

RiverGradientFitness::RiverGradientFitness(
    const river::RiverDataset* dataset, std::size_t t_begin,
    std::size_t t_end, river::ConstituentSet constituents,
    std::vector<double> initial_state, river::SimulationConfig config)
    : dataset_(dataset),
      t_begin_(t_begin),
      t_end_(t_end),
      constituents_(std::move(constituents)),
      initial_state_(std::move(initial_state)),
      config_(config) {
  GMR_CHECK(dataset_ != nullptr);
  config_.num_species = static_cast<int>(constituents_.size());
}

RiverGradientFitness RiverGradientFitness::ForTraining(
    const river::RiverDataset* dataset,
    const river::ConstituentSet& constituents,
    river::SimulationConfig config) {
  return RiverGradientFitness(dataset, 0, dataset->train_end, constituents,
                              constituents.InitialStates(), config);
}

bool RiverGradientFitness::EvaluateGradient(
    const std::vector<expr::ExprPtr>& equations,
    const std::vector<double>& parameters, double* value,
    std::vector<double>* gradient, GradientStats* stats) const {
  const GradientResult result =
      RmseGradient(equations, parameters, *dataset_, t_begin_, t_end_,
                   constituents_, initial_state_, config_);
  *value = result.rmse;
  *gradient = result.gradient;
  if (stats != nullptr) {
    stats->tape_nodes = result.tape_nodes;
    stats->pruned_nodes = result.pruned_nodes;
  }
  return result.gradient_valid;
}

namespace {

/// Shared capture of the calibration adapters.
struct RolloutProblem {
  std::vector<expr::ExprPtr> equations;
  const river::RiverDataset* dataset;
  std::size_t t_begin;
  std::size_t t_end;
  river::ConstituentSet constituents;
  std::vector<double> initial_state;
  river::SimulationConfig config;
  std::vector<river::ObservationBinding> bindings;
};

std::shared_ptr<RolloutProblem> MakeRolloutProblem(
    std::vector<expr::ExprPtr> equations, const river::RiverDataset* dataset,
    std::size_t t_begin, std::size_t t_end,
    river::ConstituentSet constituents, std::vector<double> initial_state,
    river::SimulationConfig config) {
  auto problem = std::make_shared<RolloutProblem>();
  problem->equations = std::move(equations);
  problem->dataset = dataset;
  problem->t_begin = t_begin;
  problem->t_end = t_end;
  problem->constituents = std::move(constituents);
  problem->initial_state = std::move(initial_state);
  problem->config = config;
  problem->config.num_species =
      static_cast<int>(problem->constituents.size());
  problem->bindings = river::BindObservations(problem->constituents);
  return problem;
}

}  // namespace

calibrate::Objective MakeRmseObjective(
    std::vector<expr::ExprPtr> equations, const river::RiverDataset* dataset,
    std::size_t t_begin, std::size_t t_end,
    river::ConstituentSet constituents, std::vector<double> initial_state,
    river::SimulationConfig config) {
  auto problem = MakeRolloutProblem(std::move(equations), dataset, t_begin,
                                    t_end, std::move(constituents),
                                    std::move(initial_state), config);
  return [problem](const std::vector<double>& x) {
    const river::SimulationTrajectory trajectory = ForwardRollout(
        problem->equations, x, *problem->dataset, problem->t_begin,
        problem->t_end, problem->constituents, problem->initial_state,
        problem->config, /*report=*/nullptr);
    return TrajectoryRmse(trajectory, *problem->dataset, problem->t_begin,
                          problem->t_end - problem->t_begin,
                          problem->bindings);
  };
}

calibrate::GradientObjective MakeRmseGradientObjective(
    std::vector<expr::ExprPtr> equations, const river::RiverDataset* dataset,
    std::size_t t_begin, std::size_t t_end,
    river::ConstituentSet constituents, std::vector<double> initial_state,
    river::SimulationConfig config) {
  auto problem = MakeRolloutProblem(std::move(equations), dataset, t_begin,
                                    t_end, std::move(constituents),
                                    std::move(initial_state), config);
  return [problem](const std::vector<double>& x, std::vector<double>* g) {
    const GradientResult result = RmseGradient(
        problem->equations, x, *problem->dataset, problem->t_begin,
        problem->t_end, problem->constituents, problem->initial_state,
        problem->config);
    if (result.gradient_valid) {
      *g = result.gradient;
    } else {
      g->assign(x.size(), kNan);
    }
    return result.rmse;
  };
}

}  // namespace gmr::grad
