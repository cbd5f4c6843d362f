#include "grad/adjoint.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <new>
#include <unordered_map>
#include <utility>

#include "analysis/activity.h"
#include "common/check.h"
#include "common/fault_injection.h"
#include "river/stepper.h"
#include "river/variables.h"

namespace gmr::grad {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Activity bits of slots [0, count) (slot >= 63 shares the sticky bit, so
/// large layouts stay conservative).
std::uint64_t WantedMask(std::size_t count) {
  std::uint64_t mask = 0;
  for (std::size_t slot = 0; slot < count && slot <= 63; ++slot) {
    mask |= analysis::ActivityBit(static_cast<int>(slot));
  }
  return mask;
}

}  // namespace

GradientProgram::GradientProgram(std::span<const expr::Expr* const> roots,
                                 const expr::TapeLayout& layout,
                                 const analysis::DomainEnv* prune_env) {
  if (FaultInjected(FaultPoint::kTapeAlloc)) throw std::bad_alloc();
  std::vector<const expr::Expr*> sources;
  program_ = expr::CompiledProgram(
      expr::Flatten(roots, layout, prune_env != nullptr ? &sources : nullptr));
  const expr::Tape& t = tape();
  live_.assign(t.num_registers(), 1);
  for (std::size_t r = layout.num_states; r < layout.num_variables; ++r) {
    live_[r] = 0;  // drivers
  }
  for (std::size_t r = t.constant_base(); r < t.temporary_base(); ++r) {
    live_[r] = 0;  // constants
  }
  if (prune_env == nullptr) return;
  // An instruction is live unless its source's activity over the env is
  // independent of every parameter and state. Sources shared by pointer
  // are analyzed once; programs are built once per gradient (not per time
  // step), so the nested queries are off the hot path.
  const std::uint64_t wanted_parameters = WantedMask(layout.num_parameters);
  const std::uint64_t wanted_states = WantedMask(layout.num_states);
  std::unordered_map<const expr::Expr*, bool> memo;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    auto [it, inserted] = memo.try_emplace(sources[i], true);
    if (inserted) {
      const analysis::Activity activity =
          analysis::AnalyzeActivity(*sources[i], *prune_env);
      it->second = (activity.parameters & wanted_parameters) != 0 ||
                   (activity.variables & wanted_states) != 0;
    }
    if (!it->second) {
      live_[t.temporary_base() + i] = 0;
      ++pruned_;
    }
  }
}

void GradientProgram::Seed(std::size_t root, double seed,
                           double* cotangents) const {
  const std::uint32_t reg = tape().outputs[root];
  if (live_[reg] == 0) return;
  if (FaultInjected(FaultPoint::kAdjointNan)) seed = kNan;
  cotangents[reg] += seed;
}

void GradientProgram::Reverse(std::size_t begin, std::size_t end,
                              const double* values,
                              double* cotangents) const {
  const std::uint8_t* live = live_.data();
  const auto push = [live, cotangents](std::uint32_t reg, double dw) {
    if (live[reg] != 0) cotangents[reg] += dw;
  };
  const expr::TapeInstruction* ops = tape().ops.data();
  for (std::size_t i = end; i-- > begin;) {
    const expr::TapeInstruction& ins = ops[i];
    // A dead instruction's register never takes a cotangent, so the zero
    // test skips it too.
    const double w = cotangents[ins.dst];
    if (w == 0.0) continue;
    switch (ins.op) {
      case expr::NodeKind::kAdd:
        push(ins.a, w);
        push(ins.b, w);
        break;
      case expr::NodeKind::kSub:
        push(ins.a, w);
        push(ins.b, -w);
        break;
      case expr::NodeKind::kNeg:
        push(ins.a, -w);
        break;
      case expr::NodeKind::kMul:
        push(ins.a, w * values[ins.b]);
        push(ins.b, w * values[ins.a]);
        break;
      case expr::NodeKind::kDiv: {
        const double b = values[ins.b];
        const double m = b < 0.0 ? -b : b;
        // Inside the protection band the kernel is the constant 1.
        if (m < expr::kDivEpsilon) break;
        push(ins.a, w / b);
        push(ins.b, -w * values[ins.a] / (b * b));
        break;
      }
      case expr::NodeKind::kMin:
        // Route to the branch the value kernel selected (`a < b ? a : b`,
        // so ties and NaN comparisons fall to the right operand).
        push(values[ins.a] < values[ins.b] ? ins.a : ins.b, w);
        break;
      case expr::NodeKind::kMax:
        push(values[ins.a] > values[ins.b] ? ins.a : ins.b, w);
        break;
      case expr::NodeKind::kLog: {
        const double a = values[ins.a];
        const double m = a < 0.0 ? -a : a;
        // Inside the zero band the kernel is the constant 0; outside,
        // d log|a| / da = 1/a on both signs.
        if (m < expr::kLogEpsilon) break;
        push(ins.a, w / a);
        break;
      }
      case expr::NodeKind::kExp: {
        const double a = values[ins.a];
        // A clamped argument is flat; otherwise d exp(a)/da is the
        // instruction's own forward value.
        if (a > expr::kExpArgClamp || a < -expr::kExpArgClamp) break;
        push(ins.a, w * values[ins.dst]);
        break;
      }
      case expr::NodeKind::kConstant:
      case expr::NodeKind::kParameter:
      case expr::NodeKind::kVariable:
        break;
    }
  }
}

ExprGradient Differentiate(const GradientProgram& gradient,
                           const expr::EvalContext& ctx) {
  const expr::Tape& tape = gradient.tape();
  const expr::TapeLayout& layout = tape.layout;
  ExprGradient out;
  out.value = gradient.program().Run(ctx);
  const double* values = gradient.program().registers();
  std::vector<double> cotangents(tape.num_registers(), 0.0);
  gradient.Seed(0, 1.0, cotangents.data());
  gradient.Reverse(0, tape.size(), values, cotangents.data());
  const auto region = [&cotangents](std::size_t begin, std::size_t count) {
    const auto first = cotangents.begin() + static_cast<std::ptrdiff_t>(begin);
    return std::vector<double>(first,
                               first + static_cast<std::ptrdiff_t>(count));
  };
  out.parameters = region(layout.num_variables, layout.num_parameters);
  out.states = region(0, layout.num_states);
  for (std::size_t r = tape.temporary_base(); r < tape.num_registers(); ++r) {
    if (cotangents[r] != 0.0) {
      out.rounding += std::abs(cotangents[r] * values[r]);
    }
  }
  return out;
}

namespace {

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

/// Sound pruning env for the rollout: parameters pinned to θ (the program is
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
/// and the program's register file after each stage.
struct SubstepRecord {
  std::vector<double> raw;
  std::vector<std::vector<double>> stage_registers;
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
  const std::size_t steps = t_end - t_begin;
  result.gradient.assign(parameters.size(), 0.0);

  // Forward sweep: the compiled rollout, the same staged VM the fitness
  // evaluator runs, whose trajectory doubles as the begin-of-day state
  // checkpoints of the reverse sweep.
  const river::SimulationTrajectory trajectory = river::Simulate(
      equations, parameters, dataset, t_begin, t_end, constituents,
      initial_state, config, /*compiled=*/true, &result.report);
  const std::vector<river::ObservationBinding> bindings =
      river::BindObservations(constituents);
  result.rmse = TrajectoryRmse(trajectory, dataset, t_begin, steps, bindings);
  if (steps == 0) {
    result.gradient_valid = true;
    return result;
  }

  // The forward rollout's program (same layout, same tape), activity-pruned
  // over the rollout env.
  analysis::DomainEnv env;
  if (prune) {
    env = RolloutEnv(parameters, dataset, t_begin, t_end, num_species,
                     config);
  }
  std::vector<const expr::Expr*> roots;
  for (const expr::ExprPtr& eq : equations) roots.push_back(eq.get());
  const expr::TapeLayout layout =
      river::RolloutLayout(num_species, parameters.size());
  std::unique_ptr<const GradientProgram> gradient;
  try {
    gradient = std::make_unique<const GradientProgram>(
        roots, layout, prune ? &env : nullptr);
  } catch (const std::bad_alloc&) {
    // `tape_alloc` fault or a genuine allocation failure: the value is
    // still good; the gradient is not. Consumers degrade.
    return result;
  }
  const expr::Tape& tape = gradient->tape();
  const expr::CompiledProgram& program = gradient->program();
  result.tape_nodes = tape.size();
  result.pruned_nodes = gradient->pruned();

  // Days at or after the abort point predict the constant penalty state:
  // zero gradient by construction, so the reverse sweep skips them.
  const std::size_t good_days =
      result.report.aborted ? result.report.days_before_abort : steps;
  if (result.rmse == 0.0) {
    // RMSE is non-differentiable at exactly 0; report the zero subgradient.
    result.gradient_valid = true;
    return result;
  }

  // The replay steps through the rollout's own stepper on the program. The
  // forward watchdogs never tripped on the replayed days, so the replay
  // runs with them disabled.
  river::SimulationConfig replay_config = config;
  replay_config.max_nonfinite_derivatives = 0;
  replay_config.max_saturated_substeps = 0;
  replay_config.substep_budget = 0;
  river::LaneStepper replay(initial_state, replay_config);
  const std::size_t num_stages = replay.NumStages();
  const int substeps = config.substeps;
  const std::size_t num_registers = tape.num_registers();

  std::vector<SubstepRecord> records(static_cast<std::size_t>(substeps));
  for (SubstepRecord& record : records) {
    record.raw.assign(num_species, 0.0);
    record.stage_registers.assign(num_stages,
                                  std::vector<double>(num_registers, 0.0));
  }

  std::vector<double> lambda(num_species, 0.0);   // dSSE/d(end-of-day state)
  std::vector<double> lambda_raw(num_species, 0.0);
  std::vector<double> lambda_next(num_species, 0.0);
  std::vector<double> gk(num_stages * num_species, 0.0);
  std::vector<double> day_variables(layout.num_variables, 0.0);
  // One cotangent per register. The state and run registers' cotangents
  // live for one stage, the hold registers' for one day, the bind and
  // parameter registers' for the whole gradient.
  std::vector<double> cotangents(num_registers, 0.0);
  double* cot = cotangents.data();
  double* const hold_cot = cot + tape.temporary_base() + tape.hold_begin;
  double* const run_cot = cot + tape.temporary_base() + tape.run_begin;

  program.Bind(parameters.data(), parameters.size());
  for (std::size_t d = good_days; d-- > 0;) {
    // Seed with this day's residuals: d(SSE)/d(prediction) = 2 * error.
    for (const river::ObservationBinding& binding : bindings) {
      const double error =
          trajectory.series[binding.species][d] -
          dataset.ObservedSeries(binding.series)[t_begin + d];
      lambda[binding.species] += 2.0 * error;
    }
    // Recompute the day's substeps from the begin-of-day checkpoint,
    // recording the register file after every stage and every raw state.
    for (std::size_t s = 0; s < num_species; ++s) {
      replay.state(s) = d == 0 ? river::ClampState(initial_state[s], config)
                               : trajectory.series[s][d - 1];
    }
    river::LoadDrivers(dataset, t_begin + d, num_species,
                       day_variables.data());
    program.Hold(day_variables.data(), layout.num_variables);
    for (SubstepRecord& record : records) {
      replay.Substep(
          [&](std::size_t stage, const double* variables, double* slopes) {
            program.Run(variables, layout.num_variables, slopes);
            std::copy_n(program.registers(), num_registers,
                        record.stage_registers[stage].data());
          },
          [&](std::size_t species, double raw) { record.raw[species] = raw; });
    }
    // Reverse the substeps: through the commit clamp, the stage chain, and
    // the run segment of each stage.
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
        std::fill_n(cot, num_species, 0.0);
        std::fill(run_cot, cot + num_registers, 0.0);
        for (std::size_t e = 0; e < num_species; ++e) {
          const double seed = gk[stage * num_species + e];
          if (seed != 0.0) gradient->Seed(e, seed, cot);
        }
        gradient->Reverse(tape.run_begin, tape.size(),
                          record.stage_registers[stage].data(), cot);
        // Stage input x = state + StageShift * k_prev: the identity part
        // feeds the substep's state cotangent, the k_prev part the previous
        // stage's slope cotangent.
        for (std::size_t s = 0; s < num_species; ++s) lambda_next[s] += cot[s];
        if (stage > 0) {
          const double shift = replay.StageShift(stage);
          for (std::size_t s = 0; s < num_species; ++s) {
            gk[(stage - 1) * num_species + s] += shift * cot[s];
          }
        }
      }
      lambda = lambda_next;
    }
    // The day's held values were the same at every stage: reverse the hold
    // segment once, on the cotangents its stages summed.
    gradient->Reverse(tape.hold_begin, tape.run_begin, program.registers(),
                      cot);
    std::fill(hold_cot, run_cot, 0.0);
  }
  gradient->Reverse(0, tape.hold_begin, program.registers(), cot);

  // dRMSE/dθ = dSSE/dθ / (2 * RMSE * days * observations); the parameter
  // registers hold dSSE/dθ.
  const double* param_adjoint = cot + layout.num_variables;
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
  if (stats != nullptr) stats->tape_nodes = result.tape_nodes;
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
    const river::SimulationTrajectory trajectory = river::Simulate(
        problem->equations, x, *problem->dataset, problem->t_begin,
        problem->t_end, problem->constituents, problem->initial_state,
        problem->config, /*compiled=*/true);
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
