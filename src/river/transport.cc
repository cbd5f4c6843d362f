#include "river/transport.h"

#include <cmath>
#include <limits>
#include <string>

#include "common/check.h"
#include "common/fault_injection.h"
#include "expr/batch_vm.h"
#include "river/variables.h"

namespace gmr::river {

const char* AdvectionSchemeName(AdvectionScheme scheme) {
  switch (scheme) {
    case AdvectionScheme::kUpwind:
      return "upwind";
    case AdvectionScheme::kQuick:
      return "quick";
  }
  return "unknown";
}

ConfigError ValidateChannel(const ChannelConfig& channel,
                            const ConstituentSet& constituents) {
  if (channel.num_cells < 1) {
    return ConfigError::Error(ConfigErrorCode::kSpeciesCountMismatch,
                              "channel needs at least one cell");
  }
  if (!(channel.dx > 0.0) || !(channel.velocity >= 0.0) ||
      !(channel.dispersion >= 0.0)) {
    return ConfigError::Error(
        ConfigErrorCode::kBadInitialState,
        "channel geometry must satisfy dx > 0, velocity >= 0, "
        "dispersion >= 0");
  }
  if (!channel.inflow.empty() &&
      channel.inflow.size() != constituents.size()) {
    return ConfigError::Error(
        ConfigErrorCode::kSpeciesCountMismatch,
        "channel inflow declares " + std::to_string(channel.inflow.size()) +
            " species but constituent set '" + constituents.preset() +
            "' declares " + std::to_string(constituents.size()));
  }
  return ConfigError::Ok();
}

namespace {

/// Advective flux through interface `i` (between cell i-1 and cell i;
/// i == 0 is the inlet face, i == n is the outlet face) for a non-negative
/// velocity. `c_in` is the upstream Dirichlet concentration.
double AdvectiveFlux(const double* c, int n, int i, double u, double c_in,
                     AdvectionScheme scheme) {
  if (u == 0.0) return 0.0;
  if (i == 0) return u * c_in;       // Inlet: upstream value is the boundary.
  if (i == n) return u * c[n - 1];   // Outlet: pure upwind outflow.
  if (scheme == AdvectionScheme::kQuick && i >= 2) {
    // Full quadratic upstream stencil {i-2, i-1, i}: 6/8 of the upwind
    // cell, 3/8 of the downwind cell, minus 1/8 of the far-upwind cell.
    return u * (0.75 * c[i - 1] + 0.375 * c[i] - 0.125 * c[i - 2]);
  }
  return u * c[i - 1];  // Upwind (and the QUICK boundary fallback).
}

}  // namespace

ChannelResult SimulateChannel(const std::vector<expr::ExprPtr>& equations,
                              const std::vector<double>& parameters,
                              const RiverDataset& dataset,
                              std::size_t t_begin, std::size_t t_end,
                              const ConstituentSet& constituents,
                              const SimulationConfig& config,
                              const ChannelConfig& channel) {
  GMR_CHECK_LE(t_end, dataset.num_days);
  GMR_CHECK_LE(t_begin, t_end);
  ConfigError err = ValidateSimulation(config, constituents, equations.size());
  GMR_CHECK_MSG(err.ok(), err.message.c_str());
  err = ValidateChannel(channel, constituents);
  GMR_CHECK_MSG(err.ok(), err.message.c_str());

  const std::size_t num_species = constituents.size();
  const std::size_t width = static_cast<std::size_t>(channel.num_cells);
  const int n = channel.num_cells;
  const std::size_t num_variables =
      num_species + static_cast<std::size_t>(kNumDriverVariables);

  ChannelResult result;
  result.final_state = MassBalanceStore(num_species, width);
  result.budgets.assign(num_species, ChannelMassBudget{});
  result.outlet.assign(num_species, {});
  for (auto& series : result.outlet) series.reserve(t_end - t_begin);

  // Every cell starts at the registry's initial state (a spun-up uniform
  // reach); the inflow holds it at the upstream face unless overridden.
  const std::vector<double> initial = constituents.InitialStates();
  std::vector<double> inflow =
      channel.inflow.empty() ? initial : channel.inflow;
  MassBalanceStore& cells = result.final_state;
  cells.Fill(initial);
  for (std::size_t s = 0; s < num_species; ++s) {
    result.budgets[s].initial =
        static_cast<double>(width) * initial[s] * channel.dx;
  }

  // Candidate processes run in every cell at once: cells are the lanes of
  // the batched expression backend, vars_[slot * width + cell].
  const expr::BatchProgram program = expr::CompileBatch(
      equations, expr::TapeLayout{num_variables, parameters.size()});
  std::vector<double> params(parameters.size() * width);
  for (std::size_t s = 0; s < parameters.size(); ++s) {
    for (std::size_t l = 0; l < width; ++l) {
      params[s * width + l] = parameters[s];
    }
  }
  std::vector<double> vars(num_variables * width, 0.0);
  std::vector<double> reaction(num_species * width, 0.0);
  std::vector<double> flux(static_cast<std::size_t>(n) + 1, 0.0);

  SimulationReport& report = result.report;
  bool aborted = false;
  std::size_t consecutive_saturated = 0;
  const double dt = 1.0 / static_cast<double>(config.substeps);
  const double u = channel.velocity;
  const double diff = channel.dispersion;

  auto abort_with = [&](EvalOutcome outcome) {
    aborted = true;
    report.aborted = true;
    report.outcome = outcome;
    report.days_before_abort = report.days_simulated - 1;
  };

  for (std::size_t t = t_begin; t < t_end && !aborted; ++t) {
    ++report.days_simulated;
    for (int k = 0; k < kNumDriverVariables; ++k) {
      const double v = dataset.drivers[static_cast<std::size_t>(kVlgt + k)][t];
      double* row = &vars[(num_species + static_cast<std::size_t>(k)) * width];
      for (std::size_t l = 0; l < width; ++l) row[l] = v;
    }
    for (int step = 0; step < config.substeps && !aborted; ++step) {
      if (config.substep_budget > 0 &&
          report.substeps_used >= config.substep_budget) {
        abort_with(EvalOutcome::kBudgetExceeded);
        break;
      }
      ++report.substeps_used;
      // Reaction: evaluate every process in every cell.
      for (std::size_t s = 0; s < num_species; ++s) {
        double* row = &vars[s * width];
        const double* state = cells.row(s);
        for (std::size_t l = 0; l < width; ++l) row[l] = state[l];
      }
      if (FaultInjected(FaultPoint::kDerivativeNan)) {
        for (double& r : reaction) r = std::numeric_limits<double>::quiet_NaN();
      } else {
        expr::BatchEvalContext ctx;
        ctx.variables = vars.data();
        ctx.num_variables = num_variables;
        ctx.parameters = params.data();
        ctx.num_parameters = parameters.size();
        ctx.width = width;
        program.RunLanes(ctx, reaction.data());
      }
      bool all_finite = true;
      for (const double r : reaction) {
        all_finite = all_finite && std::isfinite(r);
      }
      if (!all_finite) {
        ++report.nonfinite_derivatives;
        if (config.max_nonfinite_derivatives > 0 &&
            report.nonfinite_derivatives >=
                static_cast<std::size_t>(config.max_nonfinite_derivatives)) {
          abort_with(EvalOutcome::kNonFiniteDerivative);
          break;
        }
        // Skip the commit. The station integrator commits the clamped
        // state here, but a NaN raw state would make clamp_correction NaN
        // and break the mass-budget identity.
        continue;
      }
      bool saturated = false;
      for (std::size_t s = 0; s < num_species; ++s) {
        double* c = cells.row(s);
        // Total flux through the n+1 interfaces, from pre-update states:
        // advection everywhere plus Fickian exchange across the n-1
        // interior interfaces (the boundaries are closed to diffusion, so
        // the budget only sees advective boundary mass). Strict flux form
        // makes the interior terms antisymmetric and the conservation
        // identity telescope exactly for every scheme.
        for (int i = 0; i <= n; ++i) {
          double f = AdvectiveFlux(c, n, i, u, inflow[s], channel.scheme);
          if (i > 0 && i < n) f -= diff * (c[i] - c[i - 1]) / channel.dx;
          flux[static_cast<std::size_t>(i)] = f;
        }
        // Budgets accumulate per committed substep, so state and accounting
        // stay in lockstep and the conservation identity holds exactly even
        // when a watchdog aborts the reach mid-day.
        result.budgets[s].inflow += dt * flux[0];
        result.budgets[s].outflow += dt * flux[static_cast<std::size_t>(n)];
        const double* k_row = &reaction[s * width];
        for (int i = 0; i < n; ++i) {
          const double dc = (flux[static_cast<std::size_t>(i)] -
                             flux[static_cast<std::size_t>(i) + 1]) /
                                channel.dx +
                            k_row[i];
          result.budgets[s].reaction += dt * k_row[i] * channel.dx;
          const double raw = c[i] + dt * dc;
          const double clamped = ClampState(raw, config, &saturated);
          result.budgets[s].clamp_correction += (clamped - raw) * channel.dx;
          c[i] = clamped;
        }
      }
      if (saturated) {
        ++report.clamp_saturations;
        ++consecutive_saturated;
        if (config.max_saturated_substeps > 0 &&
            consecutive_saturated >=
                static_cast<std::size_t>(config.max_saturated_substeps)) {
          abort_with(EvalOutcome::kClampSaturated);
        }
      } else {
        consecutive_saturated = 0;
      }
    }
    if (aborted) break;
    for (std::size_t s = 0; s < num_species; ++s) {
      result.outlet[s].push_back(cells.at(s, width - 1));
    }
  }
  if (!aborted) report.days_before_abort = report.days_simulated;
  // Remaining outlet samples after an abort predict the penalty value, the
  // same containment contract as the station rollouts.
  for (std::size_t s = 0; s < num_species; ++s) {
    while (result.outlet[s].size() < t_end - t_begin) {
      result.outlet[s].push_back(config.state_max);
    }
    double total = 0.0;
    const double* c = cells.row(s);
    for (std::size_t l = 0; l < width; ++l) total += c[l] * channel.dx;
    result.budgets[s].final_mass = total;
  }
  return result;
}

}  // namespace gmr::river
