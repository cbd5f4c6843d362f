#include "river/transport.h"

#include <cmath>
#include <string>

#include "common/check.h"
#include "river/stepper.h"
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
                            const ConstituentSet& constituents,
                            const SimulationConfig& config) {
  if (channel.num_cells < 1) {
    return ConfigError::Error(ConfigErrorCode::kBadChannelConfig,
                              "channel needs at least one cell");
  }
  if (!(channel.dx > 0.0) || !std::isfinite(channel.dx) ||
      !(channel.velocity >= 0.0) || !std::isfinite(channel.velocity) ||
      !(channel.dispersion >= 0.0) || !std::isfinite(channel.dispersion)) {
    return ConfigError::Error(
        ConfigErrorCode::kBadChannelConfig,
        "channel geometry must be finite with dx > 0, velocity >= 0, "
        "dispersion >= 0");
  }
  if (config.method != IntegrationMethod::kEuler) {
    return ConfigError::Error(
        ConfigErrorCode::kBadChannelConfig,
        "the channel steps forward Euler only: its mass budget telescopes "
        "per Euler substep");
  }
  if (!channel.inflow.empty() &&
      channel.inflow.size() != constituents.size()) {
    return ConfigError::Error(
        ConfigErrorCode::kSpeciesCountMismatch,
        "channel inflow declares " + std::to_string(channel.inflow.size()) +
            " species but constituent set '" + constituents.preset() +
            "' declares " + std::to_string(constituents.size()));
  }
  for (const double c : channel.inflow) {
    if (!std::isfinite(c)) {
      return ConfigError::Error(ConfigErrorCode::kBadInitialState,
                                "channel inflow must be finite");
    }
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
  err = ValidateChannel(channel, constituents, config);
  GMR_CHECK_MSG(err.ok(), err.message.c_str());

  const std::size_t num_species = constituents.size();
  const std::size_t num_cells = static_cast<std::size_t>(channel.num_cells);
  const int n = channel.num_cells;
  const std::size_t num_variables =
      num_species + static_cast<std::size_t>(kNumDriverVariables);

  ChannelResult result;
  result.final_state = MassBalanceStore(num_species, num_cells);
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
        static_cast<double>(num_cells) * initial[s] * channel.dx;
  }

  // Candidate processes run cell by cell on the station rollouts' runner:
  // the parameters bind once per rollout, the drivers hold once per day
  // (every cell sees the same drivers), and each cell's states run once
  // per substep into reaction[species * num_cells + cell].
  const DerivativeRunner runner(equations, parameters.data(),
                                parameters.size(), /*compiled=*/true, config);
  std::vector<double> vars(num_variables, 0.0);
  std::vector<double> slopes(num_species, 0.0);
  std::vector<double> reaction(num_species * num_cells, 0.0);
  std::vector<double> flux(static_cast<std::size_t>(n) + 1, 0.0);

  // The reach has one watchdog: it aborts as a unit.
  LaneWatchdog watchdog;
  const double dt = 1.0 / static_cast<double>(config.substeps);
  const double u = channel.velocity;
  const double diff = channel.dispersion;

  for (std::size_t t = t_begin; t < t_end; ++t) {
    watchdog.BeginDay();
    if (!watchdog.aborted()) {
      LoadDrivers(dataset, t, num_species, vars.data());
      runner.Hold(vars.data());
    }
    for (int step = 0; step < config.substeps; ++step) {
      if (watchdog.aborted() || !watchdog.ChargeSubstep(config)) break;
      // Reaction: evaluate every process in every cell.
      bool all_finite = true;
      for (std::size_t i = 0; i < num_cells; ++i) {
        for (std::size_t s = 0; s < num_species; ++s) vars[s] = cells.at(s, i);
        runner.Derivatives(vars.data(), slopes.data());
        for (std::size_t s = 0; s < num_species; ++s) {
          reaction[s * num_cells + i] = slopes[s];
          all_finite = all_finite && std::isfinite(slopes[s]);
        }
      }
      watchdog.NoteDerivatives(all_finite, config);
      // Skip the commit. The station stepper commits the clamped state
      // here, but a NaN raw state would make clamp_correction NaN and break
      // the mass-budget identity.
      if (!all_finite) continue;
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
        const double* k_row = &reaction[s * num_cells];
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
      watchdog.NoteCommit(saturated, config);
    }
    // Outlet samples after an abort predict the penalty value, the same
    // containment contract as the station rollouts.
    for (std::size_t s = 0; s < num_species; ++s) {
      result.outlet[s].push_back(watchdog.aborted()
                                     ? config.state_max
                                     : cells.at(s, num_cells - 1));
    }
  }
  watchdog.FillReport(runner.jit_fallback(), &result.report);
  for (std::size_t s = 0; s < num_species; ++s) {
    double total = 0.0;
    const double* c = cells.row(s);
    for (std::size_t i = 0; i < num_cells; ++i) total += c[i] * channel.dx;
    result.budgets[s].final_mass = total;
  }
  return result;
}

}  // namespace gmr::river
