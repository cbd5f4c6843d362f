#ifndef GMR_RIVER_TRANSPORT_H_
#define GMR_RIVER_TRANSPORT_H_

#include <cstddef>
#include <vector>

#include "expr/ast.h"
#include "river/constituents.h"
#include "river/dataset.h"
#include "river/simulate.h"

namespace gmr::river {

/// Spatial discretization of the advective flux through a cell interface.
enum class AdvectionScheme {
  /// First-order upwind: F = u * c_upstream. Unconditionally monotone,
  /// diffusive; the robust default under candidate processes of arbitrary
  /// quality.
  kUpwind,
  /// QUICK (Leonard): quadratic upstream interpolation
  /// F = u * (6/8 c_i + 3/8 c_{i+1} - 1/8 c_{i-1}) for interior interfaces
  /// with a full stencil; boundary interfaces fall back to upwind. Third
  /// order in space, sharper fronts, mildly dispersive.
  kQuick,
};

const char* AdvectionSchemeName(AdvectionScheme scheme);

/// Geometry and numerics of a 1D reach: `num_cells` well-mixed cells of
/// length `dx` in series, advected at `velocity` with dispersion
/// `dispersion`, Dirichlet inflow at the upstream face and free outflow at
/// the downstream face. Stations become cells: every cell sees the same
/// daily drivers (a uniform reach) and the same candidate processes; the
/// spatial axis is what the discretization adds.
struct ChannelConfig {
  int num_cells = 8;
  /// Cell length [m].
  double dx = 500.0;
  /// Advection velocity [m/day]; must be >= 0 (flow is downstream).
  double velocity = 200.0;
  /// Longitudinal dispersion coefficient [m^2/day].
  double dispersion = 50.0;
  AdvectionScheme scheme = AdvectionScheme::kUpwind;
  /// Upstream boundary concentration per species; empty uses the
  /// simulation's initial state as a steady inflow.
  std::vector<double> inflow;

  /// Courant number u * dt / dx at the given substep count — the explicit
  /// step is stable when this is < 1 (and the diffusion number
  /// D * dt / dx^2 < 0.5).
  double Courant(int substeps) const {
    return velocity * (1.0 / static_cast<double>(substeps)) / dx;
  }
};

/// Per-species mass accounting of one channel rollout, in units of
/// concentration x length (mass per unit cross-section). The discrete
/// update telescopes exactly, so
///   final == initial + inflow - outflow + reaction + clamp_correction
/// holds to floating-point rounding for every scheme — the conservation
/// property the `prop` tests pin. clamp_correction is the mass the state
/// clamp added/removed; it is 0 for well-behaved processes.
struct ChannelMassBudget {
  double initial = 0.0;
  double final_mass = 0.0;
  double inflow = 0.0;
  double outflow = 0.0;
  double reaction = 0.0;
  double clamp_correction = 0.0;

  double Residual() const {
    return final_mass - initial - inflow + outflow - reaction -
           clamp_correction;
  }
};

/// Result of one channel rollout.
struct ChannelResult {
  /// outlet[species][day]: end-of-day concentration in the most downstream
  /// cell (the forecast station), or the penalty value after a watchdog
  /// abort.
  std::vector<std::vector<double>> outlet;
  /// Final cell states, species x cells.
  MassBalanceStore final_state{0, 0};
  /// Per-species conservation accounting, accumulated per committed
  /// substep — state and budget move in lockstep, so the identity stays
  /// exact even when a watchdog aborts the reach mid-day.
  std::vector<ChannelMassBudget> budgets;
  /// Whole-channel containment telemetry (the reach aborts as a unit;
  /// days_simulated counts every day of the window, as for the station
  /// rollouts).
  SimulationReport report;
};

/// Integrates the reach over dataset days [t_begin, t_end): per forward
/// Euler substep an explicit flux-form advection-diffusion update plus the
/// candidate source/sink processes evaluated in every cell, one cell at a
/// time, on the station rollouts' derivative runner: one Hold per day, one
/// Derivatives call per cell per substep. Divergence containment matches
/// the station rollouts: the reach has one watchdog (non-finite
/// derivatives, clamp saturation, substep budget), and once it aborts
/// every remaining outlet sample predicts config.state_max.
ChannelResult SimulateChannel(const std::vector<expr::ExprPtr>& equations,
                              const std::vector<double>& parameters,
                              const RiverDataset& dataset,
                              std::size_t t_begin, std::size_t t_end,
                              const ConstituentSet& constituents,
                              const SimulationConfig& config,
                              const ChannelConfig& channel);

/// Validates the channel against the constituent registry and the
/// simulation config: at least one cell, finite geometry with dx > 0,
/// velocity >= 0 and dispersion >= 0, and the Euler method (the mass
/// budget telescopes per Euler substep) — kBadChannelConfig otherwise; an
/// inflow vector of the registry's length (kSpeciesCountMismatch) with
/// finite entries (kBadInitialState).
ConfigError ValidateChannel(const ChannelConfig& channel,
                            const ConstituentSet& constituents,
                            const SimulationConfig& config);

}  // namespace gmr::river

#endif  // GMR_RIVER_TRANSPORT_H_
