#ifndef GMR_RIVER_DOMAINS_H_
#define GMR_RIVER_DOMAINS_H_

#include "analysis/static_gate.h"
#include "river/constituents.h"
#include "river/dataset.h"
#include "river/simulate.h"

namespace gmr::river {

/// Bounded per-slot value ranges for *offline linting* of river models:
/// states span the simulation clamp [state_min, state_max] and each
/// observed driver spans a generous physical range (irradiance, nutrient
/// concentrations, temperature, ...). Parameters span the Table III prior
/// boxes. Tight enough to prove the expert model clean, wide enough that a
/// clean lint means something.
analysis::DomainEnv LintDomains(const SimulationConfig& config = {});

/// Same, for an arbitrary constituent registry: every state slot spans the
/// clamp, the ten drivers keep their physical ranges at the set's layout,
/// and parameters span the set's prior boxes. Equals LintDomains() under
/// the legacy plankton preset.
analysis::DomainEnv LintDomainsFor(const ConstituentSet& constituents,
                                   const SimulationConfig& config = {});

/// Ready-to-use gate config for FitnessEvaluator over the variable and
/// parameter layout of `constituents`. The domains soundly over-approximate
/// everything the *integrator* can feed an equation: state slots are
/// [state_min, +inf) because RK4 stage evaluations are unclamped and
/// intermediate states can genuinely overflow; driver slots take the hull
/// of the dataset series when `dataset` is non-null (Interval::All
/// otherwise); parameters span the set's prior boxes. The saturation rate
/// is (state_max - state_min) * substeps state-units/day — a derivative
/// provably at or above it pins a state at state_max on every substep for
/// both Euler and RK4, guaranteeing the kClampSaturated watchdog, so
/// rejecting without integrating changes no final fitness. Aborts, like
/// RiverFitness, when `config` does not validate against the set (e.g. a
/// num_species that disagrees with it).
analysis::StaticGateConfig MakeStaticGate(
    const SimulationConfig& config, const RiverDataset* dataset,
    const ConstituentSet& constituents = ConstituentSet::LegacyPlankton());

}  // namespace gmr::river

#endif  // GMR_RIVER_DOMAINS_H_
