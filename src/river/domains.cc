#include "river/domains.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "river/variables.h"

namespace gmr::river {
namespace {

/// Generous physical ranges for the ten observed drivers (units of
/// Table IV, legacy slot order kVlgt..kVsd); every value in the Nakdong
/// data lies comfortably inside.
analysis::Interval DriverRange(int k) {
  switch (kVlgt + k) {
    case kVlgt: return analysis::Interval::Of(0.0, 45.0);
    case kVn: return analysis::Interval::Of(0.0, 20.0);
    case kVp: return analysis::Interval::Of(0.0, 5.0);
    case kVsi: return analysis::Interval::Of(0.0, 50.0);
    case kVtmp: return analysis::Interval::Of(-5.0, 40.0);
    case kVdo: return analysis::Interval::Of(0.0, 30.0);
    case kVcd: return analysis::Interval::Of(0.0, 5000.0);
    case kVph: return analysis::Interval::Of(4.0, 12.0);
    case kValk: return analysis::Interval::Of(0.0, 1000.0);
    default: return analysis::Interval::Of(0.0, 20.0);  // kVsd
  }
}

/// The slot layout of `constituents`: every state slot spans `state`,
/// driver k spans driver_range(k) at the set's driver slot, and each
/// parameter spans its prior box.
template <class DriverRangeFn>
analysis::DomainEnv LayOutDomains(const ConstituentSet& constituents,
                                  const analysis::Interval& state,
                                  const DriverRangeFn& driver_range) {
  analysis::DomainEnv env;
  const gp::ParameterPriors& priors = constituents.priors();
  env.parameters.reserve(priors.size());
  for (const gp::ParameterPrior& prior : priors) {
    env.parameters.push_back(analysis::Interval::Of(prior.lo, prior.hi));
  }
  env.variables.assign(constituents.num_variables(), state);
  for (int k = 0; k < kNumDriverVariables; ++k) {
    env.variables[static_cast<std::size_t>(constituents.driver_slot(k))] =
        driver_range(k);
  }
  return env;
}

}  // namespace

analysis::DomainEnv LintDomains(const SimulationConfig& config) {
  return LintDomainsFor(ConstituentSet::LegacyPlankton(), config);
}

analysis::DomainEnv LintDomainsFor(const ConstituentSet& constituents,
                                   const SimulationConfig& config) {
  return LayOutDomains(
      constituents, analysis::Interval::Of(config.state_min, config.state_max),
      DriverRange);
}

analysis::StaticGateConfig MakeStaticGate(const SimulationConfig& config,
                                          const RiverDataset* dataset,
                                          const ConstituentSet& constituents) {
  const ConfigError err =
      ValidateSimulation(config, constituents, constituents.size());
  GMR_CHECK_MSG(err.ok(), err.message.c_str());
  // RK4 stage states are unclamped, so only the lower clamp is sound as a
  // bound; the upper end must stay +inf.
  const analysis::Interval state{
      config.state_min, std::numeric_limits<double>::infinity(), false};
  // Driver k is dataset series kVlgt + k under every registry (LoadDrivers).
  const auto driver_hull = [dataset](int k) {
    const auto series = static_cast<std::size_t>(kVlgt + k);
    if (dataset == nullptr || series >= dataset->drivers.size() ||
        dataset->drivers[series].empty()) {
      return analysis::Interval::All();
    }
    const auto [lo, hi] = std::minmax_element(dataset->drivers[series].begin(),
                                              dataset->drivers[series].end());
    return analysis::Interval::Of(*lo, *hi);
  };
  analysis::StaticGateConfig gate;
  gate.enabled = true;
  gate.domains = LayOutDomains(constituents, state, driver_hull);
  gate.saturation_rate =
      (config.state_max - config.state_min) * config.substeps;
  return gate;
}

}  // namespace gmr::river
