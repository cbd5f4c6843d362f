#include "river/constituents.h"

#include <cmath>

#include "river/parameters.h"
#include "river/variables.h"

namespace gmr::river {

const char* ConfigErrorCodeName(ConfigErrorCode code) {
  switch (code) {
    case ConfigErrorCode::kNone:
      return "none";
    case ConfigErrorCode::kEmptySet:
      return "empty_set";
    case ConfigErrorCode::kEmptyName:
      return "empty_name";
    case ConfigErrorCode::kDuplicateName:
      return "duplicate_name";
    case ConfigErrorCode::kSpeciesCountMismatch:
      return "species_count_mismatch";
    case ConfigErrorCode::kBadObservedSeries:
      return "bad_observed_series";
    case ConfigErrorCode::kBadInitialState:
      return "bad_initial_state";
    case ConfigErrorCode::kBadSubsteps:
      return "bad_substeps";
    case ConfigErrorCode::kBadStateBounds:
      return "bad_state_bounds";
    case ConfigErrorCode::kNegativeWatchdogLimit:
      return "negative_watchdog_limit";
    case ConfigErrorCode::kBadChannelConfig:
      return "bad_channel_config";
  }
  return "unknown";
}

ConfigError ConstituentSet::Add(Constituent constituent) {
  if (constituent.name.empty()) {
    return ConfigError::Error(ConfigErrorCode::kEmptyName,
                              "constituent name must be non-empty");
  }
  for (const Constituent& existing : constituents_) {
    if (existing.name == constituent.name) {
      return ConfigError::Error(
          ConfigErrorCode::kDuplicateName,
          "duplicate constituent name: " + constituent.name);
    }
  }
  if (!std::isfinite(constituent.initial_state) ||
      !std::isfinite(constituent.test_initial_state)) {
    return ConfigError::Error(
        ConfigErrorCode::kBadInitialState,
        "non-finite initial state for constituent " + constituent.name);
  }
  constituents_.push_back(std::move(constituent));
  return ConfigError::Ok();
}

std::vector<std::string> ConstituentSet::VariableNames() const {
  std::vector<std::string> names;
  names.reserve(num_variables());
  for (const Constituent& c : constituents_) names.push_back(c.name);
  for (int k = 0; k < kNumDriverVariables; ++k) {
    names.push_back(VariableName(kVlgt + k));
  }
  return names;
}

std::vector<double> ConstituentSet::InitialStates() const {
  std::vector<double> states;
  states.reserve(constituents_.size());
  for (const Constituent& c : constituents_) {
    states.push_back(c.initial_state);
  }
  return states;
}

std::vector<double> ConstituentSet::TestInitialStates() const {
  std::vector<double> states;
  states.reserve(constituents_.size());
  for (const Constituent& c : constituents_) {
    states.push_back(c.test_initial_state);
  }
  return states;
}

std::vector<int> ConstituentSet::ObservedConstituents() const {
  std::vector<int> observed;
  for (std::size_t i = 0; i < constituents_.size(); ++i) {
    if (constituents_[i].observed_series >= 0) {
      observed.push_back(static_cast<int>(i));
    }
  }
  return observed;
}

int ConstituentSet::PrimaryObserved() const {
  for (std::size_t i = 0; i < constituents_.size(); ++i) {
    if (constituents_[i].observed_series >= 0) return static_cast<int>(i);
  }
  return 0;
}

ConfigError ConstituentSet::Validate() const {
  if (constituents_.empty()) {
    return ConfigError::Error(ConfigErrorCode::kEmptySet,
                              "a constituent set needs at least one species");
  }
  for (const Constituent& c : constituents_) {
    if (!std::isfinite(c.initial_state) ||
        !std::isfinite(c.test_initial_state)) {
      return ConfigError::Error(ConfigErrorCode::kBadInitialState,
                                "non-finite initial state for " + c.name);
    }
  }
  return ConfigError::Ok();
}

ConstituentSet ConstituentSet::LegacyPlankton() {
  // The historical defaults of RiverDataset (5.0 / 1.0 for both windows).
  return LegacyPlankton(5.0, 1.0, 5.0, 1.0);
}

ConstituentSet ConstituentSet::LegacyPlankton(double initial_bphy,
                                              double initial_bzoo,
                                              double test_initial_bphy,
                                              double test_initial_bzoo) {
  ConstituentSet set;
  set.set_preset("plankton2");
  Constituent phy;
  phy.name = "B_Phy";
  phy.dimension = analysis::Dim::Concentration();
  phy.initial_state = initial_bphy;
  phy.test_initial_state = test_initial_bphy;
  phy.observed_series = 0;
  (void)set.Add(std::move(phy));
  Constituent zoo;
  zoo.name = "B_Zoo";
  zoo.dimension = analysis::Dim::Concentration();
  zoo.initial_state = initial_bzoo;
  zoo.test_initial_state = test_initial_bzoo;
  zoo.observed_series = -1;
  (void)set.Add(std::move(zoo));
  set.set_priors(RiverParameterPriors());
  const analysis::UnitsEnv legacy = RiverUnitsEnv();
  set.set_parameter_dims(legacy.parameters);
  return set;
}

ConstituentSet ConstituentSet::Transport(int num_species) {
  if (num_species < 1) num_species = 1;
  if (num_species > 5) num_species = 5;
  struct Spec {
    const char* name;
    double initial;
    int observed_series;
  };
  // Masses are carried as concentrations [mg/L]; initials are plausible
  // mid-range river values (overridden by the synthetic scenario with the
  // hidden truth's actual initial state).
  const Spec specs[5] = {
      {"M_NO3", 2.0, 0},   // Observed against the primary series.
      {"M_NH4", 0.4, -1},  //
      {"M_DPH", 0.05, -1}, //
      {"M_PPH", 0.08, -1}, //
      {"M_SED", 20.0, 1},  // Observed against extra series 1 (5-species).
  };
  ConstituentSet set;
  set.set_preset("transport" + std::to_string(num_species));
  for (int i = 0; i < num_species; ++i) {
    Constituent c;
    c.name = specs[i].name;
    c.dimension = analysis::Dim::Concentration();
    c.initial_state = specs[i].initial;
    c.test_initial_state = specs[i].initial;
    // The sediment series only exists when the generator produced the full
    // five-species scenario.
    c.observed_series = num_species == 5 ? specs[i].observed_series
                        : i == 0         ? 0
                                         : -1;
    (void)set.Add(std::move(c));
  }
  set.set_priors(TransportParameterPriors());
  std::vector<analysis::Dim> dims(kNumTransportParameters,
                                  analysis::Dim::PerTime());
  // The sediment source multiplies conductivity (M⁻¹L⁻³T³I², the proxy for
  // erosive flow), not a concentration, so its coefficient must supply
  // M²T⁻⁴I⁻² for S_SED·V_cd to come out as concentration per time.
  dims[kSSed] = analysis::Dim::Of(2, 0, -4, 0, -2);
  set.set_parameter_dims(std::move(dims));
  return set;
}

const char* TransportParameterName(int slot) {
  switch (slot) {
    case kKNit: return "K_NIT";
    case kKNo3: return "K_NO3";
    case kKNh4: return "K_NH4";
    case kKDph: return "K_DPH";
    case kKPph: return "K_PPH";
    case kKSed: return "K_SED";
    case kKDes: return "K_DES";
    case kKSor: return "K_SOR";
    case kSNo3: return "S_NO3";
    case kSNh4: return "S_NH4";
    case kSDph: return "S_DPH";
    case kSPph: return "S_PPH";
    case kSSed: return "S_SED";
    default: return "?";
  }
}

gp::ParameterPriors TransportParameterPriors() {
  gp::ParameterPriors priors;
  priors.reserve(kNumTransportParameters);
  const auto rate = [](const char* name, double mean) {
    gp::ParameterPrior prior;
    prior.name = name;
    prior.mean = mean;
    prior.lo = 0.0;
    prior.hi = 1.0;
    return prior;
  };
  const auto source = [](const char* name, double mean) {
    gp::ParameterPrior prior;
    prior.name = name;
    prior.mean = mean;
    prior.lo = 0.0;
    prior.hi = 2.0;
    return prior;
  };
  priors.push_back(rate(TransportParameterName(kKNit), 0.10));
  priors.push_back(rate(TransportParameterName(kKNo3), 0.05));
  priors.push_back(rate(TransportParameterName(kKNh4), 0.08));
  priors.push_back(rate(TransportParameterName(kKDph), 0.06));
  priors.push_back(rate(TransportParameterName(kKPph), 0.09));
  priors.push_back(rate(TransportParameterName(kKSed), 0.12));
  priors.push_back(rate(TransportParameterName(kKDes), 0.03));
  priors.push_back(rate(TransportParameterName(kKSor), 0.04));
  // Source means reflect the expert's magnitude knowledge (the driver
  // concentrations they scale differ by orders of magnitude), deliberately
  // a little off the generator's hidden truth.
  priors.push_back(source(TransportParameterName(kSNo3), 0.05));
  priors.push_back(source(TransportParameterName(kSNh4), 0.03));
  priors.push_back(source(TransportParameterName(kSDph), 0.04));
  priors.push_back(source(TransportParameterName(kSPph), 0.08));
  priors.push_back(source(TransportParameterName(kSSed), 0.01));
  return priors;
}

expr::SymbolTable SymbolsFor(const ConstituentSet& constituents) {
  expr::SymbolTable symbols;
  const std::vector<std::string> names = constituents.VariableNames();
  for (std::size_t slot = 0; slot < names.size(); ++slot) {
    symbols.variables[names[slot]] = static_cast<int>(slot);
  }
  const gp::ParameterPriors& priors = constituents.priors();
  for (std::size_t slot = 0; slot < priors.size(); ++slot) {
    symbols.parameters[priors[slot].name] = static_cast<int>(slot);
  }
  return symbols;
}

analysis::UnitsEnv UnitsEnvFor(const ConstituentSet& constituents) {
  const analysis::UnitsEnv legacy = RiverUnitsEnv();
  analysis::UnitsEnv env;
  env.variables.reserve(constituents.num_variables());
  for (const Constituent& c : constituents.constituents()) {
    env.variables.push_back(c.dimension);
  }
  for (int k = 0; k < kNumDriverVariables; ++k) {
    env.variables.push_back(
        legacy.variables[static_cast<std::size_t>(kVlgt + k)]);
  }
  env.parameters = constituents.parameter_dims();
  return env;
}

void MassBalanceStore::Fill(const std::vector<double>& initial_state) {
  for (std::size_t s = 0; s < num_species_ && s < initial_state.size();
       ++s) {
    double* lane_row = row(s);
    for (std::size_t l = 0; l < width_; ++l) lane_row[l] = initial_state[s];
  }
}

}  // namespace gmr::river
