#include "core/analysis.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/stats.h"
#include "river/variables.h"

namespace gmr::core {
namespace {

bool ReferencesSlot(const std::vector<expr::ExprPtr>& equations, int slot) {
  for (const auto& eq : equations) {
    const std::vector<int> slots = expr::ReferencedVariableSlots(*eq);
    if (std::find(slots.begin(), slots.end(), slot) != slots.end()) {
      return true;
    }
  }
  return false;
}

/// The B_Phy series of the model's training-window rollout under the
/// legacy plankton preset.
std::vector<double> SimulateTraining(
    const CandidateModel& model, const river::RiverDataset& dataset,
    river::SimulationConfig simulation) {
  simulation.num_species = 2;
  const river::ConstituentSet plankton = river::ConstituentSet::LegacyPlankton(
      dataset.initial_bphy, dataset.initial_bzoo, dataset.test_initial_bphy,
      dataset.test_initial_bzoo);
  return river::Simulate(model.equations, model.parameters, dataset, 0,
                         dataset.train_end, plankton,
                         {dataset.initial_bphy, dataset.initial_bzoo},
                         simulation, /*compiled=*/true)
      .series[0];
}

}  // namespace

double PerturbationResponse(const CandidateModel& model,
                            const river::RiverDataset& dataset,
                            int variable_slot, double perturbation,
                            const river::SimulationConfig& simulation) {
  const std::vector<double> baseline =
      SimulateTraining(model, dataset, simulation);

  river::RiverDataset perturbed = dataset;
  auto& series = perturbed.drivers[static_cast<std::size_t>(variable_slot)];
  GMR_CHECK(!series.empty());
  for (double& v : series) v *= 1.0 + perturbation;
  const std::vector<double> response =
      SimulateTraining(model, perturbed, simulation);

  const double base_mean = std::max(Mean(baseline), 1e-9);
  double delta = 0.0;
  for (std::size_t t = 0; t < baseline.size(); ++t) {
    delta += response[t] - baseline[t];
  }
  delta /= static_cast<double>(baseline.size());
  return delta / base_mean;
}

SelectivityReport AnalyzeSelectivity(const std::vector<CandidateModel>& models,
                                     const river::RiverDataset& dataset,
                                     const SelectivityConfig& config) {
  GMR_CHECK(!models.empty());
  std::vector<int> slots = config.slots;
  if (slots.empty()) {
    // The Figure 9 variable set.
    slots = {river::kVlgt, river::kVtmp, river::kVph,
             river::kValk, river::kVcd,  river::kVdo};
  }

  SelectivityReport report;
  const double n = static_cast<double>(models.size());
  for (int slot : slots) {
    SelectivityEntry entry;
    entry.variable_slot = slot;
    int selected = 0;
    int positive = 0;
    int negative = 0;
    int neutral = 0;
    for (const CandidateModel& model : models) {
      if (!ReferencesSlot(model.equations, slot)) continue;
      ++selected;
      const double response = PerturbationResponse(
          model, dataset, slot, config.perturbation, config.simulation);
      if (std::fabs(response) < config.uncorrelated_threshold) {
        ++neutral;
      } else if (response > 0.0) {
        ++positive;
      } else {
        ++negative;
      }
    }
    entry.selected_pct = 100.0 * selected / n;
    entry.correlated_pct = 100.0 * positive / n;
    entry.inversely_correlated_pct = 100.0 * negative / n;
    entry.uncorrelated_pct = 100.0 * neutral / n;
    report.entries.push_back(entry);
  }
  return report;
}

}  // namespace gmr::core
