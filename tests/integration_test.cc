// Cross-module integration tests: the full GMR pipeline against baselines
// on a small synthetic dataset, and invariants connecting the speedup
// techniques to result correctness.

#include <gtest/gtest.h>

#include <cmath>

#include "calibrate/methods.h"
#include "core/gmr.h"
#include "core/river_grammar.h"
#include "gp/evaluator.h"
#include "river/biology.h"
#include "river/parameters.h"
#include "river/simulate.h"
#include "river/synthetic.h"

namespace gmr {
namespace {

river::RiverDataset SmallDataset() {
  river::SyntheticConfig config;
  config.years = 3;
  config.train_years = 2;
  config.seed = 7;
  return river::GenerateNakdongLike(config);
}

TEST(IntegrationTest, CalibrationImprovesOnManualExpertPoint) {
  const river::RiverDataset dataset = SmallDataset();
  const auto priors = river::RiverParameterPriors();
  const auto manual = river::ManualProcess();
  const river::RiverFitness fitness =
      river::RiverFitness::ForTraining(&dataset);

  calibrate::Objective objective = [&](const std::vector<double>& params) {
    auto eval = fitness.Begin(manual, params, /*compiled=*/true);
    while (eval->Step()) {
    }
    return eval->CurrentFitness();
  };
  const auto bounds = calibrate::BoundsFromPriors(priors);
  const std::vector<double> initial = gp::PriorMeans(priors);
  const double manual_rmse = objective(initial);

  calibrate::SceUaCalibrator sce;
  Rng rng(5);
  const auto result =
      sce.Calibrate(objective, bounds, initial, /*budget=*/400, rng);
  EXPECT_LT(result.best_objective, manual_rmse);
}

TEST(IntegrationTest, SpeedupsDoNotChangeFullEvaluationResult) {
  const river::RiverDataset dataset = SmallDataset();
  const core::RiverPriorKnowledge knowledge =
      core::BuildRiverPriorKnowledge();
  const river::RiverFitness fitness =
      river::RiverFitness::ForTraining(&dataset);

  Rng rng(11);
  gp::Individual individual;
  individual.genotype = tag::GrowRandom(knowledge.grammar,
                                        knowledge.seed_alpha_index, 8, rng);
  individual.parameters = gp::PriorMeans(knowledge.priors);

  // All four backend/caching combinations must agree on the fitness of a
  // fully evaluated individual.
  double reference = 0.0;
  bool first = true;
  for (bool caching : {false, true}) {
    for (bool compiled : {false, true}) {
      gp::SpeedupConfig config;
      config.tree_caching = caching;
      config.runtime_compilation = compiled;
      config.short_circuiting = false;
      gp::FitnessEvaluator evaluator(&knowledge.grammar, &fitness, config);
      gp::Individual copy = individual.Clone();
      evaluator.EvaluateBatch({&copy}, nullptr);
      if (first) {
        reference = copy.fitness;
        first = false;
      } else {
        EXPECT_DOUBLE_EQ(copy.fitness, reference);
      }
    }
  }
}

TEST(IntegrationTest, ShortCircuitingNeverChangesFullyEvaluatedFitness) {
  const river::RiverDataset dataset = SmallDataset();
  const core::RiverPriorKnowledge knowledge =
      core::BuildRiverPriorKnowledge();
  const river::RiverFitness fitness =
      river::RiverFitness::ForTraining(&dataset);

  gp::SpeedupConfig es_on;
  es_on.short_circuiting = true;
  es_on.runtime_compilation = true;
  gp::SpeedupConfig es_off;
  es_off.runtime_compilation = true;
  gp::FitnessEvaluator with_es(&knowledge.grammar, &fitness, es_on);
  gp::FitnessEvaluator without_es(&knowledge.grammar, &fitness, es_off);

  Rng rng(13);
  for (int i = 0; i < 10; ++i) {
    gp::Individual individual;
    individual.genotype = tag::GrowRandom(
        knowledge.grammar, knowledge.seed_alpha_index, 6, rng);
    individual.parameters = gp::PriorMeans(knowledge.priors);
    gp::Individual a = individual.Clone();
    gp::Individual b = individual.Clone();
    with_es.EvaluateBatch({&a}, nullptr);
    without_es.EvaluateBatch({&b}, nullptr);
    // ES may over-estimate the fitness of cut-off individuals, but any
    // individual it evaluated fully must carry the exact fitness.
    if (a.fully_evaluated) {
      EXPECT_DOUBLE_EQ(a.fitness, b.fitness);
    } else {
      EXPECT_TRUE(std::isfinite(a.fitness));
    }
  }
  EXPECT_LE(with_es.stats().time_steps_evaluated,
            without_es.stats().time_steps_evaluated);
}

TEST(IntegrationTest, GmrBeatsManualOnTestPeriod) {
  const river::RiverDataset dataset = SmallDataset();
  const core::RiverPriorKnowledge knowledge =
      core::BuildRiverPriorKnowledge();
  core::GmrConfig config;
  config.tag3p.population_size = 24;
  config.tag3p.max_generations = 8;
  config.tag3p.local_search_steps = 2;
  config.tag3p.sigma_rampdown_generations = 3;
  config.tag3p.seed = 19;
  const core::GmrRunResult gmr = RunGmr(dataset, knowledge, config);

  const core::AccuracyReport manual = core::EvaluateAccuracy(
      river::ManualProcess(), gp::PriorMeans(knowledge.priors), dataset,
      river::SimulationConfig{});
  EXPECT_LT(gmr.test_rmse, manual.test_rmse);
  EXPECT_LT(gmr.test_mae, manual.test_mae);
  // The revised process must stay consistent with prior knowledge: both
  // state variables still present, equations still lower and simulate.
  ASSERT_EQ(gmr.best_equations.size(), 2u);
}

TEST(IntegrationTest, DatasetExportImportPreservesAccuracy) {
  const river::RiverDataset dataset = SmallDataset();
  const CsvTable table = dataset.ToCsv();
  river::RiverDataset loaded;
  ASSERT_TRUE(river::RiverDataset::FromCsv(table, dataset.train_end,
                                           &loaded));
  loaded.initial_bzoo = dataset.initial_bzoo;
  loaded.test_initial_bzoo = dataset.test_initial_bzoo;
  const auto params = gp::PriorMeans(river::RiverParameterPriors());
  const auto a = core::EvaluateAccuracy(river::ManualProcess(), params,
                                        dataset, river::SimulationConfig{});
  const auto b = core::EvaluateAccuracy(river::ManualProcess(), params,
                                        loaded, river::SimulationConfig{});
  EXPECT_DOUBLE_EQ(a.train_rmse, b.train_rmse);
  EXPECT_DOUBLE_EQ(a.test_rmse, b.test_rmse);
}

}  // namespace
}  // namespace gmr
