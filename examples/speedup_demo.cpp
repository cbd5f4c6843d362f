// Walk-through of the three speedup techniques (paper Section III-D):
//   TC — tree caching with algebraic simplification,
//   ES — evaluation short-circuiting (Algorithm 1),
//   RC — runtime compilation (bytecode backend).
// Each is demonstrated in isolation with its observable effect printed.

#include <cstdio>

#include "common/timer.h"
#include "core/river_grammar.h"
#include "expr/print.h"
#include "expr/simplify.h"
#include "gp/evaluator.h"
#include "river/simulate.h"
#include "river/synthetic.h"
#include "tag/generate.h"

int main() {
  using namespace gmr;
  river::SyntheticConfig data_config;
  data_config.years = 2;
  data_config.train_years = 1;
  data_config.seed = 5;
  const river::RiverDataset dataset = river::GenerateNakdongLike(data_config);
  const core::RiverPriorKnowledge knowledge = core::BuildRiverPriorKnowledge();
  const river::RiverFitness fitness =
      river::RiverFitness::ForTraining(&dataset);

  Rng rng(3);
  gp::Individual individual;
  individual.genotype =
      tag::GrowRandom(knowledge.grammar, knowledge.seed_alpha_index, 10, rng);
  individual.parameters = gp::PriorMeans(knowledge.priors);

  // --- RC: runtime compilation --------------------------------------------
  {
    std::printf("== RC: runtime compilation ==\n");
    for (bool compiled : {false, true}) {
      gp::SpeedupConfig config;
      config.runtime_compilation = compiled;
      gp::FitnessEvaluator evaluator(&knowledge.grammar, &fitness, config);
      Timer timer;
      double fitness_value = 0.0;
      for (int i = 0; i < 20; ++i) {
        fitness_value = evaluator.EvaluateFull(individual);
      }
      std::printf("  %-12s fitness %.4f, 20 full evaluations in %.3fs\n",
                  compiled ? "compiled:" : "interpreted:", fitness_value,
                  timer.ElapsedSeconds());
    }
  }

  // --- TC: tree caching ------------------------------------------------
  {
    std::printf("\n== TC: tree caching (with simplification) ==\n");
    gp::SpeedupConfig config;
    config.tree_caching = true;
    config.runtime_compilation = true;
    gp::FitnessEvaluator evaluator(&knowledge.grammar, &fitness, config);
    for (int i = 0; i < 5; ++i) {
      gp::Individual copy = individual.Clone();
      evaluator.EvaluateBatch({&copy}, nullptr);
    }
    std::printf(
        "  evaluated 5 identical individuals: %zu simulations, %zu cache "
        "hits\n",
        evaluator.stats().individuals_evaluated,
        evaluator.stats().cache_hits);
    std::printf(
        "  simplification canonicalizes semantically equal revisions:\n");
    const expr::ExprPtr redundant =
        expr::Add(expr::Mul(expr::Variable(0, "x"), expr::Constant(1.0)),
                  expr::Constant(0.0));
    std::printf("    %s  ->  %s\n", expr::ToString(*redundant).c_str(),
                expr::ToString(*expr::Simplify(redundant)).c_str());
  }

  // --- ES: evaluation short-circuiting ----------------------------------
  {
    std::printf("\n== ES: evaluation short-circuiting (Algorithm 1) ==\n");
    gp::SpeedupConfig config;
    config.short_circuiting = true;
    config.runtime_compilation = true;
    gp::FitnessEvaluator evaluator(&knowledge.grammar, &fitness, config);
    gp::Individual good = individual.Clone();
    // The first evaluation is always full.
    evaluator.EvaluateBatch({&good}, nullptr);
    std::printf("  incumbent fitness %.3f after %zu time steps (full)\n",
                good.fitness, evaluator.stats().time_steps_evaluated);

    gp::Individual bad = individual.Clone();
    // Sabotage a lexeme so the candidate diverges immediately.
    if (!bad.genotype->children.empty()) {
      auto& lexemes = bad.genotype->children[0].node->lexemes;
      lexemes.assign(lexemes.size(), 500.0);
    }
    const std::size_t before = evaluator.stats().time_steps_evaluated;
    evaluator.EvaluateBatch({&bad}, nullptr);
    std::printf(
        "  divergent candidate cut after %zu of %zu time steps "
        "(estimated fitness %.1f)\n",
        evaluator.stats().time_steps_evaluated - before,
        fitness.num_cases(), bad.fitness);
  }
  return 0;
}
