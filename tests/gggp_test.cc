#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "gggp/gggp.h"
#include "river/biology.h"
#include "river/variables.h"
#include "river/parameters.h"
#include "river/simulate.h"
#include "river/synthetic.h"

namespace gmr::gggp {
namespace {

namespace e = gmr::expr;
namespace r = gmr::river;

// ----------------------------------------------------------------- CFG ----

TEST(CfgTest, GrowRespectsDepthBound) {
  const CfgGrammar grammar = RiverCfgGrammar();
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const e::ExprPtr tree = GrowRandomExpr(grammar, 4, rng);
    EXPECT_LE(tree->Height(), 4u);
  }
}

TEST(CfgTest, NodeAtVisitsPreorder) {
  // (x + 1) * p : preorder = [*, +, x, 1, p].
  const e::ExprPtr tree =
      e::Mul(e::Add(e::Variable(0, "x"), e::Constant(1.0)),
             e::Parameter(0, "p"));
  EXPECT_EQ(CountNodes(*tree), 5u);
  EXPECT_EQ(NodeAt(*tree, 0).kind(), e::NodeKind::kMul);
  EXPECT_EQ(NodeAt(*tree, 1).kind(), e::NodeKind::kAdd);
  EXPECT_EQ(NodeAt(*tree, 2).kind(), e::NodeKind::kVariable);
  EXPECT_EQ(NodeAt(*tree, 3).kind(), e::NodeKind::kConstant);
  EXPECT_EQ(NodeAt(*tree, 4).kind(), e::NodeKind::kParameter);
}

TEST(CfgTest, ReplaceNodeAtSwapsSubtree) {
  const e::ExprPtr tree =
      e::Mul(e::Add(e::Variable(0, "x"), e::Constant(1.0)),
             e::Parameter(0, "p"));
  const e::ExprPtr replaced = ReplaceNodeAt(tree, 1, e::Constant(7.0));
  EXPECT_EQ(CountNodes(*replaced), 3u);
  EXPECT_EQ(NodeAt(*replaced, 1).value(), 7.0);
  // Root replacement returns the replacement itself.
  const e::ExprPtr root_swap = ReplaceNodeAt(tree, 0, e::Constant(2.0));
  EXPECT_EQ(root_swap->value(), 2.0);
  // Original tree is untouched (persistent structure).
  EXPECT_EQ(CountNodes(*tree), 5u);
}

TEST(CfgTest, JitterConstantsOnlyTouchesLiterals) {
  const e::ExprPtr tree =
      e::Add(e::Mul(e::Constant(2.0), e::Variable(0, "x")),
             e::Parameter(0, "p"));
  Rng rng(5);
  const e::ExprPtr jittered = JitterConstants(tree, 1.0, rng);
  EXPECT_NE(NodeAt(*jittered, 2).value(), 2.0);
  EXPECT_EQ(NodeAt(*jittered, 4).kind(), e::NodeKind::kParameter);
  EXPECT_EQ(NodeAt(*jittered, 3).kind(), e::NodeKind::kVariable);
}

TEST(CfgTest, RiverGrammarListsAllSlots) {
  const CfgGrammar grammar = RiverCfgGrammar();
  EXPECT_EQ(grammar.variable_slots.size(),
            static_cast<std::size_t>(r::kNumVariables));
  EXPECT_EQ(grammar.parameter_slots.size(),
            static_cast<std::size_t>(r::kNumParameters));
  EXPECT_EQ(grammar.binary_ops.size(), 4u);
  EXPECT_EQ(grammar.unary_ops.size(), 2u);
}

// ---------------------------------------------------------------- GGGP ----

TEST(GggpTest, RevisionImprovesOnSeedFitness) {
  river::SyntheticConfig data_config;
  data_config.years = 2;
  data_config.train_years = 1;
  data_config.seed = 3;
  const river::RiverDataset dataset =
      river::GenerateNakdongLike(data_config);
  const river::RiverFitness fitness =
      river::RiverFitness::ForTraining(&dataset);

  GggpConfig config;
  config.population_size = 24;
  config.max_generations = 6;
  config.seed = 9;
  config.speedups.runtime_compilation = true;
  config.speedups.short_circuiting = true;
  const GggpResult result =
      RunGggp(r::ManualProcess(), RiverCfgGrammar(),
              r::RiverParameterPriors(), fitness, config);

  ASSERT_GE(result.best_fitness_history.size(), 2u);
  // Population index 0 is the unmodified seed, so generation-0 best is at
  // most the seed fitness and the final best must improve on it.
  EXPECT_LT(result.best.fitness, result.best_fitness_history.front() + 1e-9);
  EXPECT_GT(result.eval_stats.individuals_evaluated, 24u);
  ASSERT_EQ(result.best.equations.size(), 2u);
  for (const auto& eq : result.best.equations) {
    EXPECT_LE(eq->NodeCount(), config.max_equation_nodes);
  }
}

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

std::vector<std::uint64_t> Bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits;
  for (double value : values) bits.push_back(Bits(value));
  return bits;
}

TEST(GggpTest, DeterministicForSameSeed) {
  river::SyntheticConfig data_config;
  data_config.years = 2;
  data_config.train_years = 1;
  data_config.seed = 3;
  const river::RiverDataset dataset =
      river::GenerateNakdongLike(data_config);
  const river::RiverFitness fitness =
      river::RiverFitness::ForTraining(&dataset);
  GggpConfig config;
  config.population_size = 10;
  config.max_generations = 3;
  config.seed = 4;
  config.speedups.short_circuiting = true;
  config.speedups.runtime_compilation = true;
  const GggpResult a = RunGggp(r::ManualProcess(), RiverCfgGrammar(),
                               r::RiverParameterPriors(), fitness, config);
  // Every lane cuts against the same frozen frontier, so the thread count
  // cannot change a bit.
  config.speedups.num_threads = 4;
  const GggpResult b = RunGggp(r::ManualProcess(), RiverCfgGrammar(),
                               r::RiverParameterPriors(), fitness, config);
  EXPECT_EQ(Bits(a.best.fitness), Bits(b.best.fitness));
  EXPECT_EQ(Bits(a.best.parameters), Bits(b.best.parameters));
  EXPECT_EQ(Bits(a.best_fitness_history), Bits(b.best_fitness_history));
  ASSERT_EQ(a.best.equations.size(), b.best.equations.size());
  for (std::size_t i = 0; i < a.best.equations.size(); ++i) {
    EXPECT_TRUE(
        e::StructurallyEqual(*a.best.equations[i], *b.best.equations[i]));
  }
}

}  // namespace
}  // namespace gmr::gggp
