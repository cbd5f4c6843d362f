#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analysis/interval.h"
#include "analysis/static_gate.h"
#include "common/rng.h"
#include "core/river_grammar.h"
#include "core/transport_grammar.h"
#include "expr/compile.h"
#include "expr/eval.h"
#include "expr/print.h"
#include "expr/simplify.h"
#include "gp/evaluator.h"
#include "gp/operators.h"
#include "gp/tag3p.h"
#include "river/constituents.h"
#include "tag/generate.h"

namespace gmr::gp {
namespace {

namespace e = gmr::expr;
namespace t = gmr::tag;

/// Toy grammar over one variable x: seed "x + 0", revisions "Exp* + R" and
/// "Exp* * R". The target concept 2x + 1 is reachable by two adjunctions.
t::Grammar ToyGrammar() {
  t::Grammar grammar;
  {
    std::vector<t::TagNodePtr> children;
    children.push_back(t::LeafNode(e::Variable(0, "x")));
    children.push_back(t::LeafNode(e::Constant(0.0)));
    grammar.AddAlphaTree(t::ElementaryTree(
        "seed", t::OperatorNode(t::kExpSymbol, e::NodeKind::kAdd,
                                std::move(children))));
  }
  for (e::NodeKind op : {e::NodeKind::kAdd, e::NodeKind::kMul}) {
    std::vector<t::TagNodePtr> children;
    children.push_back(t::FootNode(t::kExpSymbol));
    children.push_back(t::SlotNode("R"));
    grammar.AddBetaTree(t::ElementaryTree(
        std::string("beta") + e::KindName(op),
        t::OperatorNode(t::kExpSymbol, op, std::move(children))));
  }
  grammar.SetSlotSpec("R", t::SlotSpec{0.0, 1.0});
  return grammar;
}

/// Fitness: running RMSE of eval(equation) against the target 2x + 1 over
/// `n` cases with x = i/(n-1). Supports both backends and counts steps.
class ToyFitness : public SequentialFitness {
 public:
  explicit ToyFitness(std::size_t n, std::size_t num_params = 0)
      : n_(n), num_params_(num_params) {}

  std::size_t num_cases() const override { return n_; }
  std::size_t num_parameters() const override { return num_params_; }

  std::unique_ptr<SequentialEvaluation> Begin(
      const std::vector<e::ExprPtr>& equations,
      const std::vector<double>& parameters,
      bool use_compiled_backend) const override {
    class Eval : public SequentialEvaluation {
     public:
      Eval(const e::ExprPtr& eq, std::vector<double> params, bool compiled,
           std::size_t n)
          : equation_(eq), params_(std::move(params)), n_(n) {
        if (compiled) program_ = e::Compile(*equation_);
        compiled_ = compiled;
      }
      bool Step() override {
        const double x =
            n_ > 1 ? static_cast<double>(t_) / static_cast<double>(n_ - 1)
                   : 0.0;
        e::EvalContext ctx;
        ctx.variables = &x;
        ctx.num_variables = 1;
        ctx.parameters = params_.data();
        ctx.num_parameters = params_.size();
        const double pred = compiled_ ? program_.Run(ctx)
                                      : e::EvalExpr(*equation_, ctx);
        const double err = pred - (2.0 * x + 1.0);
        sse_ += err * err;
        ++t_;
        return t_ < n_;
      }
      double CurrentFitness() const override {
        return t_ == 0 ? 0.0 : std::sqrt(sse_ / static_cast<double>(t_));
      }
      std::size_t steps_taken() const override { return t_; }

     private:
      e::ExprPtr equation_;
      std::vector<double> params_;
      e::CompiledProgram program_;
      bool compiled_ = false;
      std::size_t n_;
      std::size_t t_ = 0;
      double sse_ = 0.0;
    };
    return std::make_unique<Eval>(equations[0], parameters,
                                  use_compiled_backend, n_);
  }

 private:
  std::size_t n_;
  std::size_t num_params_;
};

Individual MakeIndividual(const t::Grammar& grammar, std::size_t target,
                          Rng& rng, std::size_t num_params = 0) {
  Individual individual;
  individual.genotype = t::GrowRandom(grammar, 0, target, rng);
  individual.parameters.assign(num_params, 0.5);
  return individual;
}

// ----------------------------------------------------------- operators ----

class OperatorPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(OperatorPropertyTest, CrossoverPreservesValidityAndTotalSize) {
  const t::Grammar grammar = ToyGrammar();
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 13 + 1);
  const SizeBounds bounds{2, 30};
  Individual a = MakeIndividual(grammar, 6, rng);
  Individual b = MakeIndividual(grammar, 9, rng);
  const std::size_t total = a.Size() + b.Size();
  const bool swapped = Crossover(grammar, bounds, 5, &a, &b, rng);
  if (swapped) {
    EXPECT_EQ(a.Size() + b.Size(), total);
    EXPECT_GE(a.Size(), bounds.min_size);
    EXPECT_LE(a.Size(), bounds.max_size);
    EXPECT_GE(b.Size(), bounds.min_size);
    EXPECT_LE(b.Size(), bounds.max_size);
    EXPECT_FALSE(a.IsEvaluated());
  }
  std::string error;
  EXPECT_TRUE(t::Validate(grammar, *a.genotype, &error)) << error;
  EXPECT_TRUE(t::Validate(grammar, *b.genotype, &error)) << error;
}

TEST_P(OperatorPropertyTest, SubtreeMutationKeepsBoundsAndValidity) {
  const t::Grammar grammar = ToyGrammar();
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 17 + 3);
  const SizeBounds bounds{2, 20};
  Individual individual = MakeIndividual(grammar, 8, rng);
  SubtreeMutation(grammar, bounds, &individual, rng);
  EXPECT_LE(individual.Size(), bounds.max_size);
  std::string error;
  EXPECT_TRUE(t::Validate(grammar, *individual.genotype, &error)) << error;
}

TEST_P(OperatorPropertyTest, LocalSearchOperatorsKeepValidity) {
  const t::Grammar grammar = ToyGrammar();
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 19 + 5);
  const SizeBounds bounds{2, 15};
  Individual individual = MakeIndividual(grammar, 5, rng);
  for (int i = 0; i < 15; ++i) {
    if (rng.Bernoulli(0.5)) {
      PointInsertion(grammar, bounds, &individual, rng);
    } else {
      PointDeletion(bounds, &individual, rng);
    }
    EXPECT_GE(individual.Size(), 1u);
    EXPECT_LE(individual.Size(), bounds.max_size);
    std::string error;
    ASSERT_TRUE(t::Validate(grammar, *individual.genotype, &error)) << error;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OperatorPropertyTest,
                         ::testing::Range(0, 25));

TEST(OperatorTest, GaussianMutationRespectsBounds) {
  const t::Grammar grammar = ToyGrammar();
  Rng rng(3);
  ParameterPriors priors{{"a", 0.5, 0.0, 1.0}, {"b", 10.0, 5.0, 15.0}};
  Individual individual = MakeIndividual(grammar, 4, rng, priors.size());
  individual.parameters = PriorMeans(priors);
  for (int i = 0; i < 100; ++i) {
    GaussianMutation(priors, 1.0, &individual, rng);
    EXPECT_GE(individual.parameters[0], 0.0);
    EXPECT_LE(individual.parameters[0], 1.0);
    EXPECT_GE(individual.parameters[1], 5.0);
    EXPECT_LE(individual.parameters[1], 15.0);
  }
  // Mutation must actually move parameters.
  EXPECT_NE(individual.parameters[0], 0.5);
}

TEST(OperatorTest, GaussianMutationSigmaScaleShrinksSteps) {
  const t::Grammar grammar = ToyGrammar();
  ParameterPriors priors{{"a", 0.5, 0.0, 1.0}};
  double large_scale_step = 0.0;
  double small_scale_step = 0.0;
  for (int trial = 0; trial < 200; ++trial) {
    Rng rng(static_cast<std::uint64_t>(trial) + 100);
    Individual individual = MakeIndividual(grammar, 3, rng, 1);
    individual.parameters = {0.5};
    GaussianMutation(priors, 1.0, &individual, rng);
    large_scale_step += std::fabs(individual.parameters[0] - 0.5);

    Rng rng2(static_cast<std::uint64_t>(trial) + 100);
    Individual individual2 = MakeIndividual(grammar, 3, rng2, 1);
    individual2.parameters = {0.5};
    GaussianMutation(priors, 0.1, &individual2, rng2);
    small_scale_step += std::fabs(individual2.parameters[0] - 0.5);
  }
  EXPECT_LT(small_scale_step, large_scale_step);
}

TEST(OperatorTest, PriorMeansMatchPriors) {
  ParameterPriors priors{{"a", 0.5, 0.0, 1.0}, {"b", 10.0, 5.0, 15.0}};
  EXPECT_EQ(PriorMeans(priors), (std::vector<double>{0.5, 10.0}));
}

TEST(OperatorTest, InitialSigmaFallsBackToRangeForZeroMean) {
  const ParameterPrior zero_mean{"z", 0.0, -4.0, 4.0};
  EXPECT_DOUBLE_EQ(zero_mean.InitialSigma(), 1.0);
  const ParameterPrior positive{"p", 8.0, 0.0, 10.0};
  EXPECT_DOUBLE_EQ(positive.InitialSigma(), 2.0);
}

// ----------------------------------------------------------- evaluator ----

TEST(EvaluatorTest, CacheHitsForIdenticalIndividuals) {
  const t::Grammar grammar = ToyGrammar();
  const ToyFitness fitness(50);
  SpeedupConfig config;
  config.tree_caching = true;
  FitnessEvaluator evaluator(&grammar, &fitness, config);
  Rng rng(7);
  Individual a = MakeIndividual(grammar, 5, rng);
  Individual b = a.Clone();
  evaluator.EvaluateBatch({&a}, nullptr);
  evaluator.EvaluateBatch({&b}, nullptr);
  EXPECT_EQ(evaluator.stats().individuals_evaluated, 1u);
  EXPECT_EQ(evaluator.stats().cache_hits, 1u);
  EXPECT_EQ(evaluator.stats().cache_lookups, 2u);
  EXPECT_DOUBLE_EQ(a.fitness, b.fitness);
}

TEST(EvaluatorTest, CacheDistinguishesParameters) {
  const t::Grammar grammar = ToyGrammar();
  const ToyFitness fitness(50, 1);
  SpeedupConfig config;
  config.tree_caching = true;
  FitnessEvaluator evaluator(&grammar, &fitness, config);
  Rng rng(7);
  Individual a = MakeIndividual(grammar, 5, rng, 1);
  Individual b = a.Clone();
  b.parameters[0] = 0.75;
  evaluator.EvaluateBatch({&a}, nullptr);
  evaluator.EvaluateBatch({&b}, nullptr);
  EXPECT_EQ(evaluator.stats().cache_hits, 0u);
  EXPECT_EQ(evaluator.stats().individuals_evaluated, 2u);
}

TEST(EvaluatorTest, ShortCircuitSkipsTimeSteps) {
  const t::Grammar grammar = ToyGrammar();
  const ToyFitness fitness(1000);
  SpeedupConfig config;
  config.short_circuiting = true;
  config.es_threshold = 1.0;
  FitnessEvaluator evaluator(&grammar, &fitness, config);
  Rng rng(11);

  // First individual: full evaluation (no bestPrevFull yet).
  Individual good = MakeIndividual(grammar, 2, rng);
  evaluator.EvaluateBatch({&good}, nullptr);
  EXPECT_TRUE(good.fully_evaluated);
  const std::size_t steps_after_first =
      evaluator.stats().time_steps_evaluated;
  EXPECT_EQ(steps_after_first, 1000u);

  // A terrible individual (constant far away) should be cut early. Build
  // it by attaching a huge additive lexeme.
  Individual bad = good.Clone();
  ASSERT_TRUE(PointInsertion(grammar, SizeBounds{1, 50}, &bad, rng));
  // Force the lexeme to an absurd value.
  ASSERT_FALSE(bad.genotype->children.empty());
  bad.genotype->children[0].node->lexemes.assign(
      bad.genotype->children[0].node->lexemes.size(), 1e6);
  evaluator.EvaluateBatch({&bad}, nullptr);
  EXPECT_FALSE(bad.fully_evaluated);
  EXPECT_LT(evaluator.stats().time_steps_evaluated, 2 * 1000u);
  EXPECT_EQ(evaluator.stats().short_circuited, 1u);
  EXPECT_GT(bad.fitness, good.fitness);
}

TEST(EvaluatorTest, ConservativeThresholdDelaysShortCircuit) {
  const t::Grammar grammar = ToyGrammar();
  const ToyFitness fitness(500);

  auto run = [&](double threshold) {
    SpeedupConfig config;
    config.short_circuiting = true;
    config.es_threshold = threshold;
    FitnessEvaluator evaluator(&grammar, &fitness, config);
    Rng rng(13);
    Individual good = MakeIndividual(grammar, 2, rng);
    evaluator.EvaluateBatch({&good}, nullptr);
    Individual bad = good.Clone();
    PointInsertion(grammar, SizeBounds{1, 50}, &bad, rng);
    if (!bad.genotype->children.empty()) {
      bad.genotype->children[0].node->lexemes.assign(
          bad.genotype->children[0].node->lexemes.size(), 50.0);
    }
    evaluator.EvaluateBatch({&bad}, nullptr);
    return evaluator.stats().time_steps_evaluated;
  };

  // A more conservative threshold must evaluate at least as many steps.
  EXPECT_LE(run(0.7), run(1.3));
}

TEST(EvaluatorTest, BackendsAgree) {
  const t::Grammar grammar = ToyGrammar();
  const ToyFitness fitness(100);
  Rng rng(17);
  Individual individual = MakeIndividual(grammar, 6, rng);

  SpeedupConfig interpreted;
  interpreted.runtime_compilation = false;
  SpeedupConfig compiled;
  compiled.runtime_compilation = true;
  FitnessEvaluator eval_interpreted(&grammar, &fitness, interpreted);
  FitnessEvaluator eval_compiled(&grammar, &fitness, compiled);
  Individual a = individual.Clone();
  Individual b = individual.Clone();
  eval_interpreted.EvaluateBatch({&a}, nullptr);
  eval_compiled.EvaluateBatch({&b}, nullptr);
  EXPECT_DOUBLE_EQ(a.fitness, b.fitness);
  EXPECT_DOUBLE_EQ(eval_interpreted.EvaluateFull(individual),
                   eval_compiled.EvaluateFull(individual));
}

TEST(EvaluatorTest, SimplificationImprovesCacheHits) {
  const t::Grammar grammar = ToyGrammar();
  const ToyFitness fitness(50);

  auto hit_rate = [&](bool simplify) {
    SpeedupConfig config;
    config.tree_caching = true;
    config.simplify_before_eval = simplify;
    FitnessEvaluator evaluator(&grammar, &fitness, config);
    Rng rng(23);
    // Many random small individuals: simplification collapses semantically
    // equal genotypes (e.g. x + 0 variants) to one key.
    for (int i = 0; i < 200; ++i) {
      Individual individual = MakeIndividual(grammar, 3, rng);
      // Zero out all lexemes so "+0" patterns appear often.
      std::vector<t::NodeRef> refs =
          t::CollectNodeRefs(individual.genotype.get());
      for (auto& ref : refs) {
        ref.node()->lexemes.assign(ref.node()->lexemes.size(), 0.0);
      }
      evaluator.EvaluateBatch({&individual}, nullptr);
    }
    return evaluator.stats().CacheHitRate();
  };

  EXPECT_GT(hit_rate(true), hit_rate(false));
}

/// Adjoinable (operator and wrapper) nodes of a TAG subtree: the address
/// indices it spans, in preorder.
std::size_t AdjoinableNodes(const t::TagNode& node) {
  std::size_t count = node.kind == t::TagNode::Kind::kOperator ||
                              node.kind == t::TagNode::Kind::kWrapper
                          ? 1
                          : 0;
  for (const t::TagNodePtr& child : node.children) {
    count += AdjoinableNodes(*child);
  }
  return count;
}

TEST(EvaluatorTablesTest, UntouchedSeedEquationIsOneSimplifiedNode) {
  // Two plankton derivations that differ only inside the first equation:
  // the second equation is the grammar's own pre-lowered subtree in both
  // phenotypes, and the evaluator simplifies it once, so both get the same
  // node. A plain Simplify rebuilds it on every call.
  const core::RiverPriorKnowledge knowledge = core::BuildRiverPriorKnowledge();
  const t::Grammar& grammar = knowledge.grammar;
  const t::ElementaryTree& seed = grammar.alpha(knowledge.seed_alpha_index);
  ASSERT_EQ(seed.root().kind, t::TagNode::Kind::kSystem);
  ASSERT_EQ(seed.root().children.size(), 2u);

  Individual bare;
  bare.genotype = std::make_unique<t::DerivationNode>();
  bare.genotype->tree_index = knowledge.seed_alpha_index;
  bare.genotype->lexemes.assign(seed.slot_labels().size(), 0.5);
  Individual revised = bare.Clone();
  // The first address in the first equation that a beta adjoins at.
  const std::size_t first_equation = AdjoinableNodes(*seed.root().children[0]);
  int beta = -1;
  int address = 0;
  for (; static_cast<std::size_t>(address) < first_equation; ++address) {
    const auto& betas = grammar.BetasWithRootLabel(
        seed.adjoinable_labels()[static_cast<std::size_t>(address)]);
    if (!betas.empty()) {
      beta = betas.front();
      break;
    }
  }
  ASSERT_GE(beta, 0);
  auto child = std::make_unique<t::DerivationNode>();
  child->tree_index = beta;
  child->lexemes.assign(grammar.beta(beta).slot_labels().size(), 0.25);
  revised.genotype->children.push_back({address, std::move(child)});

  const std::vector<e::ExprPtr> lowered =
      t::ExpandToExpressions(grammar, *bare.genotype);
  ASSERT_NE(e::Simplify(lowered[1]).get(), e::Simplify(lowered[1]).get());

  const ToyFitness fitness(1);
  FitnessEvaluator evaluator(&grammar, &fitness, SpeedupConfig{});
  const std::vector<e::ExprPtr> a = evaluator.Phenotype(bare);
  const std::vector<e::ExprPtr> b = evaluator.Phenotype(revised);
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_NE(e::ToSExpression(*a[0]), e::ToSExpression(*b[0]));
  EXPECT_EQ(a[1].get(), b[1].get());
  EXPECT_EQ(e::ToSExpression(*a[1]),
            e::ToSExpression(*e::Simplify(lowered[1])));
}

/// A gate over the box [0.5, 2] in every slot, with its saturation rate at
/// the median lower bound of the first equations' intervals, so that about
/// half of `phenotypes` reject. The domains need not be sound: the tests
/// compare the evaluator's tables with the plain walk under one gate.
analysis::StaticGateConfig MedianGate(
    const std::vector<std::vector<e::ExprPtr>>& phenotypes) {
  analysis::StaticGateConfig gate;
  gate.enabled = true;
  gate.domains.variables.assign(32, analysis::Interval::Of(0.5, 2.0));
  gate.domains.parameters.assign(64, analysis::Interval::Of(0.5, 2.0));
  std::vector<double> lows;
  for (const std::vector<e::ExprPtr>& phenotype : phenotypes) {
    lows.push_back(analysis::EvaluateInterval(*phenotype[0], gate.domains).lo);
  }
  std::nth_element(lows.begin(), lows.begin() + lows.size() / 2, lows.end());
  gate.saturation_rate = lows[lows.size() / 2];
  return gate;
}

TEST(EvaluatorTablesTest, TableBackedPhenotypeAndGateMatchPlainWalks) {
  // Over grown derivations of both river grammars, with and without
  // simplification: the evaluator's phenotype prints and hashes like the
  // plain expansion (simplified), and its gate verdict equals
  // AnalyzeCandidate without tables.
  std::vector<core::RiverPriorKnowledge> grammars;
  grammars.push_back(core::BuildRiverPriorKnowledge());
  grammars.push_back(core::BuildTransportPriorKnowledge(
      river::ConstituentSet::Transport(5)));
  std::size_t analysed = 0;
  std::size_t rejected = 0;
  for (const core::RiverPriorKnowledge& knowledge : grammars) {
    const t::Grammar& grammar = knowledge.grammar;
    Rng rng(23);
    std::vector<Individual> individuals(120);
    std::vector<std::vector<e::ExprPtr>> simplified;
    for (std::size_t i = 0; i < individuals.size(); ++i) {
      individuals[i].genotype = t::GrowRandom(
          grammar, knowledge.seed_alpha_index, 1 + i % 30, rng);
      simplified.push_back(
          t::ExpandToExpressions(grammar, *individuals[i].genotype));
      for (e::ExprPtr& equation : simplified.back()) {
        equation = e::Simplify(equation);
      }
    }
    const analysis::StaticGateConfig gate = MedianGate(simplified);
    for (const bool simplify : {true, false}) {
      SCOPED_TRACE(simplify ? "simplified" : "raw");
      SpeedupConfig config;
      config.simplify_before_eval = simplify;
      config.static_gate = gate;
      const ToyFitness fitness(1);
      const FitnessEvaluator evaluator(&grammar, &fitness, config);
      for (std::size_t i = 0; i < individuals.size(); ++i) {
        const std::vector<e::ExprPtr> expected =
            simplify ? simplified[i]
                     : t::ExpandToExpressions(grammar,
                                              *individuals[i].genotype);
        const std::vector<e::ExprPtr> phenotype =
            evaluator.Phenotype(individuals[i]);
        ASSERT_EQ(phenotype.size(), expected.size());
        for (std::size_t q = 0; q < phenotype.size(); ++q) {
          EXPECT_EQ(e::ToSExpression(*phenotype[q]),
                    e::ToSExpression(*expected[q]))
              << "derivation " << i << ", equation " << q;
          EXPECT_EQ(phenotype[q]->StructuralHash(),
                    expected[q]->StructuralHash());
        }
        const analysis::StaticVerdict tabled = evaluator.AnalyzeGate(phenotype);
        const analysis::StaticVerdict plain =
            analysis::AnalyzeCandidate(expected, gate);
        EXPECT_EQ(tabled.rule, plain.rule) << "derivation " << i;
        EXPECT_EQ(tabled.equation, plain.equation) << "derivation " << i;
        EXPECT_EQ(tabled.reason, plain.reason) << "derivation " << i;
        ++analysed;
        rejected += tabled.reject ? 1 : 0;
      }
    }
  }
  // The derivations must exercise both verdicts.
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, analysed);
}

TEST(OperatorTest, ParameterTweakChangesExactlyOneParameter) {
  const t::Grammar grammar = ToyGrammar();
  ParameterPriors priors{{"a", 0.5, 0.0, 1.0},
                         {"b", 10.0, 5.0, 15.0},
                         {"c", 2.0, 1.0, 3.0}};
  Rng rng(41);
  Individual individual = MakeIndividual(grammar, 3, rng, priors.size());
  individual.parameters = PriorMeans(priors);
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<double> before = individual.parameters;
    ASSERT_TRUE(ParameterTweak(priors, &individual, rng));
    int changed = 0;
    for (std::size_t i = 0; i < before.size(); ++i) {
      if (individual.parameters[i] != before[i]) ++changed;
      EXPECT_GE(individual.parameters[i], priors[i].lo);
      EXPECT_LE(individual.parameters[i], priors[i].hi);
    }
    EXPECT_LE(changed, 1);
  }
  EXPECT_FALSE(individual.IsEvaluated());
}

TEST(OperatorTest, ParameterTweakFailsWithoutParameters) {
  const t::Grammar grammar = ToyGrammar();
  Rng rng(43);
  Individual individual = MakeIndividual(grammar, 3, rng, 0);
  EXPECT_FALSE(ParameterTweak({}, &individual, rng));
}

TEST(ExtrapolateTest, GrowthProjectsForward) {
  // At the final step the projection is the identity; earlier steps
  // project upward, monotonically more so the earlier the cut.
  EXPECT_DOUBLE_EQ(ExtrapolateGrowth(10.0, 100, 100), 10.0);
  const double mid = ExtrapolateGrowth(10.0, 50, 100);
  const double early = ExtrapolateGrowth(10.0, 10, 100);
  EXPECT_GT(mid, 10.0);
  EXPECT_GT(early, mid);
}

TEST(ExtrapolateTest, EagerThresholdIsActuallyEagerUnderGrowth) {
  // With the growth extrapolation, a candidate slightly worse than the
  // incumbent is cut under threshold 0.7 but kept under threshold 1.0 at
  // the same point of evaluation: fitness 0.8*best trips the 0.7 gate and
  // the projected estimate exceeds best early in the run.
  const double best = 100.0;
  const double fitness = 80.0;  // 0.8 * best
  const std::size_t step = 10;
  const std::size_t total = 1000;
  EXPECT_GT(fitness, best * 0.7);
  EXPECT_LT(fitness, best * 1.0);
  EXPECT_GT(ExtrapolateGrowth(fitness, step, total), best);
}

// -------------------------------------------------------------- engine ----

TEST(Tag3pEngineTest, ImprovesFitnessOnToyProblem) {
  const t::Grammar grammar = ToyGrammar();
  const ToyFitness fitness(60);
  Tag3pConfig config;
  config.population_size = 30;
  config.max_generations = 15;
  config.bounds = SizeBounds{2, 12};
  config.local_search_steps = 2;
  config.sigma_rampdown_generations = 5;
  config.seed = 5;
  Tag3pEngine engine(&grammar, &fitness, {}, config);
  const Tag3pResult result = engine.Run();
  ASSERT_FALSE(result.history.empty());
  // The seed process "x + 0" has RMSE sqrt(mean((x - (2x+1))^2)) ~ 1.53;
  // the engine must improve markedly on it.
  EXPECT_LT(result.best.fitness, 0.8);
  EXPECT_LE(result.history.back().best_fitness,
            result.history.front().best_fitness);
}

TEST(Tag3pEngineTest, DeterministicForSameSeed) {
  const t::Grammar grammar = ToyGrammar();
  const ToyFitness fitness(40);
  Tag3pConfig config;
  config.population_size = 16;
  config.max_generations = 6;
  config.seed = 42;
  config.local_search_steps = 1;
  Tag3pEngine engine_a(&grammar, &fitness, {}, config);
  Tag3pEngine engine_b(&grammar, &fitness, {}, config);
  const Tag3pResult a = engine_a.Run();
  const Tag3pResult b = engine_b.Run();
  EXPECT_DOUBLE_EQ(a.best.fitness, b.best.fitness);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.history[i].best_fitness, b.history[i].best_fitness);
  }
}

TEST(Tag3pEngineTest, ElitismKeepsBestMonotone) {
  const t::Grammar grammar = ToyGrammar();
  const ToyFitness fitness(40);
  Tag3pConfig config;
  config.population_size = 20;
  config.max_generations = 10;
  config.elite_size = 2;
  config.seed = 9;
  config.speedups.tree_caching = true;
  Tag3pEngine engine(&grammar, &fitness, {}, config);
  const Tag3pResult result = engine.Run();
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_LE(result.history[i].best_fitness,
              result.history[i - 1].best_fitness + 1e-12);
  }
}

TEST(Tag3pEngineTest, GenerationCallbackFires) {
  const t::Grammar grammar = ToyGrammar();
  const ToyFitness fitness(20);
  Tag3pConfig config;
  config.population_size = 8;
  config.max_generations = 4;
  config.seed = 1;
  config.local_search_steps = 0;
  Tag3pEngine engine(&grammar, &fitness, {}, config);
  int calls = 0;
  engine.set_generation_callback(
      [&calls](const GenerationStats&) { ++calls; });
  engine.Run();
  EXPECT_EQ(calls, 4);
}

}  // namespace
}  // namespace gmr::gp
