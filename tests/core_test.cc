#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/analysis.h"
#include "core/gmr.h"
#include "core/river_grammar.h"
#include "core/transport_grammar.h"
#include "expr/print.h"
#include "expr/simplify.h"
#include "gp/operators.h"
#include "river/biology.h"
#include "river/parameters.h"
#include "river/synthetic.h"
#include "river/variables.h"
#include "tag/generate.h"

namespace gmr::core {
namespace {

namespace e = gmr::expr;
namespace r = gmr::river;
namespace t = gmr::tag;

// ------------------------------------------------------- river grammar ----

TEST(RiverGrammarTest, SeedExpandsToManualProcess) {
  const RiverPriorKnowledge knowledge = BuildRiverPriorKnowledge();
  // The unrevised seed derivation must lower to exactly Eqs. (1)-(2).
  tag::DerivationNode seed;
  seed.tree_index = knowledge.seed_alpha_index;
  const auto equations = t::ExpandToExpressions(knowledge.grammar, seed);
  const auto manual = r::ManualProcess();
  ASSERT_EQ(equations.size(), 2u);
  EXPECT_TRUE(e::StructurallyEqual(*equations[0], *manual[0]));
  EXPECT_TRUE(e::StructurallyEqual(*equations[1], *manual[1]));
}

TEST(RiverGrammarTest, BetaTreeCountMatchesTableII) {
  const RiverPriorKnowledge knowledge = BuildRiverPriorKnowledge();
  // Per extension: connectors = |vars|+1 (incl. R), binary extenders =
  // 4 * (|vars|+1), unary extenders = 2.
  // Ext1: 4 + 16 + 2 = 22, Ext2: 2 + 8 + 2 = 12, Ext3: 22,
  // Ext5..Ext9: 5 * (2 + 8 + 2) = 60. Total 116.
  EXPECT_EQ(knowledge.grammar.num_beta_trees(), 116u);
  EXPECT_EQ(knowledge.grammar.num_alpha_trees(), 1u);
}

TEST(RiverGrammarTest, ConnectorAndExtenderLabelsAreDisjoint) {
  const RiverPriorKnowledge knowledge = BuildRiverPriorKnowledge();
  // Connector betas must never adjoin at extender sites and vice versa:
  // each beta's root label determines its sites, so it suffices that no
  // label is both an ExtC and ExtE label.
  for (int ext : {1, 2, 3, 5, 6, 7, 8, 9}) {
    const std::string extc = "ExtC" + std::to_string(ext);
    const std::string exte = "ExtE" + std::to_string(ext);
    EXPECT_TRUE(knowledge.grammar.HasCompatibleBeta(extc)) << extc;
    EXPECT_TRUE(knowledge.grammar.HasCompatibleBeta(exte)) << exte;
    for (int index : knowledge.grammar.BetasWithRootLabel(extc)) {
      EXPECT_EQ(knowledge.grammar.beta(index).root_label(), extc);
    }
  }
  // No beta adjoins at plain expression nodes: the seed structure is
  // preserved except at designated extension points.
  EXPECT_FALSE(knowledge.grammar.HasCompatibleBeta(t::kExpSymbol));
}

TEST(RiverGrammarTest, Ext1ConnectorsUseAdditionOnly) {
  const RiverPriorKnowledge knowledge = BuildRiverPriorKnowledge();
  for (int index : knowledge.grammar.BetasWithRootLabel("ExtC1")) {
    const t::ElementaryTree& beta = knowledge.grammar.beta(index);
    EXPECT_EQ(beta.root().op, e::NodeKind::kAdd) << beta.name();
  }
  for (int index : knowledge.grammar.BetasWithRootLabel("ExtC9")) {
    const t::ElementaryTree& beta = knowledge.grammar.beta(index);
    EXPECT_EQ(beta.root().op, e::NodeKind::kMul) << beta.name();
  }
}

TEST(RiverGrammarTest, ExtensionVariablesMatchTableII) {
  const RiverPriorKnowledge knowledge = BuildRiverPriorKnowledge();
  // Collect the variables reachable through Ext1 revisions.
  auto vars_for = [&](const std::string& label) {
    std::set<int> slots;
    for (int index : knowledge.grammar.BetasWithRootLabel(label)) {
      // Inspect the elementary tree's leaves directly.
      std::vector<const t::TagNode*> stack{&knowledge.grammar.beta(index)
                                                .root()};
      while (!stack.empty()) {
        const t::TagNode* top = stack.back();
        stack.pop_back();
        if (top->kind == t::TagNode::Kind::kLeaf && top->leaf != nullptr) {
          for (int slot : e::ReferencedVariableSlots(*top->leaf)) {
            slots.insert(slot);
          }
        }
        for (const auto& child : top->children) stack.push_back(child.get());
      }
    }
    return slots;
  };
  EXPECT_EQ(vars_for("ExtC1"),
            (std::set<int>{r::kVcd, r::kVph, r::kValk}));
  EXPECT_EQ(vars_for("ExtC2"), (std::set<int>{r::kVsd}));
  EXPECT_EQ(vars_for("ExtC3"),
            (std::set<int>{r::kVdo, r::kVph, r::kValk}));
  EXPECT_EQ(vars_for("ExtC5"), (std::set<int>{r::kVtmp}));
}


TEST(RiverGrammarTest, ConnectorsIntroduceScaledOperands) {
  // Connector beta trees enter with `var * R` (R a lexeme slot) so that
  // revisions start at a tunable magnitude; see river_grammar.cc.
  const RiverPriorKnowledge knowledge = BuildRiverPriorKnowledge();
  for (int index : knowledge.grammar.BetasWithRootLabel("ExtC1")) {
    const t::ElementaryTree& beta = knowledge.grammar.beta(index);
    // Every connector exposes exactly one open R slot.
    ASSERT_EQ(beta.slot_labels().size(), 1u) << beta.name();
    EXPECT_EQ(beta.slot_labels()[0], "R") << beta.name();
  }
}

TEST(RiverGrammarTest, RandomRevisionsStayValidAndLowerable) {
  const RiverPriorKnowledge knowledge = BuildRiverPriorKnowledge();
  Rng rng(33);
  for (int trial = 0; trial < 10; ++trial) {
    tag::DerivationPtr genotype = t::GrowRandom(
        knowledge.grammar, knowledge.seed_alpha_index, 12, rng);
    std::string error;
    ASSERT_TRUE(t::Validate(knowledge.grammar, *genotype, &error)) << error;
    const auto equations =
        t::ExpandToExpressions(knowledge.grammar, *genotype);
    ASSERT_EQ(equations.size(), 2u);
  }
}

// ExpandToExpressions lowers straight from the grammar's plans; it must
// print and hash like the textbook clone, adjoin and lower of the derived
// tree on every derivation the search can reach.
void ExpectLoweringMatchesReference(const t::Grammar& grammar,
                                    const t::DerivationNode& derivation) {
  const auto direct = t::ExpandToExpressions(grammar, derivation);
  const auto reference =
      t::LowerToExpressions(*t::Expand(grammar, derivation));
  ASSERT_EQ(direct.size(), reference.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(e::ToSExpression(*direct[i]), e::ToSExpression(*reference[i]))
        << "equation " << i;
    EXPECT_EQ(direct[i]->StructuralHash(), reference[i]->StructuralHash())
        << "equation " << i;
  }
}

TEST(RiverGrammarTest, LoweringMatchesReferenceExpansionUnderEveryMove) {
  const RiverPriorKnowledge grammars[] = {
      BuildRiverPriorKnowledge(),
      BuildTransportPriorKnowledge(r::ConstituentSet::Transport(5))};
  const gp::SizeBounds bounds{1, 50};
  Rng rng(21);
  for (const RiverPriorKnowledge& knowledge : grammars) {
    const t::Grammar& grammar = knowledge.grammar;
    for (std::size_t size = 1; size <= 50; ++size) {
      gp::Individual a;
      a.genotype =
          t::GrowRandom(grammar, knowledge.seed_alpha_index, size, rng);
      a.parameters = gp::PriorMeans(knowledge.priors);
      gp::Individual b;
      b.genotype =
          t::GrowRandom(grammar, knowledge.seed_alpha_index, size, rng);
      b.parameters = a.parameters;
      ExpectLoweringMatchesReference(grammar, *a.genotype);
      for (int move = 0; move < 20; ++move) {
        switch (rng.UniformInt(std::uint64_t{5})) {
          case 0:
            gp::PointInsertion(grammar, bounds, &a, rng);
            break;
          case 1:
            gp::PointDeletion(bounds, &a, rng);
            break;
          case 2:
            gp::Crossover(grammar, bounds, /*max_retries=*/5, &a, &b, rng);
            break;
          case 3:
            gp::SubtreeMutation(grammar, bounds, &a, rng);
            break;
          default:
            gp::GaussianMutation(knowledge.priors, 1.0, &a, rng);
            break;
        }
      }
      std::string error;
      ASSERT_TRUE(t::Validate(grammar, *a.genotype, &error)) << error;
      ExpectLoweringMatchesReference(grammar, *a.genotype);
      ExpectLoweringMatchesReference(grammar, *b.genotype);
    }
  }
}

TEST(RiverGrammarTest, PriorsAreTableIII) {
  const RiverPriorKnowledge knowledge = BuildRiverPriorKnowledge();
  EXPECT_EQ(knowledge.priors.size(),
            static_cast<std::size_t>(r::kNumParameters));
}

// ----------------------------------------------------------------- GMR ----

river::RiverDataset QuickDataset() {
  river::SyntheticConfig config;
  config.years = 2;
  config.train_years = 1;
  config.seed = 3;
  return river::GenerateNakdongLike(config);
}

TEST(GmrTest, EvaluateAccuracyIsFiniteAndConsistent) {
  const river::RiverDataset dataset = QuickDataset();
  const auto report = EvaluateAccuracy(
      r::ManualProcess(), gp::PriorMeans(r::RiverParameterPriors()), dataset,
      river::SimulationConfig{});
  EXPECT_TRUE(std::isfinite(report.train_rmse));
  EXPECT_TRUE(std::isfinite(report.test_rmse));
  EXPECT_LE(report.train_mae, report.train_rmse);
  EXPECT_LE(report.test_mae, report.test_rmse);
}

TEST(GmrTest, ShortRunImprovesOnManual) {
  const river::RiverDataset dataset = QuickDataset();
  const RiverPriorKnowledge knowledge = BuildRiverPriorKnowledge();
  GmrConfig config;
  config.tag3p.population_size = 16;
  config.tag3p.max_generations = 5;
  config.tag3p.local_search_steps = 1;
  config.tag3p.sigma_rampdown_generations = 2;
  config.tag3p.seed = 7;
  const GmrRunResult result = RunGmr(dataset, knowledge, config);

  const auto manual = EvaluateAccuracy(
      r::ManualProcess(), gp::PriorMeans(knowledge.priors), dataset,
      river::SimulationConfig{});
  EXPECT_LT(result.train_rmse, manual.train_rmse);
  ASSERT_EQ(result.best_equations.size(), 2u);
  EXPECT_FALSE(DescribeModel(result.best_equations).empty());
}

TEST(GmrTest, RunIsDeterministicForSeed) {
  const river::RiverDataset dataset = QuickDataset();
  const RiverPriorKnowledge knowledge = BuildRiverPriorKnowledge();
  GmrConfig config;
  config.tag3p.population_size = 10;
  config.tag3p.max_generations = 3;
  config.tag3p.local_search_steps = 1;
  config.tag3p.seed = 77;
  const GmrRunResult a = RunGmr(dataset, knowledge, config);
  const GmrRunResult b = RunGmr(dataset, knowledge, config);
  EXPECT_DOUBLE_EQ(a.best.fitness, b.best.fitness);
  EXPECT_DOUBLE_EQ(a.train_rmse, b.train_rmse);
}

// ------------------------------------------------------------ analysis ----

TEST(AnalysisTest, SelectivityCountsVariablePresence) {
  const river::RiverDataset dataset = QuickDataset();
  // Two models: MANUAL (has V_lgt, V_tmp but no V_ph), and MANUAL + a pH
  // term.
  CandidateModel manual;
  manual.equations = r::ManualProcess();
  manual.parameters = gp::PriorMeans(r::RiverParameterPriors());

  CandidateModel with_ph = manual;
  with_ph.equations[0] =
      e::Add(with_ph.equations[0],
             e::Mul(e::Constant(0.5), r::Var(r::kVph)));

  SelectivityConfig config;
  config.slots = {r::kVlgt, r::kVph};
  const SelectivityReport report =
      AnalyzeSelectivity({manual, with_ph}, dataset, config);
  ASSERT_EQ(report.entries.size(), 2u);
  EXPECT_DOUBLE_EQ(report.entries[0].selected_pct, 100.0);  // V_lgt in both
  EXPECT_DOUBLE_EQ(report.entries[1].selected_pct, 50.0);   // V_ph in one
  // Category percentages partition the selected percentage.
  for (const auto& entry : report.entries) {
    EXPECT_NEAR(entry.correlated_pct + entry.inversely_correlated_pct +
                    entry.uncorrelated_pct,
                entry.selected_pct, 1e-9);
  }
}

TEST(AnalysisTest, PerturbationResponseSignMatchesTermSign) {
  const river::RiverDataset dataset = QuickDataset();
  CandidateModel model;
  model.equations = r::ManualProcess();
  model.parameters = gp::PriorMeans(r::RiverParameterPriors());
  // Add a strongly positive pH source term: perturbing pH up must raise
  // biomass.
  model.equations[0] = e::Add(model.equations[0],
                              e::Mul(e::Constant(2.0), r::Var(r::kVph)));
  const double response = PerturbationResponse(
      model, dataset, r::kVph, 0.10, river::SimulationConfig{});
  EXPECT_GT(response, 0.0);
}

}  // namespace
}  // namespace gmr::core
