#include <gtest/gtest.h>

#include "common/rng.h"
#include "expr/eval.h"
#include "expr/print.h"
#include "tag/derivation.h"
#include "tag/generate.h"
#include "tag/grammar.h"
#include "tag/tag_tree.h"

namespace gmr::tag {
namespace {

namespace e = gmr::expr;

// Builds the paper's Figure 3 alpha tree: B_Phy * mu_Phy with all interior
// nodes labeled Exp (variable slots: 0 = B_Phy, 1 = mu_Phy).
TagNodePtr Figure3Alpha() {
  std::vector<TagNodePtr> children;
  children.push_back(LeafNode(e::Variable(0, "B_Phy")));
  children.push_back(LeafNode(e::Variable(1, "mu_Phy")));
  return OperatorNode(kExpSymbol, e::NodeKind::kMul, std::move(children));
}

// Figure 3(b) beta tree: Exp -> Exp* - R(slot).
TagNodePtr Figure3Beta() {
  std::vector<TagNodePtr> children;
  children.push_back(FootNode(kExpSymbol));
  children.push_back(SlotNode("R"));
  return OperatorNode(kExpSymbol, e::NodeKind::kSub, std::move(children));
}

// ---------------------------------------------------------- TagNode -------

TEST(TagTreeTest, CloneIsDeepAndEqual) {
  TagNodePtr original = Figure3Alpha();
  TagNodePtr copy = original->Clone();
  EXPECT_NE(original.get(), copy.get());
  EXPECT_EQ(copy->NodeCount(), original->NodeCount());
  EXPECT_EQ(copy->kind, original->kind);
  EXPECT_NE(original->children[0].get(), copy->children[0].get());
}

TEST(TagTreeTest, FromExprRoundTripsThroughLowering) {
  const e::ExprPtr source =
      e::Add(e::Mul(e::Variable(0, "x"), e::Constant(2.0)),
             e::Parameter(1, "C"));
  TagNodePtr tree = FromExpr(source, kExpSymbol);
  const auto equations = LowerToExpressions(*tree);
  ASSERT_EQ(equations.size(), 1u);
  EXPECT_TRUE(e::StructurallyEqual(*equations[0], *source));
}

TEST(TagTreeTest, SystemNodeLowersToMultipleEquations) {
  std::vector<TagNodePtr> eqs;
  eqs.push_back(FromExpr(e::Constant(1.0), kExpSymbol));
  eqs.push_back(FromExpr(e::Constant(2.0), kExpSymbol));
  TagNodePtr system = SystemNode(std::move(eqs));
  const auto equations = LowerToExpressions(*system);
  ASSERT_EQ(equations.size(), 2u);
  EXPECT_DOUBLE_EQ(equations[0]->value(), 1.0);
  EXPECT_DOUBLE_EQ(equations[1]->value(), 2.0);
}

TEST(TagTreeTest, IsCompletedDetectsSlotsAndFeet) {
  EXPECT_TRUE(IsCompleted(*Figure3Alpha()));
  EXPECT_FALSE(IsCompleted(*Figure3Beta()));
  TagNodePtr slot_only = SlotNode("R");
  EXPECT_FALSE(IsCompleted(*slot_only));
}

// ----------------------------------------------------- ElementaryTree -----

TEST(ElementaryTreeTest, IndexesAdjoinableAndSlots) {
  ElementaryTree alpha("fig3a", Figure3Alpha());
  EXPECT_FALSE(alpha.IsAuxiliary());
  ASSERT_EQ(alpha.adjoinable_labels().size(), 1u);  // the root Exp node
  EXPECT_EQ(alpha.adjoinable_labels()[0], kExpSymbol);
  EXPECT_TRUE(alpha.slot_labels().empty());

  ElementaryTree beta("fig3b", Figure3Beta());
  EXPECT_TRUE(beta.IsAuxiliary());
  ASSERT_EQ(beta.slot_labels().size(), 1u);
  EXPECT_EQ(beta.slot_labels()[0], "R");
}

TEST(ElementaryTreeTest, InstantiateTracksPointers) {
  ElementaryTree beta("fig3b", Figure3Beta());
  ElementaryTree::Instance instance = beta.Instantiate();
  ASSERT_EQ(instance.adjoinable.size(), 1u);
  ASSERT_EQ(instance.slots.size(), 1u);
  ASSERT_NE(instance.foot, nullptr);
  EXPECT_EQ(instance.foot->label, kExpSymbol);
}

// ------------------------------------------------- Adjoin/Substitute ------

TEST(AdjoinTest, PaperFigure3Example) {
  // Adjoining Exp* - R into the root of B_Phy * mu_Phy, then substituting
  // 1.5, must yield B_Phy * mu_Phy - 1.5 ... adjunction at the ROOT wraps
  // the whole product: (B_Phy * mu_Phy) - 1.5.
  ElementaryTree alpha("fig3a", Figure3Alpha());
  ElementaryTree beta("fig3b", Figure3Beta());

  ElementaryTree::Instance tree = alpha.Instantiate();
  ElementaryTree::Instance aux = beta.Instantiate();
  TagNode* slot = aux.slots[0];
  Adjoin(&tree.root, tree.adjoinable[0], std::move(aux));
  SubstituteLexeme(slot, e::Constant(1.5));

  ASSERT_TRUE(IsCompleted(*tree.root));
  const auto equations = LowerToExpressions(*tree.root);
  ASSERT_EQ(equations.size(), 1u);
  EXPECT_EQ(e::ToString(*equations[0]), "B_Phy * mu_Phy - 1.5");

  std::vector<double> vars{2.0, 3.0};
  e::EvalContext ctx;
  ctx.variables = vars.data();
  ctx.num_variables = vars.size();
  EXPECT_DOUBLE_EQ(e::EvalExpr(*equations[0], ctx), 2.0 * 3.0 - 1.5);
}

TEST(AdjoinTest, AdjoiningAtInteriorNode) {
  // Alpha: (x + y) * z with Exp labels; adjoin Exp* - R at the (x + y) node.
  std::vector<TagNodePtr> sum_children;
  sum_children.push_back(LeafNode(e::Variable(0, "x")));
  sum_children.push_back(LeafNode(e::Variable(1, "y")));
  TagNodePtr sum =
      OperatorNode(kExpSymbol, e::NodeKind::kAdd, std::move(sum_children));
  std::vector<TagNodePtr> top_children;
  top_children.push_back(std::move(sum));
  top_children.push_back(LeafNode(e::Variable(2, "z")));
  ElementaryTree alpha(
      "a", OperatorNode(kExpSymbol, e::NodeKind::kMul,
                        std::move(top_children)));
  ASSERT_EQ(alpha.adjoinable_labels().size(), 2u);  // root and the sum

  ElementaryTree beta("b", Figure3Beta());
  ElementaryTree::Instance tree = alpha.Instantiate();
  ElementaryTree::Instance aux = beta.Instantiate();
  TagNode* slot = aux.slots[0];
  // adjoinable[1] is the interior (x + y) node (preorder).
  Adjoin(&tree.root, tree.adjoinable[1], std::move(aux));
  SubstituteLexeme(slot, e::Constant(4.0));
  const auto equations = LowerToExpressions(*tree.root);
  EXPECT_EQ(e::ToString(*equations[0]), "(x + y - 4) * z");
}

// ----------------------------------------------------------- Grammar ------

Grammar MakeToyGrammar() {
  Grammar grammar;
  grammar.AddAlphaTree(ElementaryTree("alpha", Figure3Alpha()));
  grammar.AddBetaTree(ElementaryTree("beta", Figure3Beta()));
  grammar.SetSlotSpec("R", SlotSpec{0.0, 1.0});
  return grammar;
}

TEST(GrammarTest, LookupByRootLabel) {
  Grammar grammar = MakeToyGrammar();
  EXPECT_EQ(grammar.num_alpha_trees(), 1u);
  EXPECT_EQ(grammar.num_beta_trees(), 1u);
  EXPECT_TRUE(grammar.HasCompatibleBeta(kExpSymbol));
  EXPECT_FALSE(grammar.HasCompatibleBeta("Nope"));
  EXPECT_EQ(grammar.BetasWithRootLabel(kExpSymbol).size(), 1u);
}

TEST(GrammarTest, SlotSpecDefaultsAndOverrides) {
  Grammar grammar = MakeToyGrammar();
  EXPECT_DOUBLE_EQ(grammar.slot_spec("R").lo, 0.0);
  EXPECT_DOUBLE_EQ(grammar.slot_spec("R").hi, 1.0);
  grammar.SetSlotSpec("R", SlotSpec{-2.0, 2.0});
  EXPECT_DOUBLE_EQ(grammar.slot_spec("R").lo, -2.0);
  EXPECT_DOUBLE_EQ(grammar.slot_spec("unset").hi, 1.0);
}

// -------------------------------------------------------- Derivation ------

TEST(DerivationTest, ExpandChainOfAdjunctions) {
  Grammar grammar = MakeToyGrammar();
  // root (alpha), one child adjoined at address 0, grandchild at the
  // child's root address. Result: ((B*mu - r1) - r2) depending on
  // addresses; the child beta has adjoinable nodes too.
  auto root = std::make_unique<DerivationNode>();
  root->tree_index = 0;
  auto child = std::make_unique<DerivationNode>();
  child->tree_index = 0;
  child->lexemes = {0.25};
  auto grandchild = std::make_unique<DerivationNode>();
  grandchild->tree_index = 0;
  grandchild->lexemes = {0.5};
  child->children.push_back({0, std::move(grandchild)});
  root->children.push_back({0, std::move(child)});

  std::string error;
  ASSERT_TRUE(Validate(grammar, *root, &error)) << error;
  const auto equations = ExpandToExpressions(grammar, *root);
  ASSERT_EQ(equations.size(), 1u);
  // Child adjoins at alpha root: (B*mu) - 0.25. Grandchild adjoins at the
  // child's own root node: ((B*mu) - 0.25) - 0.5.
  EXPECT_EQ(e::ToString(*equations[0]), "B_Phy * mu_Phy - 0.25 - 0.5");
}

TEST(DerivationTest, ValidateRejectsBadAddress) {
  Grammar grammar = MakeToyGrammar();
  auto root = std::make_unique<DerivationNode>();
  root->tree_index = 0;
  auto child = std::make_unique<DerivationNode>();
  child->tree_index = 0;
  child->lexemes = {0.1};
  root->children.push_back({5, std::move(child)});  // out of range
  std::string error;
  EXPECT_FALSE(Validate(grammar, *root, &error));
}

TEST(DerivationTest, ValidateRejectsDuplicateAddress) {
  Grammar grammar = MakeToyGrammar();
  auto root = std::make_unique<DerivationNode>();
  root->tree_index = 0;
  for (int i = 0; i < 2; ++i) {
    auto child = std::make_unique<DerivationNode>();
    child->tree_index = 0;
    child->lexemes = {0.1};
    root->children.push_back({0, std::move(child)});
  }
  std::string error;
  EXPECT_FALSE(Validate(grammar, *root, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos);
}

TEST(DerivationTest, ValidateRejectsWrongLexemeCount) {
  Grammar grammar = MakeToyGrammar();
  auto root = std::make_unique<DerivationNode>();
  root->tree_index = 0;
  auto child = std::make_unique<DerivationNode>();
  child->tree_index = 0;  // beta has 1 slot, no lexemes given
  root->children.push_back({0, std::move(child)});
  std::string error;
  EXPECT_FALSE(Validate(grammar, *root, &error));
}

TEST(DerivationTest, CloneIsIndependent) {
  Grammar grammar = MakeToyGrammar();
  Rng rng(5);
  DerivationPtr root = GrowRandom(grammar, 0, 5, rng);
  DerivationPtr copy = root->Clone();
  EXPECT_EQ(copy->NodeCount(), root->NodeCount());
  // Mutating the copy must not affect the original.
  if (!copy->children.empty()) {
    copy->children.clear();
    EXPECT_GT(root->NodeCount(), copy->NodeCount());
  }
}

// ---------------------------------------------------- Direct lowering ----

// A two-equation system for the lowering cases (variables x, y, z, w):
//   eq0 = {x * y} ExtA      eq1 = {z + 2} ExtB
// Alpha addresses in preorder: 0 = ExtA wrapper, 1 = x * y (Exp),
// 2 = ExtB wrapper, 3 = z + 2 (Exp). Betas:
//   0: ExtA -> ExtA* - R
//   1: ExtA -> ExtA* * (R * y + R)  address 1 = (R * y + R), labeled Exp
//   2: Exp  -> Exp* + R
//   3: ExtB -> ExtB* / (x * w)    address 1 = (x * w): no slot, no foot
TagNodePtr Binary(Symbol label, e::NodeKind op, TagNodePtr a, TagNodePtr b) {
  std::vector<TagNodePtr> children;
  children.push_back(std::move(a));
  children.push_back(std::move(b));
  return OperatorNode(std::move(label), op, std::move(children));
}

TagNodePtr Var(int slot, const char* name) {
  return LeafNode(e::Variable(slot, name));
}

Grammar MakeSystemGrammar() {
  using K = e::NodeKind;
  Grammar grammar;
  std::vector<TagNodePtr> equations;
  equations.push_back(WrapperNode(
      "ExtA", Binary(kExpSymbol, K::kMul, Var(0, "x"), Var(1, "y"))));
  equations.push_back(
      WrapperNode("ExtB", Binary(kExpSymbol, K::kAdd, Var(2, "z"),
                                 LeafNode(e::Constant(2.0)))));
  grammar.AddAlphaTree(
      ElementaryTree("system", SystemNode(std::move(equations))));
  grammar.AddBetaTree(ElementaryTree(
      "sub", Binary("ExtA", K::kSub, FootNode("ExtA"), SlotNode("R"))));
  grammar.AddBetaTree(ElementaryTree(
      "scale",
      Binary("ExtA", K::kMul, FootNode("ExtA"),
             Binary(kExpSymbol, K::kAdd,
                    Binary(kExpSymbol, K::kMul, SlotNode("R"), Var(1, "y")),
                    SlotNode("R")))));
  grammar.AddBetaTree(ElementaryTree(
      "shift", Binary(kExpSymbol, K::kAdd, FootNode(kExpSymbol),
                      SlotNode("R"))));
  grammar.AddBetaTree(ElementaryTree(
      "ratio", Binary("ExtB", K::kDiv, FootNode("ExtB"),
                      Binary(kExpSymbol, K::kMul, Var(0, "x"),
                             Var(3, "w")))));
  return grammar;
}

DerivationPtr MakeNode(int tree_index, std::vector<double> lexemes = {}) {
  auto node = std::make_unique<DerivationNode>();
  node->tree_index = tree_index;
  node->lexemes = std::move(lexemes);
  return node;
}

DerivationNode* AdjoinAt(DerivationNode* parent, int address,
                         DerivationPtr child) {
  parent->children.push_back({address, std::move(child)});
  return parent->children.back().node.get();
}

// Lowers `root` directly, expects the reference expansion's S-expressions,
// and returns the infix text of each equation.
std::vector<std::string> LowerChecked(const Grammar& grammar,
                                      const DerivationNode& root,
                                      std::vector<e::ExprPtr>* out = nullptr) {
  const auto direct = ExpandToExpressions(grammar, root);
  const auto reference = LowerToExpressions(*Expand(grammar, root));
  EXPECT_EQ(direct.size(), reference.size());
  std::vector<std::string> text;
  for (std::size_t i = 0; i < direct.size() && i < reference.size(); ++i) {
    EXPECT_EQ(e::ToSExpression(*direct[i]), e::ToSExpression(*reference[i]))
        << "equation " << i;
    EXPECT_EQ(direct[i]->StructuralHash(), reference[i]->StructuralHash());
    text.push_back(e::ToString(*direct[i]));
  }
  if (out != nullptr) *out = direct;
  return text;
}

TEST(DirectLoweringTest, AdjunctionAtAlphaRoot) {
  Grammar grammar = MakeToyGrammar();
  auto root = MakeNode(0);
  AdjoinAt(root.get(), 0, MakeNode(0, {0.25}));
  EXPECT_EQ(LowerChecked(grammar, *root),
            std::vector<std::string>{"B_Phy * mu_Phy - 0.25"});
}

TEST(DirectLoweringTest, AdjunctionAtWrapper) {
  Grammar grammar = MakeSystemGrammar();
  auto root = MakeNode(0);
  AdjoinAt(root.get(), 2, MakeNode(3));
  EXPECT_EQ(LowerChecked(grammar, *root),
            (std::vector<std::string>{"x * y", "(z + 2) / (x * w)"}));
}

TEST(DirectLoweringTest, BetaIntoBetaIntoBetaChain) {
  Grammar grammar = MakeSystemGrammar();
  auto root = MakeNode(0);
  DerivationNode* scale = AdjoinAt(root.get(), 0, MakeNode(1, {0.5, 2.0}));
  DerivationNode* shift = AdjoinAt(scale, 1, MakeNode(2, {0.25}));
  AdjoinAt(shift, 0, MakeNode(2, {0.125}));
  std::string error;
  ASSERT_TRUE(Validate(grammar, *root, &error)) << error;
  EXPECT_EQ(LowerChecked(grammar, *root),
            (std::vector<std::string>{
                "x * y * (0.5 * y + 2 + 0.25 + 0.125)", "z + 2"}));
}

TEST(DirectLoweringTest, AncestorAndDescendantAddressesInEitherOrder) {
  Grammar grammar = MakeSystemGrammar();
  for (const bool ancestor_first : {true, false}) {
    auto root = MakeNode(0);
    if (ancestor_first) AdjoinAt(root.get(), 0, MakeNode(0, {0.5}));
    AdjoinAt(root.get(), 1, MakeNode(2, {0.25}));
    if (!ancestor_first) AdjoinAt(root.get(), 0, MakeNode(0, {0.5}));
    EXPECT_EQ(LowerChecked(grammar, *root),
              (std::vector<std::string>{"x * y + 0.25 - 0.5", "z + 2"}))
        << "ancestor_first " << ancestor_first;
  }
}

TEST(DirectLoweringTest, DuplicateAddressNestsFirstAdjoinedOutermost) {
  // Validate rejects the duplicate, but the lowering accepts it like
  // repeated Adjoin calls at one node: the later beta wraps the target
  // inside the earlier one.
  Grammar grammar = MakeSystemGrammar();
  auto root = MakeNode(0);
  AdjoinAt(root.get(), 0, MakeNode(0, {0.25}));
  AdjoinAt(root.get(), 0, MakeNode(0, {0.5}));
  AdjoinAt(root.get(), 3, MakeNode(2, {1.0}));
  std::string error;
  EXPECT_FALSE(Validate(grammar, *root, &error));
  EXPECT_EQ(LowerChecked(grammar, *root),
            (std::vector<std::string>{"x * y - 0.5 - 0.25", "z + 2 + 1"}));
}

TEST(DirectLoweringTest, DisabledBetaStillLowers) {
  Grammar grammar = MakeSystemGrammar();
  auto root = MakeNode(0);
  AdjoinAt(root.get(), 0, MakeNode(0, {0.5}));
  const auto before = LowerChecked(grammar, *root);
  grammar.DisableAdjunction({0});
  EXPECT_TRUE(grammar.BetasWithRootLabel("ExtA") == std::vector<int>{1});
  EXPECT_EQ(LowerChecked(grammar, *root), before);
  EXPECT_EQ(before[0], "x * y - 0.5");
}

TEST(DirectLoweringTest, UntouchedSubtreesAreTheGrammarsOwnNodes) {
  Grammar grammar = MakeSystemGrammar();
  const DerivationNode bare;
  std::vector<e::ExprPtr> first;
  std::vector<e::ExprPtr> second;
  LowerChecked(grammar, bare, &first);
  LowerChecked(grammar, bare, &second);
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(first[0], second[0]);
  EXPECT_EQ(first[1], second[1]);

  // An adjunction inside equation 0 rebuilds only its path: equation 1 and
  // equation 0's untouched x * y stay shared.
  auto root = MakeNode(0);
  AdjoinAt(root.get(), 0, MakeNode(0, {0.5}));
  std::vector<e::ExprPtr> revised;
  LowerChecked(grammar, *root, &revised);
  ASSERT_EQ(revised.size(), 2u);
  EXPECT_NE(revised[0], first[0]);
  EXPECT_EQ(revised[0]->children()[0], first[0]);
  EXPECT_EQ(revised[1], first[1]);

  // A beta's slot-free, foot-free interior is shared between its uses.
  auto twice = MakeNode(0);
  DerivationNode* outer = AdjoinAt(twice.get(), 2, MakeNode(3));
  AdjoinAt(outer, 0, MakeNode(3));
  std::vector<e::ExprPtr> doubled;
  EXPECT_EQ(LowerChecked(grammar, *twice, &doubled)[1],
            "(z + 2) / (x * w) / (x * w)");
  EXPECT_EQ(doubled[1]->children()[1],
            doubled[1]->children()[0]->children()[1]);
}

// ----------------------------------------------------------- Generate -----

class GeneratePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GeneratePropertyTest, GrowRandomProducesValidDerivations) {
  Grammar grammar = MakeToyGrammar();
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 1);
  const std::size_t target = 2 + rng.UniformInt(std::uint64_t{10});
  DerivationPtr root = GrowRandom(grammar, 0, target, rng);
  std::string error;
  EXPECT_TRUE(Validate(grammar, *root, &error)) << error;
  EXPECT_GE(root->NodeCount(), 1u);
  const auto equations = ExpandToExpressions(grammar, *root);
  ASSERT_EQ(equations.size(), 1u);
}

TEST_P(GeneratePropertyTest, InsertAndDeletePreserveValidity) {
  Grammar grammar = MakeToyGrammar();
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 7);
  DerivationPtr root = GrowRandom(grammar, 0, 4, rng);
  for (int step = 0; step < 20; ++step) {
    if (rng.Bernoulli(0.5)) {
      InsertRandomBeta(grammar, root.get(), rng);
    } else {
      DeleteRandomLeaf(root.get(), rng);
    }
    std::string error;
    ASSERT_TRUE(Validate(grammar, *root, &error)) << error;
    ExpandToExpressions(grammar, *root);  // must not abort
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratePropertyTest, ::testing::Range(0, 25));

TEST(GenerateTest, DeleteOnRootOnlyTreeFails) {
  Grammar grammar = MakeToyGrammar();
  Rng rng(3);
  DerivationPtr root = NewSeedDerivation(grammar, 0, rng);
  EXPECT_FALSE(DeleteRandomLeaf(root.get(), rng));
}

TEST(GenerateTest, OpenSitesShrinkWhenOccupied) {
  Grammar grammar = MakeToyGrammar();
  Rng rng(9);
  DerivationPtr root = NewSeedDerivation(grammar, 0, rng);
  const auto before = CollectOpenSites(grammar, root.get());
  ASSERT_EQ(before.size(), 1u);  // alpha has one adjoinable node
  ASSERT_TRUE(InsertRandomBeta(grammar, root.get(), rng));
  const auto after = CollectOpenSites(grammar, root.get());
  // The alpha address is now occupied, but the new beta node contributes
  // its own adjoinable root.
  ASSERT_EQ(after.size(), 1u);
  EXPECT_NE(after[0].node, root.get());
}

TEST(GenerateTest, GrowRandomSubtreeMatchesLabel) {
  Grammar grammar = MakeToyGrammar();
  Rng rng(11);
  DerivationPtr subtree = GrowRandomSubtree(grammar, kExpSymbol, 3, rng);
  ASSERT_NE(subtree, nullptr);
  EXPECT_EQ(grammar.beta(subtree->tree_index).root_label(), kExpSymbol);
  EXPECT_EQ(GrowRandomSubtree(grammar, "Missing", 3, rng), nullptr);
}

TEST(GenerateTest, LexemesDrawnWithinSlotSpec) {
  Grammar grammar = MakeToyGrammar();
  grammar.SetSlotSpec("R", SlotSpec{2.0, 3.0});
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    DerivationPtr node = MakeRandomNode(grammar, 0, /*is_root=*/false, rng);
    ASSERT_EQ(node->lexemes.size(), 1u);
    EXPECT_GE(node->lexemes[0], 2.0);
    EXPECT_LT(node->lexemes[0], 3.0);
  }
}

}  // namespace
}  // namespace gmr::tag
