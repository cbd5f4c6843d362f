#ifndef GMR_TAG_GRAMMAR_H_
#define GMR_TAG_GRAMMAR_H_

#include <map>
#include <string>
#include <vector>

#include "tag/tag_tree.h"

namespace gmr::tag {

/// Initialization range for the lexeme constants substituted into slots with
/// a given label. The paper's "R denotes a random variable between 0 and 1"
/// (Table II) corresponds to the default [0, 1]; Gaussian mutation may later
/// move lexemes outside the initialization range (revised models in the
/// paper contain constants such as 253.4).
struct SlotSpec {
  double lo = 0.0;
  double hi = 1.0;
};

/// The TAG quintuple (T, N, I, A, S) of Section III-A1, specialized to
/// process-equation generation: terminals are expression leaves/operators
/// (implicit in the trees), N is the set of labels in use, I the alpha
/// trees, A the beta trees. The first alpha tree added is conventionally the
/// expert seed process.
class Grammar {
 public:
  Grammar() = default;
  Grammar(Grammar&&) = default;
  Grammar& operator=(Grammar&&) = default;

  /// Registers an initial (alpha) tree; returns its index. The tree must not
  /// contain a foot node.
  int AddAlphaTree(ElementaryTree tree);

  /// Registers an auxiliary (beta) tree; returns its index. The tree must
  /// contain exactly one foot node labeled like its root.
  int AddBetaTree(ElementaryTree tree);

  /// Sets the lexeme initialization range for slots labeled `label`.
  void SetSlotSpec(const Symbol& label, SlotSpec spec);

  std::size_t num_alpha_trees() const { return alpha_trees_.size(); }
  std::size_t num_beta_trees() const { return beta_trees_.size(); }

  const ElementaryTree& alpha(int index) const;
  const ElementaryTree& beta(int index) const;

  /// Indices of beta trees whose root label is `label` (those adjoinable at
  /// a node with that label). Empty when none exist.
  const std::vector<int>& BetasWithRootLabel(const Symbol& label) const;

  /// True when at least one beta tree can adjoin at a `label` node.
  bool HasCompatibleBeta(const Symbol& label) const {
    return !BetasWithRootLabel(label).empty();
  }

  /// Every elementary tree's LoweredSubtrees, alphas then betas, each
  /// tree's children before their parents: the grammar-owned nodes a
  /// phenotype can share.
  std::vector<expr::ExprPtr> LoweredSubtrees() const;

  /// Lexeme spec for slots labeled `label` (default [0, 1]).
  SlotSpec slot_spec(const Symbol& label) const;

  /// Removes the given beta trees from the adjunction candidate lists
  /// (BetasWithRootLabel / HasCompatibleBeta), so no new derivation step
  /// can select them. The trees themselves stay registered: beta(index)
  /// remains valid and indices of other betas do not shift, so existing
  /// derivation trees that reference a disabled beta still expand. Used by
  /// the grammar-level dimension pruning (analysis/grammar_lint.h).
  void DisableAdjunction(const std::vector<int>& beta_indices);

 private:
  std::vector<ElementaryTree> alpha_trees_;
  std::vector<ElementaryTree> beta_trees_;
  std::map<Symbol, std::vector<int>> betas_by_root_;
  std::map<Symbol, SlotSpec> slot_specs_;
  std::vector<int> empty_;
};

}  // namespace gmr::tag

#endif  // GMR_TAG_GRAMMAR_H_
