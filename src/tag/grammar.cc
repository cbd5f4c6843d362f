#include "tag/grammar.h"

#include <algorithm>

#include "common/check.h"

namespace gmr::tag {

int Grammar::AddAlphaTree(ElementaryTree tree) {
  GMR_CHECK_MSG(!tree.IsAuxiliary(), "alpha trees must not have a foot node");
  alpha_trees_.push_back(std::move(tree));
  return static_cast<int>(alpha_trees_.size()) - 1;
}

int Grammar::AddBetaTree(ElementaryTree tree) {
  GMR_CHECK_MSG(tree.IsAuxiliary(), "beta trees must have a foot node");
  const int index = static_cast<int>(beta_trees_.size());
  betas_by_root_[tree.root_label()].push_back(index);
  beta_trees_.push_back(std::move(tree));
  return index;
}

void Grammar::SetSlotSpec(const Symbol& label, SlotSpec spec) {
  GMR_CHECK_LE(spec.lo, spec.hi);
  slot_specs_[label] = spec;
}

const ElementaryTree& Grammar::alpha(int index) const {
  GMR_CHECK_GE(index, 0);
  GMR_CHECK_LT(static_cast<std::size_t>(index), alpha_trees_.size());
  return alpha_trees_[static_cast<std::size_t>(index)];
}

const ElementaryTree& Grammar::beta(int index) const {
  GMR_CHECK_GE(index, 0);
  GMR_CHECK_LT(static_cast<std::size_t>(index), beta_trees_.size());
  return beta_trees_[static_cast<std::size_t>(index)];
}

const std::vector<int>& Grammar::BetasWithRootLabel(
    const Symbol& label) const {
  auto it = betas_by_root_.find(label);
  if (it == betas_by_root_.end()) return empty_;
  return it->second;
}

void Grammar::DisableAdjunction(const std::vector<int>& beta_indices) {
  for (const int index : beta_indices) {
    GMR_CHECK_GE(index, 0);
    GMR_CHECK_LT(static_cast<std::size_t>(index), beta_trees_.size());
    const Symbol& label =
        beta_trees_[static_cast<std::size_t>(index)].root_label();
    auto it = betas_by_root_.find(label);
    if (it == betas_by_root_.end()) continue;
    std::vector<int>& candidates = it->second;
    candidates.erase(std::remove(candidates.begin(), candidates.end(), index),
                     candidates.end());
    if (candidates.empty()) betas_by_root_.erase(it);
  }
}

std::vector<expr::ExprPtr> Grammar::LoweredSubtrees() const {
  std::vector<expr::ExprPtr> subtrees;
  for (const auto* trees : {&alpha_trees_, &beta_trees_}) {
    for (const ElementaryTree& tree : *trees) {
      const std::vector<expr::ExprPtr> own = tree.LoweredSubtrees();
      subtrees.insert(subtrees.end(), own.begin(), own.end());
    }
  }
  return subtrees;
}

SlotSpec Grammar::slot_spec(const Symbol& label) const {
  auto it = slot_specs_.find(label);
  if (it == slot_specs_.end()) return SlotSpec{};
  return it->second;
}

}  // namespace gmr::tag
