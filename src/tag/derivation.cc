#include "tag/derivation.h"

#include <algorithm>
#include <set>

#include "common/check.h"

namespace gmr::tag {

DerivationPtr DerivationNode::Clone() const {
  auto copy = std::make_unique<DerivationNode>();
  copy->tree_index = tree_index;
  copy->lexemes = lexemes;
  copy->children.reserve(children.size());
  for (const auto& child : children) {
    copy->children.push_back({child.address_index, child.node->Clone()});
  }
  return copy;
}

std::size_t DerivationNode::NodeCount() const {
  std::size_t count = 1;
  for (const auto& child : children) count += child.node->NodeCount();
  return count;
}

const ElementaryTree& ElementaryTreeOf(const Grammar& grammar,
                                       const DerivationNode& node,
                                       bool is_root) {
  return is_root ? grammar.alpha(node.tree_index)
                 : grammar.beta(node.tree_index);
}

namespace {

/// Expands one derivation node into an instantiated elementary tree with
/// all lexemes substituted and all child adjunctions applied.
ElementaryTree::Instance ExpandNode(const Grammar& grammar,
                                    const DerivationNode& node,
                                    bool is_root) {
  const ElementaryTree& elementary = ElementaryTreeOf(grammar, node, is_root);
  ElementaryTree::Instance instance = elementary.Instantiate();

  GMR_CHECK_EQ(node.lexemes.size(), instance.slots.size());
  for (std::size_t i = 0; i < instance.slots.size(); ++i) {
    SubstituteLexeme(instance.slots[i], expr::Constant(node.lexemes[i]));
  }

  for (const auto& child : node.children) {
    GMR_CHECK_GE(child.address_index, 0);
    GMR_CHECK_LT(static_cast<std::size_t>(child.address_index),
                 instance.adjoinable.size());
    ElementaryTree::Instance beta_instance =
        ExpandNode(grammar, *child.node, /*is_root=*/false);
    Adjoin(&instance.root,
           instance.adjoinable[static_cast<std::size_t>(child.address_index)],
           std::move(beta_instance));
  }
  return instance;
}

bool ValidateNode(const Grammar& grammar, const DerivationNode& node,
                  bool is_root, std::string* error) {
  const std::size_t table_size =
      is_root ? grammar.num_alpha_trees() : grammar.num_beta_trees();
  if (node.tree_index < 0 ||
      static_cast<std::size_t>(node.tree_index) >= table_size) {
    *error = "tree index out of range";
    return false;
  }
  const ElementaryTree& elementary = ElementaryTreeOf(grammar, node, is_root);
  if (node.lexemes.size() != elementary.slot_labels().size()) {
    *error = "lexeme count does not match slot count in " + elementary.name();
    return false;
  }
  std::set<int> used_addresses;
  for (const auto& child : node.children) {
    if (child.address_index < 0 ||
        static_cast<std::size_t>(child.address_index) >=
            elementary.adjoinable_labels().size()) {
      *error = "adjunction address out of range in " + elementary.name();
      return false;
    }
    if (!used_addresses.insert(child.address_index).second) {
      *error = "duplicate adjunction address in " + elementary.name();
      return false;
    }
    if (child.node == nullptr) {
      *error = "null child node";
      return false;
    }
    if (static_cast<std::size_t>(child.node->tree_index) >=
        grammar.num_beta_trees()) {
      *error = "child beta index out of range";
      return false;
    }
    const Symbol& site_label =
        elementary
            .adjoinable_labels()[static_cast<std::size_t>(child.address_index)];
    const Symbol& beta_label =
        grammar.beta(child.node->tree_index).root_label();
    if (site_label != beta_label) {
      *error = "beta root label '" + beta_label +
               "' does not match adjunction site '" + site_label + "'";
      return false;
    }
    if (!ValidateNode(grammar, *child.node, /*is_root=*/false, error)) {
      return false;
    }
  }
  return true;
}

void CollectRefs(DerivationNode* node, std::vector<NodeRef>* out) {
  for (std::size_t i = 0; i < node->children.size(); ++i) {
    out->push_back(NodeRef{node, i});
    CollectRefs(node->children[i].node.get(), out);
  }
}

}  // namespace

TagNodePtr Expand(const Grammar& grammar, const DerivationNode& root) {
  ElementaryTree::Instance instance =
      ExpandNode(grammar, root, /*is_root=*/true);
  GMR_CHECK(instance.foot == nullptr);
  return std::move(instance.root);
}

/// Lowers a derivation from its elementary trees' plans: the result of
/// ExpandNode + LowerToExpressions, without the derived tree.
class DerivationLowering {
 public:
  explicit DerivationLowering(const Grammar& grammar) : grammar_(grammar) {}

  std::vector<expr::ExprPtr> Equations(const DerivationNode& root) const {
    const ElementaryTree& alpha = grammar_.alpha(root.tree_index);
    GMR_CHECK_MSG(!alpha.IsAuxiliary(), "the root tree has a foot node");
    Frame frame = Open(alpha, root, nullptr);
    std::vector<expr::ExprPtr> equations;
    if (alpha.plan_[0].kind == TagNode::Kind::kSystem) {
      equations.reserve(static_cast<std::size_t>(alpha.plan_[0].num_children));
      for (int child = 1; child < alpha.plan_[0].end;
           child = alpha.plan_[static_cast<std::size_t>(child)].end) {
        equations.push_back(LowerAt(&frame, child));
      }
    } else {
      equations.push_back(LowerAt(&frame, 0));
    }
    GMR_CHECK_EQ(frame.next, frame.sites.size());
    return equations;
  }

 private:
  /// One derivation node being lowered over its elementary tree.
  struct Frame {
    const ElementaryTree* tree = nullptr;
    const DerivationNode* node = nullptr;
    /// The lowered adjunction target that replaces a beta's foot.
    const expr::ExprPtr* foot = nullptr;
    /// The node's adjunctions, stably sorted by address. Addresses follow
    /// the preorder the plan is walked in, so every site before `next` has
    /// been reached and `sites[next]` is the first one still ahead.
    std::vector<const DerivationNode::AdjunctionChild*> sites;
    std::size_t next = 0;
  };

  static Frame Open(const ElementaryTree& tree, const DerivationNode& node,
                    const expr::ExprPtr* foot) {
    GMR_CHECK_EQ(node.lexemes.size(), tree.slot_labels().size());
    Frame frame{&tree, &node, foot, {}, 0};
    frame.sites.reserve(node.children.size());
    for (const auto& child : node.children) {
      GMR_CHECK_GE(child.address_index, 0);
      GMR_CHECK_LT(static_cast<std::size_t>(child.address_index),
                   tree.adjoinable_labels().size());
      const auto after = std::upper_bound(
          frame.sites.begin(), frame.sites.end(), child.address_index,
          [](int address, const DerivationNode::AdjunctionChild* site) {
            return address < site->address_index;
          });
      frame.sites.insert(after, &child);
    }
    return frame;
  }

  expr::ExprPtr LowerAt(Frame* frame, int index) const {
    const ElementaryTree::PlanNode& node =
        frame->tree->plan_[static_cast<std::size_t>(index)];
    const bool touched =
        frame->next < frame->sites.size() &&
        frame->sites[frame->next]->address_index < node.address_end;
    if (!touched && node.lowered != nullptr) return node.lowered;

    // Take this node's own adjunctions before its descendants' (its address
    // precedes theirs); they wrap the node once its subtree is lowered.
    const bool adjoinable = node.kind == TagNode::Kind::kOperator ||
                            node.kind == TagNode::Kind::kWrapper;
    const std::size_t first = frame->next;
    while (adjoinable && frame->next < frame->sites.size() &&
           frame->sites[frame->next]->address_index == node.index) {
      ++frame->next;
    }
    const std::size_t last = frame->next;

    expr::ExprPtr lowered;
    switch (node.kind) {
      case TagNode::Kind::kLeaf:
        lowered = node.lowered;
        break;
      case TagNode::Kind::kSlot:
        lowered = expr::Constant(
            frame->node->lexemes[static_cast<std::size_t>(node.index)]);
        break;
      case TagNode::Kind::kFoot:
        GMR_CHECK_MSG(frame->foot != nullptr, "cannot lower a foot node");
        lowered = *frame->foot;
        break;
      case TagNode::Kind::kWrapper:
        GMR_CHECK_EQ(node.num_children, 1);
        lowered = LowerAt(frame, index + 1);
        break;
      case TagNode::Kind::kOperator: {
        const int arity = expr::Arity(node.op);
        GMR_CHECK_EQ(node.num_children, arity);
        GMR_CHECK_MSG(arity > 0, "operator node with a leaf kind");
        expr::ExprPtr a = LowerAt(frame, index + 1);
        if (arity == 1) {
          lowered = expr::MakeUnary(node.op, std::move(a));
          break;
        }
        const int second =
            frame->tree->plan_[static_cast<std::size_t>(index + 1)].end;
        lowered = expr::MakeBinary(node.op, std::move(a),
                                   LowerAt(frame, second));
        break;
      }
      case TagNode::Kind::kSystem:
        GMR_CHECK_MSG(false, "nested system node");
        break;
    }
    // The first-adjoined beta ends up outermost, as repeated Adjoin calls at
    // one node leave it.
    for (std::size_t k = last; k > first; --k) {
      const Symbol& label = frame->tree->adjoinable_labels()[
          static_cast<std::size_t>(node.index)];
      lowered = LowerBeta(*frame->sites[k - 1]->node, label, lowered);
    }
    return lowered;
  }

  /// Lowers the beta derivation `node` with `target` at its foot.
  expr::ExprPtr LowerBeta(const DerivationNode& node,
                          const Symbol& site_label,
                          const expr::ExprPtr& target) const {
    const ElementaryTree& beta = grammar_.beta(node.tree_index);
    GMR_CHECK_MSG(beta.IsAuxiliary(), "adjoined tree has no foot node");
    GMR_CHECK_MSG(beta.root_label() == site_label,
                  "adjunction label mismatch");
    Frame frame = Open(beta, node, &target);
    expr::ExprPtr lowered = LowerAt(&frame, 0);
    GMR_CHECK_EQ(frame.next, frame.sites.size());
    return lowered;
  }

  const Grammar& grammar_;
};

std::vector<expr::ExprPtr> ExpandToExpressions(const Grammar& grammar,
                                               const DerivationNode& root) {
  return DerivationLowering(grammar).Equations(root);
}

bool Validate(const Grammar& grammar, const DerivationNode& root,
              std::string* error) {
  return ValidateNode(grammar, root, /*is_root=*/true, error);
}

std::vector<NodeRef> CollectNodeRefs(DerivationNode* root) {
  std::vector<NodeRef> refs;
  CollectRefs(root, &refs);
  return refs;
}

}  // namespace gmr::tag
