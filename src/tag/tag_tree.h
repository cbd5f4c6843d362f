#ifndef GMR_TAG_TAG_TREE_H_
#define GMR_TAG_TAG_TREE_H_

#include <memory>
#include <string>
#include <vector>

#include "expr/ast.h"

namespace gmr::tag {

/// Non-terminal symbol of the tree-adjoining grammar. Plain expression
/// nodes are labeled "Exp"; extension points use connector/extender labels
/// such as "ExtC1"/"ExtE1" (paper Section III-B3), which is what restricts
/// where each auxiliary tree may adjoin.
using Symbol = std::string;

/// The generic expression label.
inline const char kExpSymbol[] = "Exp";

struct TagNode;
using TagNodePtr = std::unique_ptr<TagNode>;

/// Node of an elementary or derived TAG tree.
///
/// The object-tree encoding follows Figures 3 and 7 of the paper: interior
/// nodes carry an operator (the Op child of the figures is folded into the
/// node), wrapper nodes mark extension points, frontier nodes are either
/// expression leaves, substitution slots (marked with a down-arrow in the
/// paper), or the auxiliary tree's foot node (marked with an asterisk).
struct TagNode {
  enum class Kind {
    kOperator,  ///< Interior node applying an expr operator to its children.
    kWrapper,   ///< Labeled pass-through with exactly one child (Ext point).
    kSystem,    ///< Root-only: a system of equations, one child per equation.
    kLeaf,      ///< Frontier: a concrete expression leaf.
    kSlot,      ///< Frontier: open substitution site (lexicon) awaiting a
                ///< lexeme; labeled with the slot symbol (e.g. "R").
    kFoot,      ///< Frontier of an auxiliary tree: the foot node.
  };

  Kind kind = Kind::kLeaf;
  /// Non-terminal label; meaningful for every kind except kLeaf.
  Symbol label;
  /// Operator for kOperator nodes.
  expr::NodeKind op = expr::NodeKind::kAdd;
  /// Payload for kLeaf nodes (and for kSlot nodes once filled).
  expr::ExprPtr leaf;
  std::vector<TagNodePtr> children;

  /// Deep copy.
  TagNodePtr Clone() const;

  /// Number of nodes in this subtree.
  std::size_t NodeCount() const;
};

/// Factory helpers for building elementary trees.
TagNodePtr OperatorNode(Symbol label, expr::NodeKind op,
                        std::vector<TagNodePtr> children);
TagNodePtr WrapperNode(Symbol label, TagNodePtr child);
TagNodePtr SystemNode(std::vector<TagNodePtr> equations);
TagNodePtr LeafNode(expr::ExprPtr leaf);
TagNodePtr SlotNode(Symbol label);
TagNodePtr FootNode(Symbol label);

/// Converts a plain expression into a TAG tree whose interior nodes are all
/// labeled `label`. Used for seeds without designated extension points.
TagNodePtr FromExpr(const expr::ExprPtr& e, const Symbol& label);

/// An elementary tree: an alpha (initial) tree when it has no foot node, or
/// a beta (auxiliary) tree whose foot node's label equals the root label.
/// Construction scans the tree once to index the adjoinable interior nodes
/// and the open substitution slots, and to record the lowering plan that
/// ExpandToExpressions (derivation.h) reads instead of the tree.
class ElementaryTree {
 public:
  /// Takes ownership of `root`. `name` is used in diagnostics and printing.
  ElementaryTree(std::string name, TagNodePtr root);

  ElementaryTree(ElementaryTree&&) = default;
  ElementaryTree& operator=(ElementaryTree&&) = default;

  const std::string& name() const { return name_; }
  const TagNode& root() const { return *root_; }
  const Symbol& root_label() const { return root_->label; }

  bool IsAuxiliary() const { return has_foot_; }

  /// Labels of the nodes where adjunction may take place, indexed by
  /// "address index" (the integers that appear on derivation-tree links).
  /// Address indices follow the preorder of the tree.
  const std::vector<Symbol>& adjoinable_labels() const {
    return adjoinable_labels_;
  }

  /// Labels of the open substitution slots, in left-to-right order; the
  /// derivation node's lexeme list is parallel to this.
  const std::vector<Symbol>& slot_labels() const { return slot_labels_; }

  /// Deep-copies the tree and returns raw pointers to the clone's
  /// adjoinable nodes / slot nodes / foot (parallel to the accessors above).
  /// Only the reference expansion (tag::Expand) instantiates trees.
  struct Instance {
    TagNodePtr root;
    std::vector<TagNode*> adjoinable;
    std::vector<TagNode*> slots;
    TagNode* foot = nullptr;
  };
  Instance Instantiate() const;

  /// The operator subtrees lowered once at construction (every one with no
  /// slot and no foot), each once, children before their parents. A
  /// phenotype shares each of these nodes that its derivation leaves
  /// untouched.
  std::vector<expr::ExprPtr> LoweredSubtrees() const;

 private:
  friend class DerivationLowering;  // derivation.cc reads plan_.

  /// One node of the tree, in preorder: the first child of node i is node
  /// i + 1 and each further child starts at its elder sibling's `end`.
  struct PlanNode {
    TagNode::Kind kind = TagNode::Kind::kLeaf;
    expr::NodeKind op = expr::NodeKind::kAdd;
    int num_children = 0;
    /// Address index of an operator or wrapper, slot index of a slot; -1
    /// otherwise.
    int index = -1;
    int end = 0;  ///< One past the subtree's last node.
    /// One past the subtree's last address index; an adjoinable node's
    /// subtree holds the addresses [index, address_end).
    int address_end = 0;
    /// The subtree lowered once, with its hash computed, when it holds no
    /// slot and no foot (a leaf's own payload); null otherwise. Built from
    /// the children's `lowered`, so the grammar owns O(n) extra nodes.
    expr::ExprPtr lowered;
  };

  void IndexNode(const TagNode& node);

  std::string name_;
  TagNodePtr root_;
  bool has_foot_ = false;
  std::vector<Symbol> adjoinable_labels_;
  std::vector<Symbol> slot_labels_;
  std::vector<PlanNode> plan_;
};

/// Adjoins the auxiliary instance `beta` at node `target` of the tree rooted
/// at `*root` (paper Figure 2(a)): the subtree at `target` is disconnected,
/// `beta.root` takes its place, and the subtree re-attaches at `beta.foot`.
/// `target` must be a node within `*root`; `beta.foot` must be non-null and
/// its label must equal `target->label`.
void Adjoin(TagNodePtr* root, TagNode* target,
            ElementaryTree::Instance beta);

/// Fills the slot node `slot` with lexeme `leaf` (paper Figure 2(b),
/// restricted to childless initial trees per Section III-A2).
void SubstituteLexeme(TagNode* slot, expr::ExprPtr leaf);

/// True when the tree contains no unfilled slots and no foot nodes, i.e.
/// it is a completed derived tree that can be lowered to expressions.
bool IsCompleted(const TagNode& root);

/// Lowers a completed derived tree to one expression per equation (a
/// kSystem root yields one entry per child; anything else yields one).
/// Aborts on incomplete trees.
std::vector<expr::ExprPtr> LowerToExpressions(const TagNode& root);

}  // namespace gmr::tag

#endif  // GMR_TAG_TAG_TREE_H_
