#ifndef GMR_TAG_DERIVATION_H_
#define GMR_TAG_DERIVATION_H_

#include <memory>
#include <string>
#include <vector>

#include "tag/grammar.h"
#include "tag/tag_tree.h"

namespace gmr::tag {

struct DerivationNode;
using DerivationPtr = std::unique_ptr<DerivationNode>;

/// Node of a TAG derivation tree (paper Figure 4, formulation with
/// restricted substitution):
///  - the root is labeled with an alpha tree (the input process);
///  - every other node is labeled with a beta tree and carries the address
///    (index into the parent elementary tree's adjoinable list) where the
///    adjunction took place;
///  - each node carries its lexemes: the constants substituted into the open
///    slots (lexicons) of its elementary tree, parallel to slot_labels().
///
/// The derivation tree is the GP genotype; the derived tree / expressions
/// are the phenotype produced by Expand/ExpandToExpressions.
struct DerivationNode {
  /// Index into Grammar::alpha for the root node, Grammar::beta otherwise.
  int tree_index = 0;

  /// Lexeme constants, one per slot of the elementary tree.
  std::vector<double> lexemes;

  struct AdjunctionChild {
    /// Index into the parent node's elementary tree adjoinable list.
    int address_index = 0;
    DerivationPtr node;
  };
  std::vector<AdjunctionChild> children;

  DerivationPtr Clone() const;
  std::size_t NodeCount() const;
};

/// The elementary tree a derivation node refers to (`is_root` selects the
/// alpha vs beta table).
const ElementaryTree& ElementaryTreeOf(const Grammar& grammar,
                                       const DerivationNode& node,
                                       bool is_root);

/// The textbook expansion, kept as the reference ExpandToExpressions is
/// tested against: instantiates each node's elementary tree, substitutes
/// its lexemes, and performs all adjunctions bottom-up into a completed
/// derived tree. Aborts on malformed derivations (bad indices, lexeme
/// counts, label mismatches) — the GP operators maintain those invariants.
TagNodePtr Expand(const Grammar& grammar, const DerivationNode& root);

/// The phenotype: one expression per equation, equal in structure to
/// LowerToExpressions(*Expand(grammar, root)) and aborting on the same
/// malformed derivations. Lowers straight from each elementary tree's plan
/// without building the derived tree: only the nodes on the paths from an
/// equation root to a lexeme, a foot or an adjunction site are allocated;
/// every other subtree is the grammar's own pre-lowered, pre-hashed Expr,
/// shared by every phenotype (and every position) that leaves it alone.
/// Adjunctions at one address nest with the first-adjoined outermost.
std::vector<expr::ExprPtr> ExpandToExpressions(const Grammar& grammar,
                                               const DerivationNode& root);

/// Checks the structural invariants of a derivation tree against `grammar`:
/// valid tree indices, lexeme counts matching slot counts, unique and
/// in-range adjunction addresses, and beta root labels matching the labels
/// at their adjunction addresses. Returns false with a diagnostic in
/// `*error` on the first violation.
bool Validate(const Grammar& grammar, const DerivationNode& root,
              std::string* error);

/// Reference to a non-root derivation node through its owning edge; used by
/// the genetic operators to splice subtrees.
struct NodeRef {
  DerivationNode* parent = nullptr;
  std::size_t child_index = 0;

  DerivationNode* node() const {
    return parent->children[child_index].node.get();
  }
  int address_index() const {
    return parent->children[child_index].address_index;
  }
};

/// Collects references to every non-root node, in preorder.
std::vector<NodeRef> CollectNodeRefs(DerivationNode* root);

}  // namespace gmr::tag

#endif  // GMR_TAG_DERIVATION_H_
