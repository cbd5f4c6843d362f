#ifndef GMR_EXPR_SIMPLIFY_H_
#define GMR_EXPR_SIMPLIFY_H_

#include <unordered_map>

#include "expr/ast.h"

namespace gmr::expr {

/// Algebraic simplification.
///
/// The paper's tree cache "improves the hit rate by algebraically
/// simplifying the trees before they are evaluated": distinct genotypes that
/// denote the same function should map to the same cache key. Simplify
/// performs constant folding over literal constants and identity/annihilator
/// rewrites, and canonically orders commutative operands so that x+y and y+x
/// produce identical trees.
///
/// Rewrites preserve the protected-operator semantics of eval.h. In
/// particular x/x rewrites to 1 (protected division already returns 1 when
/// the denominator vanishes), and constants are folded with the same
/// protected kernels used at evaluation time.
///
/// Simplify is compositional — a node's result depends only on its kind
/// and its children's results — so a subtree simplifies alike wherever it
/// sits. `table`, when given, maps nodes to results computed ahead of time
/// (gp::FitnessEvaluator keeps one over the grammar's shared subtrees): a
/// node found there is not walked, and the result shares the entry's
/// nodes. Entries must be Simplify's own results for their keys, and the
/// keys must stay alive while the table is used.
using SimplifyTable = std::unordered_map<const Expr*, ExprPtr>;
ExprPtr Simplify(const ExprPtr& root, const SimplifyTable* table = nullptr);

}  // namespace gmr::expr

#endif  // GMR_EXPR_SIMPLIFY_H_
