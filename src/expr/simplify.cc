#include "expr/simplify.h"

#include <cmath>

#include "common/check.h"
#include "expr/eval.h"

namespace gmr::expr {
namespace {

bool IsConst(const ExprPtr& e, double v) {
  return e->kind() == NodeKind::kConstant && e->value() == v;
}

bool IsAnyConst(const ExprPtr& e) {
  return e->kind() == NodeKind::kConstant;
}

bool Commutative(NodeKind kind) {
  return kind == NodeKind::kAdd || kind == NodeKind::kMul ||
         kind == NodeKind::kMin || kind == NodeKind::kMax;
}

/// Conservative syntactic finiteness: true only when the subtree provably
/// evaluates to a finite real for every finite, in-range input. Leaves are
/// finite (parameters are pre-checked finite by the evaluator; states are
/// clamped); exp is clamped and log is protected, so both preserve
/// finiteness; +,-,*,/ can overflow to inf even on finite inputs, so they
/// conservatively return false. This guards the value-based rewrites below:
/// x - x == 0, 0 * x == 0, and protected x / x == 1 all fail when x is
/// +/-inf (NaN, NaN, and NaN respectively).
bool ProvablyFinite(const Expr& e) {
  switch (e.kind()) {
    case NodeKind::kConstant:
      return std::isfinite(e.value());
    case NodeKind::kParameter:
    case NodeKind::kVariable:
      return true;
    case NodeKind::kNeg:
    case NodeKind::kMin:
    case NodeKind::kMax:
    case NodeKind::kLog:
    case NodeKind::kExp: {
      for (const auto& child : e.children()) {
        if (!ProvablyFinite(*child)) return false;
      }
      return true;
    }
    default:
      return false;
  }
}

/// Total order on trees for canonicalizing commutative operands: by kind,
/// then slot/value, then recursively by children. Returns <0, 0, >0.
int CompareTrees(const Expr& a, const Expr& b) {
  if (a.kind() != b.kind()) {
    return static_cast<int>(a.kind()) < static_cast<int>(b.kind()) ? -1 : 1;
  }
  switch (a.kind()) {
    case NodeKind::kConstant:
      if (a.value() < b.value()) return -1;
      if (a.value() > b.value()) return 1;
      return 0;
    case NodeKind::kParameter:
    case NodeKind::kVariable:
      if (a.slot() < b.slot()) return -1;
      if (a.slot() > b.slot()) return 1;
      return 0;
    default:
      break;
  }
  for (std::size_t i = 0;
       i < a.children().size() && i < b.children().size(); ++i) {
    const int c = CompareTrees(*a.children()[i], *b.children()[i]);
    if (c != 0) return c;
  }
  if (a.children().size() < b.children().size()) return -1;
  if (a.children().size() > b.children().size()) return 1;
  return 0;
}

ExprPtr SimplifyNode(const ExprPtr& original, NodeKind kind,
                     std::vector<ExprPtr> kids) {
  // Constant folding with the shared protected kernels.
  if (kids.size() == 1 && IsAnyConst(kids[0])) {
    return Constant(ApplyUnary(kind, kids[0]->value()));
  }
  if (kids.size() == 2 && IsAnyConst(kids[0]) && IsAnyConst(kids[1])) {
    return Constant(ApplyBinary(kind, kids[0]->value(), kids[1]->value()));
  }

  switch (kind) {
    case NodeKind::kAdd:
      if (IsConst(kids[0], 0.0)) return kids[1];
      if (IsConst(kids[1], 0.0)) return kids[0];
      break;
    case NodeKind::kSub:
      if (IsConst(kids[1], 0.0)) return kids[0];
      // x - x == 0 only when x is provably finite (inf - inf is NaN).
      if (StructurallyEqual(*kids[0], *kids[1]) && ProvablyFinite(*kids[0])) {
        return Constant(0.0);
      }
      break;
    case NodeKind::kMul:
      if (IsConst(kids[0], 1.0)) return kids[1];
      if (IsConst(kids[1], 1.0)) return kids[0];
      // 0 * x == 0 only when x is provably finite (0 * inf is NaN).
      if (IsConst(kids[0], 0.0) && ProvablyFinite(*kids[1])) {
        return Constant(0.0);
      }
      if (IsConst(kids[1], 0.0) && ProvablyFinite(*kids[0])) {
        return Constant(0.0);
      }
      break;
    case NodeKind::kDiv:
      if (IsConst(kids[1], 1.0)) return kids[0];
      // Protected division returns 1 when the denominator vanishes, so
      // x/x == 1 holds for every *finite* x (including inside the
      // protection band) — but inf / inf is NaN, so the rewrite needs the
      // finiteness guard.
      if (StructurallyEqual(*kids[0], *kids[1]) && ProvablyFinite(*kids[0])) {
        return Constant(1.0);
      }
      break;
    case NodeKind::kMin:
    case NodeKind::kMax:
      if (StructurallyEqual(*kids[0], *kids[1])) return kids[0];
      break;
    case NodeKind::kNeg:
      if (kids[0]->kind() == NodeKind::kNeg) return kids[0]->children()[0];
      break;
    default:
      break;
  }

  // Canonical operand order for commutative operators.
  if (kids.size() == 2 && Commutative(kind) &&
      CompareTrees(*kids[0], *kids[1]) > 0) {
    std::swap(kids[0], kids[1]);
  }

  // Reuse the original node when nothing changed (keeps sharing intact).
  if (original != nullptr && original->kind() == kind &&
      original->children().size() == kids.size()) {
    bool same = true;
    for (std::size_t i = 0; i < kids.size(); ++i) {
      if (original->children()[i] != kids[i]) {
        same = false;
        break;
      }
    }
    if (same) return original;
  }

  if (kids.size() == 1) return MakeUnary(kind, std::move(kids[0]));
  return MakeBinary(kind, std::move(kids[0]), std::move(kids[1]));
}

}  // namespace

ExprPtr Simplify(const ExprPtr& root, const SimplifyTable* table) {
  GMR_CHECK(root != nullptr);
  if (root->IsLeaf()) return root;
  if (table != nullptr) {
    const auto it = table->find(root.get());
    if (it != table->end()) return it->second;
  }
  std::vector<ExprPtr> kids;
  kids.reserve(root->children().size());
  for (const auto& child : root->children()) {
    kids.push_back(Simplify(child, table));
  }
  return SimplifyNode(root, root->kind(), std::move(kids));
}

}  // namespace gmr::expr
