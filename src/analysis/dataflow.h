#ifndef GMR_ANALYSIS_DATAFLOW_H_
#define GMR_ANALYSIS_DATAFLOW_H_

#include <cstddef>
#include <functional>
#include <unordered_map>
#include <vector>

#include "expr/ast.h"

namespace gmr::analysis {

/// Generic bottom-up abstract interpretation over the expression AST — the
/// shared skeleton of the interval, units, sign, and activity passes (see
/// DESIGN.md §4j).
///
/// A *domain* supplies the lattice elements and transfer functions:
///
///   struct MyDomain {
///     using Value = ...;                       // one lattice element
///     Value Constant(const expr::Expr& node);  // kConstant leaves
///     Value Variable(const expr::Expr& node);  // kVariable leaves
///     Value Parameter(const expr::Expr& node); // kParameter leaves
///     Value Unary(const expr::Expr& node, const Value& a);
///     Value Binary(const expr::Expr& node, const Value& a, const Value& b);
///   };
///
/// Transfer functions receive the node itself (not just its kind) so a
/// domain can apply correlation-aware rules to syntactically identical
/// operands (x - x, x / x, x * x) via expr::StructurallyEqual, and record
/// per-node diagnostics keyed by node pointer.
///
/// Soundness contract shared by every instance: transfer functions must
/// over-approximate the *protected* scalar kernels of expr/eval.h
/// (protected division, log(|x|) with a zero band, clamped exp), not
/// textbook real arithmetic.
///
/// Evaluation is memoized by node pointer, so shared subtrees (the AST is
/// immutable and shares structure across phenotypes) are visited once per
/// pass instance. Transfer functions must therefore be deterministic:
/// structurally equal subtrees always map to equal abstract values.
///
/// A pass may also read a table of values computed ahead of time, for
/// subtrees that many passes share (gp::FitnessEvaluator keeps the
/// intervals of the grammar's shared subtrees): a node found there is
/// neither walked nor memoized. The table must hold this domain's own
/// values for its keys, and keys and table must outlive the pass.
template <typename Domain>
class DataflowPass {
 public:
  using Value = typename Domain::Value;
  using Table = std::unordered_map<const expr::Expr*, Value>;

  explicit DataflowPass(Domain domain, const Table* table = nullptr)
      : domain_(std::move(domain)), table_(table) {}

  /// Bottom-up abstract value of `node`: the table's entry, or the value
  /// memoized by node pointer for the lifetime of this pass instance.
  const Value& Evaluate(const expr::Expr& node) {
    if (table_ != nullptr) {
      const auto hit = table_->find(&node);
      if (hit != table_->end()) return hit->second;
    }
    const auto it = memo_.find(&node);
    if (it != memo_.end()) return it->second;
    Value value = Transfer(node);
    return memo_.emplace(&node, std::move(value)).first->second;
  }

  Domain& domain() { return domain_; }
  const Domain& domain() const { return domain_; }

  /// Nodes evaluated so far (distinct shared subtrees, not tree size;
  /// table entries are not counted).
  std::size_t nodes_visited() const { return memo_.size(); }

 private:
  Value Transfer(const expr::Expr& node) {
    switch (node.kind()) {
      case expr::NodeKind::kConstant:
        return domain_.Constant(node);
      case expr::NodeKind::kVariable:
        return domain_.Variable(node);
      case expr::NodeKind::kParameter:
        return domain_.Parameter(node);
      default:
        break;
    }
    if (node.children().size() == 1) {
      const Value& a = Evaluate(*node.children()[0]);
      return domain_.Unary(node, a);
    }
    const Value& a = Evaluate(*node.children()[0]);
    const Value& b = Evaluate(*node.children()[1]);
    return domain_.Binary(node, a, b);
  }

  Domain domain_;
  const Table* table_;
  std::unordered_map<const expr::Expr*, Value> memo_;
};

/// Pre-order walk of `root` handing each node its child-index address from
/// the root. Diagnostics passes evaluate on the (pointer-memoized) dataflow
/// lattice and then attach findings to addresses with this walk — the memo
/// loses addresses by construction (a shared subtree has several).
void WalkAddresses(
    const expr::Expr& root,
    const std::function<void(const expr::Expr&, const std::vector<int>&)>&
        visit);

}  // namespace gmr::analysis

#endif  // GMR_ANALYSIS_DATAFLOW_H_
