#ifndef GMR_ANALYSIS_INTERVAL_H_
#define GMR_ANALYSIS_INTERVAL_H_

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "analysis/dataflow.h"
#include "expr/ast.h"

namespace gmr::analysis {

/// One element of the interval lattice used by the static analyzer: the set
/// of values a subexpression can take over every admissible input, as a
/// closed real interval [lo, hi] plus a "may be NaN" bit. The bounds are
/// never NaN; lo <= hi always holds, and an endpoint of +/-inf means the
/// set is unbounded on that side (and that an actually-infinite value is
/// considered reachable — RK4 stage states are unclamped, so runtime values
/// can genuinely overflow to inf). See DESIGN.md §4e.
///
/// Every operator rule over-approximates the *protected* scalar semantics
/// of expr/eval.h (protected division, log(|x|) with a zero band, clamped
/// exp), not textbook real arithmetic — soundness of the reject gate
/// depends on that match.
struct Interval {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool maybe_nan = false;

  static Interval All() { return Interval{}; }

  static Interval Point(double v) {
    if (std::isnan(v)) {
      Interval r = All();
      r.maybe_nan = true;
      return r;
    }
    return Interval{v, v, false};
  }

  static Interval Of(double lo, double hi) { return Interval{lo, hi, false}; }

  /// Exactly one finite value and provably never NaN.
  bool IsPoint() const {
    return lo == hi && !maybe_nan && std::isfinite(lo);
  }

  bool Contains(double v) const { return lo <= v && v <= hi; }

  /// Every reachable value is a finite real.
  bool IsFinite() const {
    return std::isfinite(lo) && std::isfinite(hi) && !maybe_nan;
  }

  /// An infinite value is reachable (either side unbounded).
  bool CanBeInf() const {
    return lo == -std::numeric_limits<double>::infinity() ||
           hi == std::numeric_limits<double>::infinity();
  }
};

/// "[lo, hi]" (with a "?NaN" suffix when the NaN bit is set), for
/// diagnostics.
std::string FormatInterval(const Interval& interval);

/// Per-slot value ranges of the evaluation environment: what the variable
/// and parameter vectors handed to expr::EvalContext can contain. Slots
/// beyond either vector are treated as unconstrained (Interval::All).
struct DomainEnv {
  std::vector<Interval> variables;
  std::vector<Interval> parameters;
};

/// True when every parameter value lies inside its env interval (slots
/// beyond env.parameters are unconstrained). The evaluator's reject gate
/// only trusts a structure-keyed verdict when this holds.
bool ParametersInDomain(const std::vector<double>& parameters,
                        const DomainEnv& env);

/// Interval transfer functions, one per operator, exactly mirroring the
/// protected kernels in expr/eval.h.
Interval IntervalNeg(const Interval& a);
Interval IntervalLog(const Interval& a);
Interval IntervalExp(const Interval& a);
Interval IntervalAdd(const Interval& a, const Interval& b);
Interval IntervalSub(const Interval& a, const Interval& b);
Interval IntervalMul(const Interval& a, const Interval& b);
Interval IntervalDiv(const Interval& a, const Interval& b);
Interval IntervalMin(const Interval& a, const Interval& b);
Interval IntervalMax(const Interval& a, const Interval& b);

/// Range of x*x for x in `a` — strictly tighter than IntervalMul(a, a),
/// which loses the correlation between the two factors (e.g. the expert
/// model's Gaussian temperature term (V_tmp - C_BTP)^2 must come out
/// non-negative).
Interval IntervalSquare(const Interval& a);

/// Dispatch by node kind. Aborts on non-matching arity.
Interval ApplyUnaryInterval(expr::NodeKind kind, const Interval& a);
Interval ApplyBinaryInterval(expr::NodeKind kind, const Interval& a,
                             const Interval& b);

/// The interval instance of the dataflow framework (analysis/dataflow.h):
/// a lattice element per subtree, with the correlation-aware rules for
/// syntactically identical operands (x - x ⊆ {0}, x / x ⊆ {1} protected,
/// x * x = square — each still NaN when x can be infinite).
struct IntervalDomain {
  using Value = Interval;
  const DomainEnv* env;

  Interval Constant(const expr::Expr& node) const;
  Interval Variable(const expr::Expr& node) const;
  Interval Parameter(const expr::Expr& node) const;
  Interval Unary(const expr::Expr& node, const Interval& a) const;
  Interval Binary(const expr::Expr& node, const Interval& a,
                  const Interval& b) const;
};

/// Intervals over one DomainEnv computed ahead of time, by node.
using IntervalTable = DataflowPass<IntervalDomain>::Table;

/// Bottom-up interval evaluation of a whole tree over `env`: one
/// DataflowPass<IntervalDomain> per call, reading `table` (intervals over
/// the same env) for the subtrees it holds.
Interval EvaluateInterval(const expr::Expr& node, const DomainEnv& env,
                          const IntervalTable* table = nullptr);

}  // namespace gmr::analysis

#endif  // GMR_ANALYSIS_INTERVAL_H_
