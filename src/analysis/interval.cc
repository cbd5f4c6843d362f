#include "analysis/interval.h"

#include <algorithm>
#include <cstdio>

#include "analysis/dataflow.h"
#include "common/check.h"

namespace gmr::analysis {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Normalizes a candidate bound pair into a valid interval, mapping any
/// NaN that slipped through endpoint arithmetic to the conservative bound.
Interval MakeInterval(double lo, double hi, bool maybe_nan) {
  if (std::isnan(lo)) lo = -kInf;
  if (std::isnan(hi)) hi = kInf;
  GMR_CHECK(lo <= hi);
  return Interval{lo, hi, maybe_nan};
}

/// Endpoint product with the 0 * inf indeterminate form resolved to 0: the
/// limit value of x*y as the zero factor is approached, which is the right
/// candidate for a bound (the genuinely-NaN runtime combination is covered
/// by the caller's maybe_nan computation).
double MulBound(double x, double y) {
  if (x == 0.0 || y == 0.0) return 0.0;
  return x * y;
}

/// Folds the quotient range of numer / [dlo, dhi] (a sign-definite
/// denominator range excluding the protection band) into [*lo, *hi].
void AccumulateQuotient(const Interval& numer, double dlo, double dhi,
                        double* lo, double* hi) {
  for (const double d : {dlo, dhi}) {
    for (const double n : {numer.lo, numer.hi}) {
      double q;
      if (std::isinf(d)) {
        // n / ±inf → 0 for finite n; the inf/inf NaN case is covered by
        // the caller's maybe_nan. 0 is the limit candidate either way.
        q = 0.0;
      } else {
        q = n / d;
      }
      *lo = std::min(*lo, q);
      *hi = std::max(*hi, q);
    }
  }
}

}  // namespace

std::string FormatInterval(const Interval& interval) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "[%.6g, %.6g]%s", interval.lo,
                interval.hi, interval.maybe_nan ? "?NaN" : "");
  return buffer;
}

bool ParametersInDomain(const std::vector<double>& parameters,
                        const DomainEnv& env) {
  const std::size_t n = std::min(parameters.size(), env.parameters.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!env.parameters[i].Contains(parameters[i])) return false;
  }
  return true;
}

Interval IntervalNeg(const Interval& a) {
  return MakeInterval(-a.hi, -a.lo, a.maybe_nan);
}

Interval IntervalLog(const Interval& a) {
  // The protected kernel computes log(|x|), returning 0 inside the
  // |x| < kLogEpsilon band. Range of |x| first:
  double mlo;
  if (a.lo <= 0.0 && a.hi >= 0.0) {
    mlo = 0.0;
  } else {
    mlo = std::min(std::fabs(a.lo), std::fabs(a.hi));
  }
  const double mhi = std::max(std::fabs(a.lo), std::fabs(a.hi));
  if (mhi < expr::kLogEpsilon) {
    // Entirely inside the protection band: always exactly 0 (the
    // "empty log domain" edge — no value ever reaches the real log).
    return MakeInterval(0.0, 0.0, a.maybe_nan);
  }
  double lo = std::log(std::max(mlo, expr::kLogEpsilon));
  double hi = std::log(mhi);  // log(inf) == inf.
  if (mlo < expr::kLogEpsilon) {
    // The protected 0 is also reachable.
    lo = std::min(lo, 0.0);
    hi = std::max(hi, 0.0);
  }
  return MakeInterval(lo, hi, a.maybe_nan);
}

Interval IntervalExp(const Interval& a) {
  const double lo = std::clamp(a.lo, -expr::kExpArgClamp, expr::kExpArgClamp);
  const double hi = std::clamp(a.hi, -expr::kExpArgClamp, expr::kExpArgClamp);
  return MakeInterval(std::exp(lo), std::exp(hi), a.maybe_nan);
}

Interval IntervalAdd(const Interval& a, const Interval& b) {
  const bool nan = a.maybe_nan || b.maybe_nan ||
                   (a.hi == kInf && b.lo == -kInf) ||
                   (a.lo == -kInf && b.hi == kInf);
  return MakeInterval(a.lo + b.lo, a.hi + b.hi, nan);
}

Interval IntervalSub(const Interval& a, const Interval& b) {
  return IntervalAdd(a, IntervalNeg(b));
}

Interval IntervalMul(const Interval& a, const Interval& b) {
  const double c1 = MulBound(a.lo, b.lo);
  const double c2 = MulBound(a.lo, b.hi);
  const double c3 = MulBound(a.hi, b.lo);
  const double c4 = MulBound(a.hi, b.hi);
  const bool nan = a.maybe_nan || b.maybe_nan ||
                   (a.CanBeInf() && b.Contains(0.0)) ||
                   (b.CanBeInf() && a.Contains(0.0));
  return MakeInterval(std::min({c1, c2, c3, c4}), std::max({c1, c2, c3, c4}),
                      nan);
}

Interval IntervalSquare(const Interval& a) {
  double lo;
  double hi;
  if (a.lo >= 0.0) {
    lo = a.lo * a.lo;
    hi = a.hi * a.hi;
  } else if (a.hi <= 0.0) {
    lo = a.hi * a.hi;
    hi = a.lo * a.lo;
  } else {
    lo = 0.0;
    hi = std::max(a.lo * a.lo, a.hi * a.hi);
  }
  // x*x is never NaN for real x (inf^2 == inf), only for NaN x.
  return MakeInterval(lo, hi, a.maybe_nan);
}

Interval IntervalDiv(const Interval& a, const Interval& b) {
  const double eps = expr::kDivEpsilon;
  // The protection band |b| < eps maps to the constant 1.
  const bool protected_reachable = b.lo < eps && b.hi > -eps;
  double lo = kInf;
  double hi = -kInf;
  if (b.hi >= eps) {
    AccumulateQuotient(a, std::max(b.lo, eps), b.hi, &lo, &hi);
  }
  if (b.lo <= -eps) {
    AccumulateQuotient(a, b.lo, std::min(b.hi, -eps), &lo, &hi);
  }
  if (protected_reachable) {
    lo = std::min(lo, 1.0);
    hi = std::max(hi, 1.0);
  }
  // At least one branch is always reachable (b is non-empty), so [lo, hi]
  // is proper here.
  const bool nan =
      a.maybe_nan || b.maybe_nan || (a.CanBeInf() && b.CanBeInf());
  return MakeInterval(lo, hi, nan);
}

Interval IntervalMin(const Interval& a, const Interval& b) {
  if (a.maybe_nan || b.maybe_nan) {
    // The scalar kernel is `a < b ? a : b`, so a NaN operand selects the
    // *other* operand's value (or propagates); only the hull is sound.
    return MakeInterval(std::min(a.lo, b.lo), std::max(a.hi, b.hi), true);
  }
  return MakeInterval(std::min(a.lo, b.lo), std::min(a.hi, b.hi), false);
}

Interval IntervalMax(const Interval& a, const Interval& b) {
  if (a.maybe_nan || b.maybe_nan) {
    return MakeInterval(std::min(a.lo, b.lo), std::max(a.hi, b.hi), true);
  }
  return MakeInterval(std::max(a.lo, b.lo), std::max(a.hi, b.hi), false);
}

Interval ApplyUnaryInterval(expr::NodeKind kind, const Interval& a) {
  switch (kind) {
    case expr::NodeKind::kNeg:
      return IntervalNeg(a);
    case expr::NodeKind::kLog:
      return IntervalLog(a);
    case expr::NodeKind::kExp:
      return IntervalExp(a);
    default:
      GMR_CHECK_MSG(false, "not a unary operator");
      return Interval::All();
  }
}

Interval ApplyBinaryInterval(expr::NodeKind kind, const Interval& a,
                             const Interval& b) {
  switch (kind) {
    case expr::NodeKind::kAdd:
      return IntervalAdd(a, b);
    case expr::NodeKind::kSub:
      return IntervalSub(a, b);
    case expr::NodeKind::kMul:
      return IntervalMul(a, b);
    case expr::NodeKind::kDiv:
      return IntervalDiv(a, b);
    case expr::NodeKind::kMin:
      return IntervalMin(a, b);
    case expr::NodeKind::kMax:
      return IntervalMax(a, b);
    default:
      GMR_CHECK_MSG(false, "not a binary operator");
      return Interval::All();
  }
}

Interval IntervalDomain::Constant(const expr::Expr& node) const {
  return Interval::Point(node.value());
}

Interval IntervalDomain::Variable(const expr::Expr& node) const {
  const auto slot = static_cast<std::size_t>(node.slot());
  return slot < env->variables.size() ? env->variables[slot]
                                      : Interval::All();
}

Interval IntervalDomain::Parameter(const expr::Expr& node) const {
  const auto slot = static_cast<std::size_t>(node.slot());
  return slot < env->parameters.size() ? env->parameters[slot]
                                       : Interval::All();
}

Interval IntervalDomain::Unary(const expr::Expr& node,
                               const Interval& a) const {
  return ApplyUnaryInterval(node.kind(), a);
}

Interval IntervalDomain::Binary(const expr::Expr& node, const Interval& a,
                                const Interval& b) const {
  GMR_CHECK_EQ(node.children().size(), 2u);
  const expr::Expr& left = *node.children()[0];
  const expr::Expr& right = *node.children()[1];
  // Correlation-aware rules for syntactically identical operands: the
  // general transfer functions treat the two occurrences as independent and
  // lose e.g. the non-negativity of (t - c)^2. The domain functions are
  // deterministic, so structurally equal operands carry the same abstract
  // value; only the combination rule changes.
  if (expr::StructurallyEqual(left, right)) {
    const Interval& x = a;
    switch (node.kind()) {
      case expr::NodeKind::kMul:
        return IntervalSquare(x);
      case expr::NodeKind::kSub:
        // x - x == 0 for finite x; inf - inf is NaN.
        return Interval{0.0, 0.0, x.maybe_nan || x.CanBeInf()};
      case expr::NodeKind::kDiv:
        // Protected x / x == 1 for every finite x (including the
        // protection band); inf / inf is NaN.
        return Interval{1.0, 1.0, x.maybe_nan || x.CanBeInf()};
      case expr::NodeKind::kMin:
      case expr::NodeKind::kMax:
        return x;
      default:
        return ApplyBinaryInterval(node.kind(), x, x);
    }
  }
  return ApplyBinaryInterval(node.kind(), a, b);
}

Interval EvaluateInterval(const expr::Expr& node, const DomainEnv& env,
                          const IntervalTable* table) {
  DataflowPass<IntervalDomain> pass(IntervalDomain{&env}, table);
  return pass.Evaluate(node);
}

}  // namespace gmr::analysis
