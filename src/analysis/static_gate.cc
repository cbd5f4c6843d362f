#include "analysis/static_gate.h"

#include "analysis/sign.h"
#include "common/check.h"

namespace gmr::analysis {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

const char* GateRuleName(GateRule rule) {
  switch (rule) {
    case GateRule::kNone: return "none";
    case GateRule::kIntervalNegInf: return "interval_neg_inf";
    case GateRule::kIntervalSaturation: return "interval_saturation";
    case GateRule::kUnitsMismatch: return "units_mismatch";
    case GateRule::kSignViolation: return "sign_violation";
  }
  GMR_CHECK_MSG(false, "bad gate rule");
  return "?";
}

StaticVerdict AnalyzeCandidate(const std::vector<expr::ExprPtr>& equations,
                               const StaticGateConfig& config,
                               const IntervalTable* intervals) {
  StaticVerdict verdict;
  for (std::size_t i = 0; i < equations.size(); ++i) {
    GMR_CHECK(equations[i] != nullptr);
    const Interval iv =
        EvaluateInterval(*equations[i], config.domains, intervals);
    // hi == -inf: the derivative is -inf everywhere -> the very first
    // evaluation is non-finite. lo >= saturation_rate: every reachable
    // derivative saturates the per-substep clamp (lo == +inf is subsumed,
    // saturation_rate being finite or +inf). Note maybe_nan alone does NOT
    // reject: it only says NaN is reachable somewhere in the box.
    if (iv.hi == -kInf) {
      verdict.reject = true;
      verdict.rule = GateRule::kIntervalNegInf;
      verdict.equation = static_cast<int>(i);
      verdict.reason = "equation " + std::to_string(i) +
                       " is provably -inf everywhere: " + FormatInterval(iv);
      return verdict;
    }
    if (iv.lo >= config.saturation_rate) {
      verdict.reject = true;
      verdict.rule = GateRule::kIntervalSaturation;
      verdict.equation = static_cast<int>(i);
      verdict.reason =
          "equation " + std::to_string(i) + " provably saturates the clamp (" +
          FormatInterval(iv) + " vs rate " +
          std::to_string(config.saturation_rate) + ")";
      return verdict;
    }
    if (config.check_units) {
      const UnitsResult units = AnalyzeUnits(*equations[i], config.units);
      if (!units.Consistent()) {
        verdict.reject = true;
        verdict.rule = GateRule::kUnitsMismatch;
        verdict.equation = static_cast<int>(i);
        verdict.reason = "equation " + std::to_string(i) + ": " +
                         units.findings.front().message;
        return verdict;
      }
    }
    if (config.check_sign) {
      const MassBalanceResult balance =
          CheckMassBalance(*equations[i], config.domains);
      if (!balance.Consistent()) {
        verdict.reject = true;
        verdict.rule = GateRule::kSignViolation;
        verdict.equation = static_cast<int>(i);
        verdict.reason = "equation " + std::to_string(i) + ": " +
                         balance.findings.front().message;
        return verdict;
      }
    }
  }
  return verdict;
}

}  // namespace gmr::analysis
