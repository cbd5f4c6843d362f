#ifndef GMR_ANALYSIS_STATIC_GATE_H_
#define GMR_ANALYSIS_STATIC_GATE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "analysis/interval.h"
#include "analysis/units.h"

namespace gmr::analysis {

/// Which analysis rule rejected a candidate (kNone = passed). The order is
/// part of the observability schema: per-rule reject counters are reported
/// as gate_rule.<GateRuleName> fields of eval_batch events and as
/// gate_rule_rejects[] in gp::EvalStats, and the verdict cache stores the
/// rule byte, so renumbering invalidates checkpointed telemetry baselines.
enum class GateRule : std::uint8_t {
  kNone = 0,
  kIntervalNegInf,      ///< Derivative provably -inf everywhere.
  kIntervalSaturation,  ///< Derivative provably saturates the step clamp.
  kUnitsMismatch,       ///< Dimensionally inconsistent (opt-in).
  kSignViolation,       ///< Mass-balance direction violation (opt-in).
};
constexpr std::size_t kNumGateRules = 5;

/// Stable lowercase identifier ("none", "interval_neg_inf", ...).
const char* GateRuleName(GateRule rule);

/// Configuration of the pre-evaluation reject gate. Off by default; when
/// enabled, FitnessEvaluator runs AnalyzeCandidate on each phenotype before
/// any integration and short-circuits provably-doomed candidates with
/// EvalOutcome::kStaticReject and the deterministic penalty fitness.
///
/// Soundness contract: `domains` must OVER-approximate every value the
/// integrator can feed the equations. State variables are clamped to
/// [state_min, state_max] between steps but RK4 stage evaluations are
/// unclamped, so gate state intervals must be [state_min, +inf) — see
/// river/domains.h MakeStaticGate. The gate verdict is cached by structural
/// hash and is only consulted when ParametersInDomain holds for the
/// candidate's parameter vector.
struct StaticGateConfig {
  bool enabled = false;
  DomainEnv domains;
  /// A derivative provably >= this rate (in state units per day) saturates
  /// the integrator's clamp on every substep, guaranteeing a
  /// kClampSaturated watchdog abort; such candidates are rejected without
  /// integrating. +inf (the default) rejects only provably non-finite
  /// right-hand sides.
  double saturation_rate = std::numeric_limits<double>::infinity();
  /// Opt-in dimensional-consistency rejection: a candidate with a provable
  /// units mismatch (AnalyzeSystemUnits over `units`) is rejected. OFF by
  /// default — the TAG grammar's extender betas intentionally explore
  /// dimension-mixing forms, so enabling this changes which candidates
  /// survive (gate-on is then no longer bit-identical to gate-off on
  /// arbitrary populations; see DESIGN.md §4j).
  bool check_units = false;
  UnitsEnv units;
  /// Opt-in mass-balance direction rejection: a candidate with a
  /// provably-backwards gain/loss term (CheckMassBalance over `domains`)
  /// is rejected. OFF by default, same caveat as check_units.
  bool check_sign = false;
};

/// Result of the O(tree) static check on one candidate system.
struct StaticVerdict {
  bool reject = false;
  /// Which rule rejected (kNone when reject is false).
  GateRule rule = GateRule::kNone;
  /// Equation that triggered the rejection (-1 when reject is false).
  int equation = -1;
  /// Human-readable reason, e.g. for logging/benchmarks.
  std::string reason;
};

/// Interval-evaluates each equation over config.domains and rejects when
/// some right-hand side is provably -inf everywhere, or provably at or
/// above config.saturation_rate everywhere; with the opt-in passes enabled,
/// also when some equation is dimensionally inconsistent or violates
/// mass-balance direction. Candidates that merely *may* diverge pass — the
/// runtime watchdogs (PR 2) own that case; the interval rules only take
/// candidates whose doom is a theorem (the opt-in rules reject physically
/// meaningless candidates that may still integrate fine). Pure and
/// deterministic. `intervals`, when given, holds intervals over
/// config.domains computed ahead of time for shared subtrees; the verdict
/// is the same with or without it.
StaticVerdict AnalyzeCandidate(const std::vector<expr::ExprPtr>& equations,
                               const StaticGateConfig& config,
                               const IntervalTable* intervals = nullptr);

}  // namespace gmr::analysis

#endif  // GMR_ANALYSIS_STATIC_GATE_H_
