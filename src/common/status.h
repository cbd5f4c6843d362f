#ifndef GMR_COMMON_STATUS_H_
#define GMR_COMMON_STATUS_H_

#include <cstddef>
#include <cstdint>
#include <string>

/// Structured evaluation outcomes and a lightweight status carrier.
///
/// The GP search spends most of its time evaluating deliberately wrong
/// candidate models, so "this candidate got a penalty fitness" is the normal
/// case, not the exceptional one. EvalOutcome records *why* a candidate's
/// fitness is what it is, so containment events (divergence watchdogs, task
/// failures, static rejects) are observable instead of silently folding
/// into a clamped RMSE. See DESIGN.md §4d (fault containment).

namespace gmr {

/// Why an evaluation produced the fitness it did. kOk carries an exact
/// fitness; every other value means the fitness is a deterministic penalty,
/// not the true model error.
enum class EvalOutcome : std::uint8_t {
  kOk = 0,                ///< Normal evaluation.
  kNonFiniteDerivative,   ///< Watchdog: NaN/Inf derivatives or states.
  kClampSaturated,        ///< Watchdog: state pinned at the clamp ceiling.
  kDomainViolation,       ///< Non-finite parameters / invalid inputs.
  kBudgetExceeded,        ///< Watchdog: per-candidate substep budget hit.
  kTaskFailed,            ///< The evaluation task threw; penalty assigned.
  kStaticReject,          ///< Static analysis proved the candidate doomed
                          ///< before any integration (see analysis/).
};

inline constexpr std::size_t kNumEvalOutcomes = 7;

inline const char* EvalOutcomeName(EvalOutcome outcome) {
  switch (outcome) {
    case EvalOutcome::kOk:
      return "ok";
    case EvalOutcome::kNonFiniteDerivative:
      return "non_finite_derivative";
    case EvalOutcome::kClampSaturated:
      return "clamp_saturated";
    case EvalOutcome::kDomainViolation:
      return "domain_violation";
    case EvalOutcome::kBudgetExceeded:
      return "budget_exceeded";
    case EvalOutcome::kTaskFailed:
      return "task_failed";
    case EvalOutcome::kStaticReject:
      return "static_reject";
  }
  return "unknown";
}

/// True when the outcome's fitness is a deterministic penalty rather than
/// the candidate's true (possibly clamped) model error.
inline bool IsPenalizedOutcome(EvalOutcome outcome) {
  return outcome != EvalOutcome::kOk;
}

/// The fitness assigned to candidates whose evaluation could not produce a
/// model error at all (task threw, non-finite parameters). Large but finite
/// so selection can still order penalized candidates below everything real
/// without poisoning means with infinities.
inline constexpr double kPenaltyFitness = 1e30;

/// Minimal ok-or-message status for recoverable runtime failures (the
/// project reports these through return values, not exceptions — see
/// check.h). An empty message means success.
struct Status {
  std::string message;

  bool ok() const { return message.empty(); }

  static Status Ok() { return Status{}; }
  static Status Error(std::string message) { return Status{std::move(message)}; }
};

}  // namespace gmr

#endif  // GMR_COMMON_STATUS_H_
