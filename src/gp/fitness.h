#ifndef GMR_GP_FITNESS_H_
#define GMR_GP_FITNESS_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "analysis/static_gate.h"
#include "common/status.h"
#include "expr/ast.h"

namespace gmr::gp {

using ::gmr::EvalOutcome;

/// One in-progress evaluation of a candidate model over a sequence of
/// fitness cases (time steps of the simulated dynamic system). The running
/// fitness must be comparable to the final fitness at every prefix (e.g.
/// running RMSE), which is what makes the paper's evaluation
/// short-circuiting (Algorithm 1) sound.
class SequentialEvaluation {
 public:
  virtual ~SequentialEvaluation() = default;

  /// Consumes the next fitness case. Must only be called while
  /// steps_taken() < num_cases(). Returns true when more cases remain
  /// after this one.
  virtual bool Step() = 0;

  /// Running fitness over the cases consumed so far (lower = better).
  virtual double CurrentFitness() const = 0;

  /// Number of cases consumed so far.
  virtual std::size_t steps_taken() const = 0;

  /// Why the running fitness is what it is (containment telemetry).
  /// Implementations that host divergence watchdogs or backend fallbacks
  /// override this; the default reports a normal evaluation.
  virtual EvalOutcome outcome() const { return EvalOutcome::kOk; }
};

/// A fitness problem whose evaluation proceeds case by case. Implementations
/// must honor `use_compiled_backend`: when true, candidate equations are
/// compiled once per evaluation (runtime compilation); when false they are
/// re-walked as trees at every time step (the paper's baseline).
class SequentialFitness {
 public:
  virtual ~SequentialFitness() = default;

  /// Total number of fitness cases.
  virtual std::size_t num_cases() const = 0;

  /// Dimension of the constant-parameter vector the problem expects.
  virtual std::size_t num_parameters() const = 0;

  /// Number of constituent states the problem's phenotypes integrate (the
  /// species count of a river problem); 0 when the problem has no notion of
  /// state. Observability plumbing: threaded into eval_batch trace events
  /// and checkpoint fingerprints so multi-constituent runs are
  /// distinguishable from the legacy two-species problem.
  virtual std::size_t num_states() const { return 0; }

  /// Starts an evaluation of the given phenotype.
  virtual std::unique_ptr<SequentialEvaluation> Begin(
      const std::vector<expr::ExprPtr>& equations,
      const std::vector<double>& parameters,
      bool use_compiled_backend) const = 0;

  /// True when the problem wants one generation-level compile pass before a
  /// batch of evaluations fans out (e.g. the batched JIT backend, which
  /// compiles every unique equation of the batch into a single translation
  /// unit). Consulted by FitnessEvaluator::EvaluateBatch; a one-candidate
  /// batch never calls PrepareBatch, so implementations must stay correct
  /// (if slower) without it.
  virtual bool WantsBatchPreparation() const { return false; }

  /// Called once per evaluation batch, on the coordinator, before worker
  /// fan-out, with every phenotype of the batch. Must be safe to skip and
  /// must not change any evaluation result — it is a warm-up hook, not a
  /// correctness hook.
  virtual void PrepareBatch(
      const std::vector<std::vector<expr::ExprPtr>>& phenotypes) const {
    (void)phenotypes;
  }
};

/// Optional gradient side-channel of a fitness problem: exact derivatives
/// of the problem's fitness with respect to the constant-parameter vector
/// for a fixed phenotype. Implemented by the reverse-mode discrete adjoint
/// (grad::RiverGradientFitness); declared here so the gp layer can consume
/// gradients — elite constant polish in TAG3P — without depending on the
/// grad library.
class GradientFitness {
 public:
  /// Gradient-evaluation telemetry folded into EvalStats.
  struct GradientStats {
    /// Instructions of the system's register tape.
    std::size_t tape_nodes = 0;
  };

  virtual ~GradientFitness() = default;

  /// Evaluates fitness and its exact parameter gradient at `parameters`.
  /// Returns false when no trustworthy gradient exists (the gradient
  /// program could not be built, adjoints came back non-finite); `*value`
  /// still carries the fitness. Aborted rollouts are NOT failures: the
  /// deterministic penalty tail contributes exactly zero gradient, never
  /// NaN. Must be safe to call concurrently.
  virtual bool EvaluateGradient(const std::vector<expr::ExprPtr>& equations,
                                const std::vector<double>& parameters,
                                double* value, std::vector<double>* gradient,
                                GradientStats* stats) const = 0;
};

/// Extrapolates an intermediate fitness observed after `steps` of
/// `total_steps` cases to an estimate of the final fitness (the EXTRAPOLATE
/// hook of Algorithm 1).
using ExtrapolateFn = double (*)(double fitness, std::size_t steps,
                                 std::size_t total_steps);

/// Identity extrapolation: a running RMSE is already on the same scale as
/// the final RMSE. Note that under identity extrapolation, thresholds below
/// 1.0 behave exactly like 1.0 (Algorithm 1's inner `est > bestPrevFull`
/// guard dominates), so the Figure 11 sweep needs a forward-projecting
/// extrapolation.
double ExtrapolateIdentity(double fitness, std::size_t steps,
                           std::size_t total_steps);

/// Divergence-aware extrapolation (the default): candidates whose running
/// RMSE already exceeds the incumbent typically keep deteriorating in
/// dynamic-systems simulation (clamped divergence, drift), so the running
/// RMSE is projected forward by a sublinear growth factor
/// (total/steps)^0.25. This makes eager thresholds (< 1) genuinely eager —
/// they cut earlier at the risk of misjudging a candidate — and
/// conservative thresholds (> 1) genuinely conservative, reproducing the
/// Figure 11 trade-off.
double ExtrapolateGrowth(double fitness, std::size_t steps,
                         std::size_t total_steps);

/// How the short-circuiting frontier (bestPrevFull) behaves under parallel
/// evaluation. There is one discipline, kept as an enum so configs that
/// name it keep compiling.
enum class FrontierMode {
  /// The frontier is snapshotted at the start of each evaluation batch;
  /// every evaluation in the batch short-circuits against the snapshot, and
  /// the batch's full-evaluation minima fold into the frontier only at the
  /// barrier. Fitness values become a pure function of (phenotype,
  /// parameters, snapshot), so results are bit-identical for any thread
  /// count.
  kFrozenFrontier,
};

/// Configuration of the three orthogonal speedup techniques
/// (paper Section III-D) plus the short-circuiting knobs and the parallel
/// evaluation (PE) extension — a fourth, hardware axis that composes
/// multiplicatively with TC/ES/RC (see DESIGN.md §speedups).
struct SpeedupConfig {
  /// TC: memoize fitness keyed on (simplified equations, parameters).
  bool tree_caching = false;
  /// ES: Algorithm 1 evaluation short-circuiting.
  bool short_circuiting = false;
  /// ES threshold: <1 is more eager, >1 more conservative (Figure 11).
  double es_threshold = 1.0;
  ExtrapolateFn extrapolate = &ExtrapolateGrowth;
  /// RC: evaluate compiled programs instead of walking trees.
  bool runtime_compilation = false;
  /// Simplify equations before hashing/evaluating (improves cache hit rate;
  /// an ablation knob — the paper folds this into TC).
  bool simplify_before_eval = true;
  /// PE: evaluation threads per population batch (<= 1 disables).
  int num_threads = 1;
  /// PE: frontier discipline under parallel evaluation (the only one).
  FrontierMode frontier_mode = FrontierMode::kFrozenFrontier;
  /// Static reject gate: when enabled, provably-doomed phenotypes are
  /// penalized with EvalOutcome::kStaticReject before any integration (see
  /// analysis/static_gate.h and river/domains.h MakeStaticGate). Rejects
  /// never enter the tree cache or the ES frontier, so gate-on is
  /// bit-identical to gate-off on populations the gate passes.
  analysis::StaticGateConfig static_gate;
};

}  // namespace gmr::gp

#endif  // GMR_GP_FITNESS_H_
