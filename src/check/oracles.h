#ifndef GMR_CHECK_ORACLES_H_
#define GMR_CHECK_ORACLES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "check/gen.h"
#include "common/thread_pool.h"
#include "expr/ast.h"
#include "tag/grammar.h"

namespace gmr::check {

/// One generated test case: an expression tree plus the parameter vector it
/// is evaluated with, and the case seed that reproduces both (and the
/// evaluation contexts the oracles sample from it).
struct ExprCase {
  expr::ExprPtr tree;
  std::vector<double> parameters;
  std::uint64_t seed = 0;
};

/// Shared oracle configuration. The ground truth of every differential
/// oracle is the tree interpreter (expr::EvalExpr); each backend gets an
/// explicit ULP budget against it — see DESIGN.md §5.
struct OracleContext {
  const GenConfig* config = nullptr;

  /// Evaluation contexts sampled per case (variables from config domains).
  int contexts_per_case = 8;

  /// ULP budget of the batch-JIT oracle (the C compiler may contract
  /// floating point slightly differently; 0 would be flaky across
  /// toolchains).
  std::uint64_t jit_ulps = 4;

  /// Saturation rate handed to the static gate under test. Finite so the
  /// gate's "provably saturating" reject rule is actually exercised.
  double saturation_rate = 1e6;
};

/// Verdict of one oracle on one case. `detail` is empty on success and
/// carries a human-readable counterexample description on failure.
struct OracleResult {
  bool ok = true;
  std::string detail;

  static OracleResult Pass() { return OracleResult{}; }
  static OracleResult Fail(std::string detail) {
    return OracleResult{false, std::move(detail)};
  }
};

/// Bytecode VM vs tree interpreter: bitwise agreement (0 ULP; both-NaN
/// counts as agreement) on every sampled context.
OracleResult CheckVmAgrees(const ExprCase& c, const OracleContext& ctx);

/// Equation-system VM vs tree interpreter: 8-11 roots (the case tree, one
/// of its pointer-shared operand subtrees, fresh trees from the case seed,
/// and planted repeats value numbering must share or keep apart: a
/// pointer-distinct copy of the case tree, x - copy(x), and zero literals
/// of both signs) compiled into one register program, with a drawn number
/// of the variable slots as states and the rest held, must agree bit for
/// bit (the sign of zero included; both-NaN counts as agreement) with
/// EvalExpr root by root. The program
/// runs in rollout form, as the DerivativeRunner does: one Bind, two Hold
/// calls with different held values, and after each at least two Runs that
/// change only the states.
OracleResult CheckSystemVmAgrees(const ExprCase& c, const OracleContext& ctx);

/// Simplify-then-VM vs tree interpreter. Compared bitwise when both sides
/// are finite; contexts where either side is non-finite are skipped, since
/// the min/max kernel is not NaN-symmetric and Simplify's commutative
/// canonicalization may legitimately flip which NaN propagates.
OracleResult CheckSimplifiedVmAgrees(const ExprCase& c,
                                     const OracleContext& ctx);

/// Generation-batched JIT vs tree interpreter: the compiled symbol must
/// agree with EvalExpr within ctx.jit_ulps on every sampled context.
/// Passes vacuously without a C compiler; a compile failure is an oracle
/// failure. Uses a private session and circuit breaker so fuzz volume never
/// poisons run-wide JIT state.
OracleResult CheckBatchJitAgrees(const ExprCase& c, const OracleContext& ctx);

/// printer -> parser -> printer: the printed form must reparse and print to
/// identical text, and the reparsed tree must evaluate bitwise-identically
/// on every sampled context. (Structural identity is NOT required: -1.5
/// reparses as Neg(1.5).) Every proper prefix of the form (64 evenly spaced
/// ones past 64 characters) must parse or fail with an error ending
/// "at position N", N no larger than the prefix.
OracleResult CheckRoundTrip(const ExprCase& c, const OracleContext& ctx);

/// Checkpoint codec round trip (ckpt/serialize.h): SerializeExpr →
/// ParseExprLine must be an *exact* fixpoint — the parsed tree
/// re-serializes to the identical line, evaluates bitwise-identically
/// (0 ULP) on every sampled context, and the case's parameter vector
/// survives SerializeDoubles → ParseDoubles with its exact bit patterns.
/// Stricter than `roundtrip`: the pretty printer may be structurally lossy,
/// the checkpoint codec may not (resume determinism needs NodeCount-exact
/// trees). Every proper prefix of the line (cut as in `roundtrip`) must
/// parse or fail with a non-empty error.
OracleResult CheckCkptRoundTrip(const ExprCase& c, const OracleContext& ctx);

/// Interval soundness: EvaluateInterval over the config's variable domains
/// (parameters pinned to the case's actual values) must contain every
/// sampled runtime value, and may only produce NaN where the maybe_nan bit
/// is set. This is the "clean verdict never precedes numerical divergence"
/// half of gate soundness: an interval proved finite means no sampled
/// evaluation may be non-finite.
OracleResult CheckIntervalSound(const ExprCase& c, const OracleContext& ctx);

/// Reject-gate soundness: when AnalyzeCandidate rejects the case (over the
/// same pinned-parameter domains), every sampled runtime value must
/// actually be non-finite or at/above ctx.saturation_rate — i.e. the
/// integrator would have produced kNonFiniteDerivative/kClampSaturated
/// anyway, so rejecting without integrating changes no outcome.
OracleResult CheckGateSound(const ExprCase& c, const OracleContext& ctx);

/// Activity-pass soundness: AnalyzeActivity over the config's variable
/// domains and parameter *boxes* (so the verdict quantifies over the whole
/// admissible range, not the case's pinned values) reports the parameter
/// slots that provably cannot influence the tree. Perturbing every such
/// slot to an independent in-box value must leave evaluation bitwise
/// identical on every sampled context — the exact guarantee calibrators
/// rely on when they freeze inactive dimensions.
OracleResult CheckActivitySound(const ExprCase& c, const OracleContext& ctx);

/// Reverse-mode gradient check (grad::Differentiate): on every sampled
/// context the gradient program's value must agree bitwise (0 ULP) with
/// the tree interpreter — pruned and unpruned alike — every
/// provably-inactive parameter's adjoint must be exactly 0.0 on the
/// activity-pruned sweep, and each parameter adjoint of both sweeps must
/// agree with finite differences within a relative band that widens with
/// the FD rounding noise floor: |f| plus the first-order rounding of every
/// intermediate value, Σ|cotangent × value| of the unpruned sweep. Pruned
/// and unpruned adjoints are not compared with each other: pruning drops
/// zero flows that the unpruned sweep rounds to a residue. Slots where the
/// FD estimates disagree among themselves (clamp kinks, band boundaries —
/// places where a secant slope is meaningless) are skipped; a non-finite
/// adjoint where FD is finite and self-consistent is a failure.
OracleResult CheckGradcheck(const ExprCase& c, const OracleContext& ctx);

/// Registry of the expression-case oracles above, keyed by the short names
/// used in fuzz property filters and corpus `# property:` headers.
using ExprOracle = OracleResult (*)(const ExprCase&, const OracleContext&);

/// All registered oracle names, in fixed execution order:
/// vm, simplify, system_vm, roundtrip, ckpt_roundtrip, interval, gate,
/// activity, batch_jit, gradcheck.
std::vector<std::string> ExprOracleNames();

/// Looks an oracle up by name; nullptr when unknown.
ExprOracle FindExprOracle(const std::string& name);

/// Derivation determinism: generating `count` derivations of about
/// `target_size` nodes from (grammar, seed) must produce byte-identical
/// expanded phenotypes whether fanned out over `pool` or run inline, every
/// derivation must Validate and lower to the reference expansion's
/// equations (tag::Expand, then LowerToExpressions: same S-expressions and
/// hashes), and re-expanding the same derivation must be a pure function.
/// gp::FitnessEvaluator's shared tables must not change a result: under a
/// gate over domains drawn from the seed, with and without simplification,
/// the evaluator's phenotype prints and hashes like the reference
/// expansion (simplified likewise), and its table-backed gate verdict
/// equals AnalyzeCandidate without tables, under the drawn saturation rate
/// and under each equation's own interval lower bound as the rate.
OracleResult CheckDerivationDeterministic(const tag::Grammar& grammar,
                                          int alpha_index, std::size_t count,
                                          std::size_t target_size,
                                          std::uint64_t seed,
                                          ThreadPool* pool);

/// Derivation-codec byte mutation: each of `count` generated derivations
/// is serialized and mutated in 1-4 seeded bytes (replaced, inserted or
/// deleted) several times. ParseDerivationLine must return a tree or a
/// non-empty error; a tree that tag::Validate accepts must lower without
/// abort to its alpha tree's equation count and equal the reference
/// expansion. This is the contract restored snapshots rely on.
OracleResult CheckDerivationBytes(const tag::Grammar& grammar,
                                  int alpha_index, std::size_t count,
                                  std::size_t target_size, std::uint64_t seed,
                                  ThreadPool* pool);

/// Whole-generation checkpoint fixpoint: a generated population of `count`
/// derivations, each paired with a random parameter vector, must survive
/// the checkpoint codec exactly — every derivation parses back from
/// SerializeDerivation, Validates against the grammar, re-serializes to
/// the identical line, and expands to a byte-identical phenotype; every
/// parameter vector round-trips bit for bit. This is the population half
/// of the resume contract (ckpt_roundtrip covers single expressions).
OracleResult CheckGenerationRoundTrip(const tag::Grammar& grammar,
                                      int alpha_index, std::size_t count,
                                      std::size_t target_size,
                                      std::uint64_t seed, ThreadPool* pool);

}  // namespace gmr::check

#endif  // GMR_CHECK_ORACLES_H_
