#ifndef GMR_EXPR_BATCH_VM_H_
#define GMR_EXPR_BATCH_VM_H_

#include <cstddef>
#include <vector>

#include "expr/ast.h"
#include "expr/compile.h"

namespace gmr::expr {

/// Structure-of-arrays evaluation environment for the stride-N backends:
/// lane `l` of slot `s` lives at index `s * width + l`, so one compiled
/// program evaluates a whole lane block per call. Width 1 degenerates to
/// the scalar EvalContext layout (SoA == AoS at stride 1), which is what
/// lets the scalar rollout paths reuse the batch kernels unchanged.
struct BatchEvalContext {
  /// variables[slot * width + lane].
  const double* variables = nullptr;
  std::size_t num_variables = 0;
  /// parameters[slot * width + lane] — lanes may carry distinct parameter
  /// vectors (the calibration/ensemble workloads batch over them).
  const double* parameters = nullptr;
  std::size_t num_parameters = 0;
  /// Number of lanes evaluated per call.
  std::size_t width = 1;
};

/// Stride-N dispatch loop over the shared register tape (compile.h).
///
/// Every register is a row of `width` lanes: variable and parameter rows
/// are read in place from the caller's SoA blocks, constant and temporary
/// rows live in the program's scratch. Each instruction executes as a tight
/// lane loop over `width` independent doubles — no per-lane branching, no
/// cross-lane dependency — which is the shape the autovectorizer can chew
/// on. Per lane, the operations and the scalar kernels
/// (ApplyUnary/ApplyBinary) are exactly those of CompiledProgram::Run, so
/// lane `l` of RunLanes is bit-identical to a scalar Run over lane l's
/// slots for EVERY width: width 1 ≡ width 16 bitwise (the `batch_width`
/// fuzz property pins this).
class BatchProgram {
 public:
  BatchProgram() = default;
  explicit BatchProgram(Tape tape);

  /// Evaluates all lanes of every root; writes out[root * width + lane]
  /// for lane in [0, ctx.width). Aborts when the context binds fewer slots
  /// than the tape's layout.
  /// A lane whose inputs already diverged simply produces a non-finite or
  /// wild value — divergence isolation (masking a lane out of further
  /// integration without aborting its neighbors) is the rollout's job, not
  /// the VM's: lanes cannot contaminate each other by construction.
  void RunLanes(const BatchEvalContext& ctx, double* out) const;

  /// Number of instructions in the tape (operator nodes of the source).
  std::size_t size() const { return tape_.size(); }
  std::size_t num_outputs() const { return tape_.num_outputs(); }
  bool empty() const { return tape_.empty(); }

 private:
  Tape tape_;
  // Lane rows of the constant and temporary registers
  // (scratch_[(register - constant_base) * width + lane]), with the
  // constants broadcast for width_ lanes, and the row pointer of every
  // register. Mutable scratch, so a BatchProgram is not safe to RunLanes()
  // from two threads concurrently (clone it instead) — the same contract as
  // CompiledProgram.
  mutable std::vector<double> scratch_;
  mutable std::vector<const double*> rows_;
  mutable std::size_t width_ = 0;
};

/// Compiles the equation system `roots` into one BatchProgram over
/// `layout` (the same register tape as Compile).
BatchProgram CompileBatch(const std::vector<ExprPtr>& roots,
                          const TapeLayout& layout);

/// Compiles one root over the layout it references (LayoutOf).
BatchProgram CompileBatch(const Expr& root);

}  // namespace gmr::expr

#endif  // GMR_EXPR_BATCH_VM_H_
