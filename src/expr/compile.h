#ifndef GMR_EXPR_COMPILE_H_
#define GMR_EXPR_COMPILE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "expr/ast.h"
#include "expr/eval.h"

namespace gmr::expr {

/// The variable and parameter regions a tape is compiled against: the
/// slot counts the caller binds. Every leaf slot of the source must fall
/// inside them; Flatten checks that once, so the run loops never check a
/// slot.
///
/// Variable slots [0, num_states) are states, rewritten before every run;
/// slots [num_states, num_variables) are held, rewritten only now and then
/// (the drivers of a simulated day). Unless set, every variable is a state.
struct TapeLayout {
  std::size_t num_variables = 0;
  std::size_t num_parameters = 0;
  std::size_t num_states = num_variables;
};

/// One register-form instruction: dst = op(a, b), one per distinct
/// operator subtree of the source (unary operators ignore b). Operands
/// index the register file
///
///   [variables | parameters | constants | temporaries]
///
/// so leaves cost no instruction: a variable, parameter or literal operand
/// is read where it lives. dst is the instruction's own temporary, distinct
/// from both operands.
///
/// Flatten value-numbers the source: an operator whose (op, a, b) an
/// earlier instruction already computes reads that instruction's register
/// instead of emitting a copy, and equal literals (by bit pattern, so -0.0
/// and 0.0 stay apart) share one constant register. A subterm repeated
/// within or across roots, shared by pointer or not, therefore runs once.
struct TapeInstruction {
  NodeKind op = NodeKind::kAdd;
  std::uint32_t dst = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

/// A flattened equation system: the instructions of every root, the
/// literal values of the constant registers, and one output register per
/// root. Pure data — the VM below applies each operator once, through the
/// ApplyUnary/ApplyBinary kernels, to the same operand values as EvalExpr,
/// which is what makes its results bit-identical to the interpreter's.
///
/// The instructions form three contiguous segments, by the most-varying
/// register each one reads: bind [0, hold_begin) reads only constants and
/// parameters, hold [hold_begin, run_begin) also reads held variables, and
/// run [run_begin, size()) reads a state. Each segment keeps the postorder
/// of the roots in root order, so the segments in order are one valid
/// evaluation order and each can rerun on its own once its inputs change.
///
/// Every instruction has its own register (SSA form): instruction i writes
/// temporary_base() + i and reads only registers written before it, so
/// after a run the register file holds every intermediate value — the
/// values the adjoint's reverse sweep reads (grad/adjoint.h). A register
/// that several instructions read is written once and never overwritten,
/// so the reverse sweep sums every reader's cotangent into it before it
/// propagates.
struct Tape {
  TapeLayout layout;
  /// Value of constant register constant_base() + i (distinct bit
  /// patterns).
  std::vector<double> constants;
  std::vector<TapeInstruction> ops;
  std::size_t hold_begin = 0;
  std::size_t run_begin = 0;
  /// Register holding root r's value after the run (a leaf register when
  /// the root is a bare leaf).
  std::vector<std::uint32_t> outputs;

  std::size_t constant_base() const {
    return layout.num_variables + layout.num_parameters;
  }
  std::size_t temporary_base() const {
    return constant_base() + constants.size();
  }
  std::size_t num_registers() const { return temporary_base() + ops.size(); }
  /// Number of roots (outputs per run).
  std::size_t num_outputs() const { return outputs.size(); }
  /// Number of instructions (distinct operator subtrees of the source).
  std::size_t size() const { return ops.size(); }
  bool empty() const { return outputs.empty(); }
};

/// Smallest layout covering every variable and parameter slot the roots
/// reference, with every variable a state.
TapeLayout LayoutOf(std::span<const Expr* const> roots);

/// Flattens `roots` into one value-numbered register tape over `layout`
/// (segmented as described at Tape). Aborts when a leaf slot falls outside
/// the layout. When `sources` is given, it receives the operator node each
/// instruction was emitted from (the first occurrence of its value), in
/// tape order.
Tape Flatten(std::span<const Expr* const> roots, const TapeLayout& layout,
             std::vector<const Expr*>* sources = nullptr);
Tape Flatten(const std::vector<ExprPtr>& roots, const TapeLayout& layout);

/// Runtime-compilation backend.
///
/// The paper compiles each candidate process to C source with g++ and
/// dlopen()s the result so that the thousands of per-time-step evaluations
/// during fitness evaluation run compiled code instead of re-parsing the
/// tree. This library substitutes an in-process equivalent: the whole
/// equation system is flattened once into a register tape (one instruction
/// per distinct operator subtree, leaves read in place) executed by a tight
/// dispatch loop over a preallocated register file (no recursion, no
/// virtual dispatch, no pointer chasing). The measured effect —
/// compiled-form evaluation replacing repeated tree walking inside the GP
/// loop — is the same mechanism (see DESIGN.md section 4).
///
/// Runs are bit-identical to EvalExpr on each source root (both call the
/// same ApplyUnary/ApplyBinary kernels on the same operand values).
///
/// A rollout runs each tape segment only as often as its inputs change:
/// Bind once per parameter vector, Hold once per set of held values (a
/// day's drivers), Run once per derivative call.
class CompiledProgram {
 public:
  CompiledProgram() = default;
  explicit CompiledProgram(Tape tape);

  /// Rollout form, step 1: copies the parameter region and runs the bind
  /// segment. Aborts when fewer values are given than the layout's
  /// parameter region holds. Binding writes only the register file
  /// (mutable scratch, see below), so it is const like Run. Rerun Hold
  /// after it: the hold segment reads bind results.
  void Bind(const double* parameters, std::size_t num_parameters) const;

  /// Rollout form, step 2: copies the held slots
  /// [num_states, num_variables) of `variables` and runs the hold segment.
  /// Aborts when fewer values are given than the variable region holds.
  void Hold(const double* variables, std::size_t num_variables) const;

  /// Rollout form, step 3: copies the state slots [0, num_states) of
  /// `variables`, runs the run segment and writes out[r] for each root r.
  /// The held slots of `variables` are not read: callers must rerun Hold
  /// whenever a held slot changes. Aborts when fewer values are given than
  /// the variable region holds.
  void Run(const double* variables, std::size_t num_variables,
           double* out) const;

  /// Binds both regions from `ctx` and evaluates every root into out[r]
  /// (all three segments).
  void Run(const EvalContext& ctx, double* out) const;

  /// Single-root convenience: binds `ctx` and returns root 0's value.
  double Run(const EvalContext& ctx) const;

  /// Number of instructions in the tape (distinct operator subtrees of the
  /// source).
  std::size_t size() const { return tape_.size(); }
  std::size_t num_outputs() const { return tape_.num_outputs(); }

  const Tape& tape() const { return tape_; }
  /// The register file as the last Bind, Hold or Run left it.
  const double* registers() const { return registers_.data(); }

  /// True when Compile has not been run.
  bool empty() const { return tape_.empty(); }

 private:
  Tape tape_;
  // The register file, sized and seeded with the constants once at compile
  // time. Programs are evaluated thousands of times per fitness case
  // sequence; reusing the buffer keeps Run() allocation-free. A
  // CompiledProgram is therefore not safe to Run() from two threads
  // concurrently (clone it instead).
  mutable std::vector<double> registers_;
};

/// Compiles the equation system `roots` into one program over `layout`.
CompiledProgram Compile(const std::vector<ExprPtr>& roots,
                        const TapeLayout& layout);

/// Compiles one root over the layout it references (LayoutOf).
CompiledProgram Compile(const Expr& root);

}  // namespace gmr::expr

#endif  // GMR_EXPR_COMPILE_H_
