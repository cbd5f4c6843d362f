#include "expr/batch_vm.h"

#include <utility>

#include "common/check.h"
#include "expr/eval.h"

namespace gmr::expr {

BatchProgram::BatchProgram(Tape tape) : tape_(std::move(tape)) {}

BatchProgram CompileBatch(const std::vector<ExprPtr>& roots,
                          const TapeLayout& layout) {
  return BatchProgram(Flatten(roots, layout));
}

BatchProgram CompileBatch(const Expr& root) {
  const Expr* roots[] = {&root};
  return BatchProgram(Flatten(roots, LayoutOf(roots)));
}

void BatchProgram::RunLanes(const BatchEvalContext& ctx, double* out) const {
  GMR_CHECK(!tape_.empty());
  const std::size_t width = ctx.width;
  GMR_CHECK(width > 0);
  GMR_CHECK_GE(ctx.num_variables, tape_.layout.num_variables);
  GMR_CHECK_GE(ctx.num_parameters, tape_.layout.num_parameters);
  const std::size_t num_variables = tape_.layout.num_variables;
  const std::size_t constant_base = tape_.constant_base();
  const std::size_t num_registers = tape_.num_registers();
  if (width != width_) {
    // Constant rows are broadcast once per width; temporary rows follow.
    scratch_.assign((num_registers - constant_base) * width, 0.0);
    for (std::size_t c = 0; c < tape_.constants.size(); ++c) {
      double* row = scratch_.data() + c * width;
      for (std::size_t l = 0; l < width; ++l) row[l] = tape_.constants[c];
    }
    width_ = width;
    rows_.resize(num_registers);
  }
  // Row pointers are rebuilt every call (one store per register), so a
  // copied program never points into its source's scratch.
  for (std::size_t s = 0; s < num_variables; ++s) {
    rows_[s] = ctx.variables + s * width;
  }
  for (std::size_t s = 0; s < tape_.layout.num_parameters; ++s) {
    rows_[num_variables + s] = ctx.parameters + s * width;
  }
  for (std::size_t r = constant_base; r < num_registers; ++r) {
    rows_[r] = scratch_.data() + (r - constant_base) * width;
  }
  const double* const* rows = rows_.data();
  // The operator switch is hoisted OUT of the lane loop: each case body is
  // a branch-free sweep over independent lanes, calling the same inline
  // scalar kernels as CompiledProgram::Run with the operator kind fixed at
  // compile time (the kernel switch constant-folds away). Per lane this is
  // the exact scalar operation sequence; across lanes it is the stride-N
  // form the autovectorizer targets. Flatten never lets a destination
  // alias an operand, hence __restrict.
  for (const TapeInstruction& ins : tape_.ops) {
    double* __restrict d = const_cast<double*>(rows[ins.dst]);
    const double* a = rows[ins.a];
    const double* b = rows[ins.b];
    switch (ins.op) {
      case NodeKind::kAdd:
        for (std::size_t l = 0; l < width; ++l) d[l] = a[l] + b[l];
        break;
      case NodeKind::kSub:
        for (std::size_t l = 0; l < width; ++l) d[l] = a[l] - b[l];
        break;
      case NodeKind::kMul:
        for (std::size_t l = 0; l < width; ++l) d[l] = a[l] * b[l];
        break;
      case NodeKind::kDiv:
        for (std::size_t l = 0; l < width; ++l) {
          d[l] = ApplyBinary(NodeKind::kDiv, a[l], b[l]);
        }
        break;
      case NodeKind::kMin:
        for (std::size_t l = 0; l < width; ++l) {
          d[l] = ApplyBinary(NodeKind::kMin, a[l], b[l]);
        }
        break;
      case NodeKind::kMax:
        for (std::size_t l = 0; l < width; ++l) {
          d[l] = ApplyBinary(NodeKind::kMax, a[l], b[l]);
        }
        break;
      case NodeKind::kNeg:
        for (std::size_t l = 0; l < width; ++l) d[l] = -a[l];
        break;
      case NodeKind::kLog:
        for (std::size_t l = 0; l < width; ++l) {
          d[l] = ApplyUnary(NodeKind::kLog, a[l]);
        }
        break;
      case NodeKind::kExp:
        for (std::size_t l = 0; l < width; ++l) {
          d[l] = ApplyUnary(NodeKind::kExp, a[l]);
        }
        break;
      case NodeKind::kConstant:
      case NodeKind::kParameter:
      case NodeKind::kVariable:
        break;
    }
  }
  for (std::size_t i = 0; i < tape_.outputs.size(); ++i) {
    const double* row = rows[tape_.outputs[i]];
    double* dst = out + i * width;
    for (std::size_t l = 0; l < width; ++l) dst[l] = row[l];
  }
}

}  // namespace gmr::expr
