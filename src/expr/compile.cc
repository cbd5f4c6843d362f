#include "expr/compile.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace gmr::expr {
namespace {

// While flattening, constant and temporary operands carry a tag bit and
// their index within their region: the region bases are known only once
// every root has been walked. The tags are resolved in one pass at the end.
constexpr std::uint32_t kConstantTag = 1u << 31;
constexpr std::uint32_t kTemporaryTag = 1u << 30;
constexpr std::uint32_t kIndexMask = kTemporaryTag - 1;

std::uint32_t Resolve(std::uint32_t operand, const Tape& tape) {
  if ((operand & kConstantTag) != 0) {
    return static_cast<std::uint32_t>(tape.constant_base() +
                                      (operand & kIndexMask));
  }
  if ((operand & kTemporaryTag) != 0) {
    return static_cast<std::uint32_t>(tape.temporary_base() +
                                      (operand & kIndexMask));
  }
  return operand;
}

void GrowLayout(const Expr& n, TapeLayout* layout) {
  const std::size_t used = static_cast<std::size_t>(n.slot()) + 1;
  if (n.kind() == NodeKind::kVariable) {
    layout->num_variables = std::max(layout->num_variables, used);
  } else if (n.kind() == NodeKind::kParameter) {
    layout->num_parameters = std::max(layout->num_parameters, used);
  }
  for (const ExprPtr& child : n.children()) GrowLayout(*child, layout);
}

/// Postorder emitter. A leaf returns its own register and emits nothing;
/// an operator evaluated at `depth` writes temporary `depth` after its
/// operands were evaluated at depth + 1 and depth + 2. A subtree at depth d
/// only writes temporaries >= d, so the first operand survives the second
/// one's evaluation, and dst never aliases an operand.
class Emitter {
 public:
  Emitter(const TapeLayout& layout, Tape* tape)
      : layout_(layout), tape_(tape) {}

  std::uint32_t Emit(const Expr& n, std::uint32_t depth) {
    switch (n.kind()) {
      case NodeKind::kConstant:
        tape_->constants.push_back(n.value());
        return kConstantTag |
               static_cast<std::uint32_t>(tape_->constants.size() - 1);
      case NodeKind::kVariable:
        GMR_CHECK_LT(static_cast<std::size_t>(n.slot()),
                     layout_.num_variables);
        return static_cast<std::uint32_t>(n.slot());
      case NodeKind::kParameter:
        GMR_CHECK_LT(static_cast<std::size_t>(n.slot()),
                     layout_.num_parameters);
        return static_cast<std::uint32_t>(layout_.num_variables + n.slot());
      default:
        break;
    }
    TapeInstruction ins;
    ins.op = n.kind();
    ins.a = Emit(*n.children()[0], depth + 1);
    ins.b = Arity(n.kind()) == 2 ? Emit(*n.children()[1], depth + 2) : ins.a;
    ins.dst = kTemporaryTag | depth;
    tape_->num_temporaries =
        std::max<std::size_t>(tape_->num_temporaries, depth + 1);
    tape_->ops.push_back(ins);
    return ins.dst;
  }

 private:
  const TapeLayout& layout_;
  Tape* tape_;
};

}  // namespace

TapeLayout LayoutOf(std::span<const Expr* const> roots) {
  TapeLayout layout;
  for (const Expr* root : roots) GrowLayout(*root, &layout);
  return layout;
}

Tape Flatten(std::span<const Expr* const> roots, const TapeLayout& layout) {
  Tape tape;
  tape.layout = layout;
  tape.outputs.reserve(roots.size());
  Emitter emitter(layout, &tape);
  // Root r's value lands in temporary r, which later roots (evaluated at
  // depths > r) never write, so every output survives until the run
  // copies it out.
  for (std::size_t r = 0; r < roots.size(); ++r) {
    tape.outputs.push_back(
        emitter.Emit(*roots[r], static_cast<std::uint32_t>(r)));
  }
  GMR_CHECK_LT(tape.num_registers(), static_cast<std::size_t>(kIndexMask));
  for (TapeInstruction& ins : tape.ops) {
    ins.dst = Resolve(ins.dst, tape);
    ins.a = Resolve(ins.a, tape);
    ins.b = Resolve(ins.b, tape);
  }
  for (std::uint32_t& out : tape.outputs) out = Resolve(out, tape);
  return tape;
}

Tape Flatten(const std::vector<ExprPtr>& roots, const TapeLayout& layout) {
  std::vector<const Expr*> pointers;
  pointers.reserve(roots.size());
  for (const ExprPtr& root : roots) pointers.push_back(root.get());
  return Flatten(pointers, layout);
}

CompiledProgram::CompiledProgram(Tape tape) : tape_(std::move(tape)) {
  registers_.assign(tape_.num_registers(), 0.0);
  std::copy(tape_.constants.begin(), tape_.constants.end(),
            registers_.begin() +
                static_cast<std::ptrdiff_t>(tape_.constant_base()));
}

CompiledProgram Compile(const std::vector<ExprPtr>& roots,
                        const TapeLayout& layout) {
  return CompiledProgram(Flatten(roots, layout));
}

CompiledProgram Compile(const Expr& root) {
  const Expr* roots[] = {&root};
  return CompiledProgram(Flatten(roots, LayoutOf(roots)));
}

void CompiledProgram::Bind(const double* parameters,
                           std::size_t num_parameters) const {
  GMR_CHECK_GE(num_parameters, tape_.layout.num_parameters);
  std::copy_n(parameters, tape_.layout.num_parameters,
              registers_.data() + tape_.layout.num_variables);
}

void CompiledProgram::Run(const double* variables, std::size_t num_variables,
                          double* out) const {
  GMR_CHECK(!tape_.empty());
  GMR_CHECK_GE(num_variables, tape_.layout.num_variables);
  double* r = registers_.data();
  std::copy_n(variables, tape_.layout.num_variables, r);
  // Each case applies the operator's scalar kernel with the kind fixed at
  // compile time, so the kernel switch constant-folds away. Leaves never
  // appear: they are registers, not instructions.
  for (const TapeInstruction& ins : tape_.ops) {
    const double a = r[ins.a];
    switch (ins.op) {
      case NodeKind::kAdd:
        r[ins.dst] = a + r[ins.b];
        break;
      case NodeKind::kSub:
        r[ins.dst] = a - r[ins.b];
        break;
      case NodeKind::kMul:
        r[ins.dst] = a * r[ins.b];
        break;
      case NodeKind::kDiv:
        r[ins.dst] = ApplyBinary(NodeKind::kDiv, a, r[ins.b]);
        break;
      case NodeKind::kMin:
        r[ins.dst] = ApplyBinary(NodeKind::kMin, a, r[ins.b]);
        break;
      case NodeKind::kMax:
        r[ins.dst] = ApplyBinary(NodeKind::kMax, a, r[ins.b]);
        break;
      case NodeKind::kNeg:
        r[ins.dst] = -a;
        break;
      case NodeKind::kLog:
        r[ins.dst] = ApplyUnary(NodeKind::kLog, a);
        break;
      case NodeKind::kExp:
        r[ins.dst] = ApplyUnary(NodeKind::kExp, a);
        break;
      case NodeKind::kConstant:
      case NodeKind::kParameter:
      case NodeKind::kVariable:
        break;
    }
  }
  for (std::size_t i = 0; i < tape_.outputs.size(); ++i) {
    out[i] = r[tape_.outputs[i]];
  }
}

void CompiledProgram::Run(const EvalContext& ctx, double* out) const {
  Bind(ctx.parameters, ctx.num_parameters);
  Run(ctx.variables, ctx.num_variables, out);
}

double CompiledProgram::Run(const EvalContext& ctx) const {
  GMR_CHECK_EQ(tape_.num_outputs(), 1u);
  double out = 0.0;
  Run(ctx, &out);
  return out;
}

}  // namespace gmr::expr
