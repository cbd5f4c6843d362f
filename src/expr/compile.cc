#include "expr/compile.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace gmr::expr {
namespace {

// While flattening, constant and instruction operands carry a tag in their
// top bits (the constant region or the instruction's segment) and their
// index within it below: the region bases are known only once every root
// has been walked. Variable and parameter operands carry no tag (their
// registers are final). The tags are resolved in one pass at the end, by
// table lookup rather than a branch per operand.
constexpr int kTagShift = 28;
constexpr std::uint32_t kHoldTag = 1u << kTagShift;
constexpr std::uint32_t kBindTag = 2u << kTagShift;
constexpr std::uint32_t kRunTag = 4u << kTagShift;
constexpr std::uint32_t kConstantTag = 8u << kTagShift;
constexpr std::uint32_t kIndexMask = kHoldTag - 1;

void GrowLayout(const Expr& n, TapeLayout* layout) {
  const std::size_t used = static_cast<std::size_t>(n.slot()) + 1;
  if (n.kind() == NodeKind::kVariable) {
    layout->num_variables = std::max(layout->num_variables, used);
  } else if (n.kind() == NodeKind::kParameter) {
    layout->num_parameters = std::max(layout->num_parameters, used);
  }
  for (const ExprPtr& child : n.children()) GrowLayout(*child, layout);
}

/// The tape segment of a value, ordered from least to most varying.
enum class Segment : std::uint8_t { kBind, kHold, kRun };

/// A register operand and the segment of the value it holds.
struct Operand {
  std::uint32_t reg;
  Segment segment;
};

/// Postorder emitter. A leaf returns its own register and emits nothing.
/// An operator belongs to the segment of its most-varying operand and is
/// numbered in postorder within that segment; the dst tag records the
/// segment until Flatten sorts the instructions and gives each its own
/// register.
class Emitter {
 public:
  Emitter(const TapeLayout& layout, Tape* tape,
          std::vector<TapeInstruction>* postorder,
          std::vector<const Expr*>* sources)
      : layout_(layout),
        tape_(tape),
        postorder_(postorder),
        sources_(sources) {}

  Operand Emit(const Expr& n) {
    switch (n.kind()) {
      case NodeKind::kConstant:
        tape_->constants.push_back(n.value());
        return {kConstantTag |
                    static_cast<std::uint32_t>(tape_->constants.size() - 1),
                Segment::kBind};
      case NodeKind::kVariable: {
        const auto slot = static_cast<std::size_t>(n.slot());
        GMR_CHECK_LT(slot, layout_.num_variables);
        return {static_cast<std::uint32_t>(slot),
                slot < layout_.num_states ? Segment::kRun : Segment::kHold};
      }
      case NodeKind::kParameter:
        GMR_CHECK_LT(static_cast<std::size_t>(n.slot()),
                     layout_.num_parameters);
        return {static_cast<std::uint32_t>(layout_.num_variables + n.slot()),
                Segment::kBind};
      default:
        break;
    }
    const Operand a = Emit(*n.children()[0]);
    const Operand b = Arity(n.kind()) == 2 ? Emit(*n.children()[1]) : a;
    const Segment segment = std::max(a.segment, b.segment);
    const int s = static_cast<int>(segment);
    const std::uint32_t dst = kSegmentTag[s] | counts_[s]++;
    postorder_->push_back({n.kind(), dst, a.reg, b.reg});
    if (sources_ != nullptr) sources_->push_back(&n);
    return {dst, segment};
  }

  std::uint32_t num_bind() const { return counts_[0]; }
  std::uint32_t num_hold() const { return counts_[1]; }

 private:
  static constexpr std::uint32_t kSegmentTag[] = {kBindTag, kHoldTag,
                                                  kRunTag};

  const TapeLayout& layout_;
  Tape* tape_;
  std::vector<TapeInstruction>* postorder_;
  std::vector<const Expr*>* sources_;
  /// Operators emitted per segment.
  std::uint32_t counts_[3] = {0, 0, 0};
};

/// The dispatch loop of every segment: runs ops [begin, end) over the
/// register file `r`. Each case applies the operator's scalar kernel with
/// the kind fixed at compile time, so the kernel switch constant-folds
/// away. Leaves never appear: they are registers, not instructions. Inlined
/// into each segment runner, so the run segment pays no call.
[[gnu::always_inline]] inline void Execute(const TapeInstruction* begin,
                                           const TapeInstruction* end,
                                           double* r) {
  for (const TapeInstruction* ins = begin; ins != end; ++ins) {
    const double a = r[ins->a];
    switch (ins->op) {
      case NodeKind::kAdd:
        r[ins->dst] = a + r[ins->b];
        break;
      case NodeKind::kSub:
        r[ins->dst] = a - r[ins->b];
        break;
      case NodeKind::kMul:
        r[ins->dst] = a * r[ins->b];
        break;
      case NodeKind::kDiv:
        r[ins->dst] = ApplyBinary(NodeKind::kDiv, a, r[ins->b]);
        break;
      case NodeKind::kMin:
        r[ins->dst] = ApplyBinary(NodeKind::kMin, a, r[ins->b]);
        break;
      case NodeKind::kMax:
        r[ins->dst] = ApplyBinary(NodeKind::kMax, a, r[ins->b]);
        break;
      case NodeKind::kNeg:
        r[ins->dst] = -a;
        break;
      case NodeKind::kLog:
        r[ins->dst] = ApplyUnary(NodeKind::kLog, a);
        break;
      case NodeKind::kExp:
        r[ins->dst] = ApplyUnary(NodeKind::kExp, a);
        break;
      case NodeKind::kConstant:
      case NodeKind::kParameter:
      case NodeKind::kVariable:
        break;
    }
  }
}

}  // namespace

TapeLayout LayoutOf(std::span<const Expr* const> roots) {
  TapeLayout layout;
  for (const Expr* root : roots) GrowLayout(*root, &layout);
  layout.num_states = layout.num_variables;
  return layout;
}

Tape Flatten(std::span<const Expr* const> roots, const TapeLayout& layout,
             std::vector<const Expr*>* sources) {
  GMR_CHECK_LE(layout.num_states, layout.num_variables);
  Tape tape;
  tape.layout = layout;
  tape.outputs.reserve(roots.size());
  // The instructions (and their sources) in postorder, before they are
  // sorted into segments. Reused across calls, so a compile allocates the
  // tape's instruction vector once, at its final size.
  thread_local std::vector<TapeInstruction> postorder;
  postorder.clear();
  std::vector<const Expr*> postorder_sources;
  Emitter emitter(layout, &tape, &postorder,
                  sources != nullptr ? &postorder_sources : nullptr);
  for (const Expr* root : roots) {
    tape.outputs.push_back(emitter.Emit(*root).reg);
  }
  tape.hold_begin = emitter.num_bind();
  tape.run_begin = tape.hold_begin + emitter.num_hold();
  GMR_CHECK_LT(tape.temporary_base() + postorder.size(),
               static_cast<std::size_t>(kIndexMask));
  // Register base of each tag by operand >> kTagShift: a segment's k-th
  // instruction lands at its segment's start plus k and writes its own
  // register, temporary_base() plus its index. Untagged operands index 0
  // (base 0).
  std::size_t base[16] = {};
  base[kConstantTag >> kTagShift] = tape.constant_base();
  base[kBindTag >> kTagShift] = tape.temporary_base();
  base[kHoldTag >> kTagShift] = tape.temporary_base() + tape.hold_begin;
  base[kRunTag >> kTagShift] = tape.temporary_base() + tape.run_begin;
  const auto resolve = [&base](std::uint32_t operand) {
    return static_cast<std::uint32_t>(base[operand >> kTagShift] +
                                      (operand & kIndexMask));
  };
  tape.ops.resize(postorder.size());
  if (sources != nullptr) sources->assign(postorder.size(), nullptr);
  for (std::size_t k = 0; k < postorder.size(); ++k) {
    const TapeInstruction& ins = postorder[k];
    const std::uint32_t dst = resolve(ins.dst);
    const std::size_t i = dst - tape.temporary_base();
    tape.ops[i] = {ins.op, dst, resolve(ins.a), resolve(ins.b)};
    if (sources != nullptr) (*sources)[i] = postorder_sources[k];
  }
  for (std::uint32_t& out : tape.outputs) out = resolve(out);
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
  double* r = registers_.data();
  std::copy_n(parameters, tape_.layout.num_parameters,
              r + tape_.layout.num_variables);
  const TapeInstruction* ops = tape_.ops.data();
  Execute(ops, ops + tape_.hold_begin, r);
}

void CompiledProgram::Hold(const double* variables,
                           std::size_t num_variables) const {
  GMR_CHECK_GE(num_variables, tape_.layout.num_variables);
  double* r = registers_.data();
  // Loops, not std::copy: at a handful of slots the memmove call costs
  // more than the copy.
  for (std::size_t s = tape_.layout.num_states; s < tape_.layout.num_variables;
       ++s) {
    r[s] = variables[s];
  }
  const TapeInstruction* ops = tape_.ops.data();
  Execute(ops + tape_.hold_begin, ops + tape_.run_begin, r);
}

void CompiledProgram::Run(const double* variables, std::size_t num_variables,
                          double* out) const {
  GMR_CHECK(!tape_.empty());
  GMR_CHECK_GE(num_variables, tape_.layout.num_variables);
  double* r = registers_.data();
  for (std::size_t s = 0; s < tape_.layout.num_states; ++s) {
    r[s] = variables[s];
  }
  const TapeInstruction* ops = tape_.ops.data();
  Execute(ops + tape_.run_begin, ops + tape_.ops.size(), r);
  for (std::size_t i = 0; i < tape_.outputs.size(); ++i) {
    out[i] = r[tape_.outputs[i]];
  }
}

void CompiledProgram::Run(const EvalContext& ctx, double* out) const {
  Bind(ctx.parameters, ctx.num_parameters);
  Hold(ctx.variables, ctx.num_variables);
  Run(ctx.variables, ctx.num_variables, out);
}

double CompiledProgram::Run(const EvalContext& ctx) const {
  GMR_CHECK_EQ(tape_.num_outputs(), 1u);
  double out = 0.0;
  Run(ctx, &out);
  return out;
}

}  // namespace gmr::expr
