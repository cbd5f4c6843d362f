#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "expr/ast.h"
#include "expr/compile.h"
#include "expr/eval.h"
#include "expr/parser.h"
#include "expr/print.h"
#include "expr/simplify.h"
#include "river/biology.h"
#include "river/chemistry.h"
#include "river/constituents.h"

namespace gmr::expr {
namespace {

/// Owns the backing storage so the EvalContext pointers stay valid for the
/// holder's lifetime (EvalContext itself is non-owning).
class ContextHolder {
 public:
  ContextHolder(std::vector<double> vars, std::vector<double> params)
      : vars_(std::move(vars)), params_(std::move(params)) {}

  operator EvalContext() const {  // NOLINT: test convenience
    EvalContext ctx;
    ctx.variables = vars_.data();
    ctx.num_variables = vars_.size();
    ctx.parameters = params_.data();
    ctx.num_parameters = params_.size();
    return ctx;
  }

 private:
  std::vector<double> vars_;
  std::vector<double> params_;
};

ContextHolder MakeContext(std::vector<double> vars,
                          std::vector<double> params) {
  return ContextHolder(std::move(vars), std::move(params));
}

// ----------------------------------------------------------------- AST ----

TEST(AstTest, NodeCountAndHeight) {
  const ExprPtr e = Add(Mul(Variable(0, "x"), Constant(2.0)), Constant(1.0));
  EXPECT_EQ(e->NodeCount(), 5u);
  EXPECT_EQ(e->Height(), 3u);
  EXPECT_EQ(Constant(1.0)->Height(), 1u);
}

TEST(AstTest, ArityTable) {
  EXPECT_EQ(Arity(NodeKind::kConstant), 0);
  EXPECT_EQ(Arity(NodeKind::kVariable), 0);
  EXPECT_EQ(Arity(NodeKind::kParameter), 0);
  EXPECT_EQ(Arity(NodeKind::kNeg), 1);
  EXPECT_EQ(Arity(NodeKind::kLog), 1);
  EXPECT_EQ(Arity(NodeKind::kExp), 1);
  for (NodeKind k : {NodeKind::kAdd, NodeKind::kSub, NodeKind::kMul,
                     NodeKind::kDiv, NodeKind::kMin, NodeKind::kMax}) {
    EXPECT_EQ(Arity(k), 2);
  }
}

TEST(AstTest, StructuralEqualityAndHash) {
  const ExprPtr a = Add(Variable(0, "x"), Constant(1.0));
  const ExprPtr b = Add(Variable(0, "x"), Constant(1.0));
  const ExprPtr c = Add(Variable(1, "y"), Constant(1.0));
  EXPECT_TRUE(StructurallyEqual(*a, *b));
  EXPECT_FALSE(StructurallyEqual(*a, *c));
  EXPECT_EQ(a->StructuralHash(), b->StructuralHash());
  EXPECT_NE(a->StructuralHash(), c->StructuralHash());
}

TEST(AstTest, HashDistinguishesOperandOrderForNoncommutative) {
  const ExprPtr a = Sub(Variable(0, "x"), Constant(1.0));
  const ExprPtr b = Sub(Constant(1.0), Variable(0, "x"));
  EXPECT_NE(a->StructuralHash(), b->StructuralHash());
}

TEST(AstTest, ReferencedSlots) {
  const ExprPtr e =
      Add(Mul(Variable(3, "a"), Parameter(1, "p")),
          Sub(Variable(0, "b"), Variable(3, "a")));
  EXPECT_EQ(ReferencedVariableSlots(*e), (std::vector<int>{0, 3}));
  EXPECT_EQ(ReferencedParameterSlots(*e), (std::vector<int>{1}));
}

// ---------------------------------------------------------------- eval ----

TEST(EvalTest, BasicArithmetic) {
  const auto ctx = MakeContext({3.0, 4.0}, {});
  EXPECT_DOUBLE_EQ(EvalExpr(*Add(Variable(0, ""), Variable(1, "")), ctx), 7);
  EXPECT_DOUBLE_EQ(EvalExpr(*Sub(Variable(0, ""), Variable(1, "")), ctx), -1);
  EXPECT_DOUBLE_EQ(EvalExpr(*Mul(Variable(0, ""), Variable(1, "")), ctx), 12);
  EXPECT_DOUBLE_EQ(EvalExpr(*Div(Variable(1, ""), Variable(0, "")), ctx),
                   4.0 / 3.0);
  EXPECT_DOUBLE_EQ(EvalExpr(*Min(Variable(0, ""), Variable(1, "")), ctx), 3);
  EXPECT_DOUBLE_EQ(EvalExpr(*Max(Variable(0, ""), Variable(1, "")), ctx), 4);
  EXPECT_DOUBLE_EQ(EvalExpr(*Neg(Variable(0, "")), ctx), -3);
}

TEST(EvalTest, ParameterLookup) {
  const auto ctx = MakeContext({}, {2.5, -1.0});
  EXPECT_DOUBLE_EQ(EvalExpr(*Parameter(1, "p"), ctx), -1.0);
}

TEST(EvalTest, ProtectedDivisionReturnsOne) {
  const auto ctx = MakeContext({5.0, 0.0}, {});
  EXPECT_DOUBLE_EQ(EvalExpr(*Div(Variable(0, ""), Variable(1, "")), ctx),
                   1.0);
  EXPECT_DOUBLE_EQ(
      EvalExpr(*Div(Variable(0, ""), Constant(0.5 * kDivEpsilon)), ctx), 1.0);
}

TEST(EvalTest, ProtectedLog) {
  const auto ctx = MakeContext({}, {});
  EXPECT_DOUBLE_EQ(EvalExpr(*Log(Constant(std::exp(1.0))), ctx), 1.0);
  EXPECT_DOUBLE_EQ(EvalExpr(*Log(Constant(-std::exp(2.0))), ctx), 2.0);
  EXPECT_DOUBLE_EQ(EvalExpr(*Log(Constant(0.0)), ctx), 0.0);
}

TEST(EvalTest, ExpIsClamped) {
  const auto ctx = MakeContext({}, {});
  const double big = EvalExpr(*Exp(Constant(1e9)), ctx);
  EXPECT_TRUE(std::isfinite(big));
  EXPECT_DOUBLE_EQ(big, std::exp(kExpArgClamp));
  EXPECT_DOUBLE_EQ(EvalExpr(*Exp(Constant(-1e9)), ctx),
                   std::exp(-kExpArgClamp));
}

// ------------------------------------------------------------- compile ----

ExprPtr RandomTree(Rng& rng, int depth, int num_vars, int num_params) {
  if (depth <= 1 || rng.Bernoulli(0.3)) {
    const double dice = rng.Uniform();
    if (dice < 0.4) return Variable(rng.UniformInt(0, num_vars - 1), "");
    if (dice < 0.6) return Parameter(rng.UniformInt(0, num_params - 1), "");
    return Constant(rng.Uniform(-5, 5));
  }
  static const NodeKind kBinary[] = {NodeKind::kAdd, NodeKind::kSub,
                                     NodeKind::kMul, NodeKind::kDiv,
                                     NodeKind::kMin, NodeKind::kMax};
  static const NodeKind kUnary[] = {NodeKind::kNeg, NodeKind::kLog,
                                    NodeKind::kExp};
  if (rng.Bernoulli(0.25)) {
    return MakeUnary(kUnary[rng.UniformInt(0, 2)],
                     RandomTree(rng, depth - 1, num_vars, num_params));
  }
  return MakeBinary(kBinary[rng.UniformInt(0, 5)],
                    RandomTree(rng, depth - 1, num_vars, num_params),
                    RandomTree(rng, depth - 1, num_vars, num_params));
}

/// Property: the compiled VM is bit-identical to the tree interpreter.
class CompileEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(CompileEquivalenceTest, VmMatchesInterpreter) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  const ExprPtr tree = RandomTree(rng, 6, 4, 3);
  const CompiledProgram program = Compile(*tree);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> vars(4), params(3);
    for (double& v : vars) v = rng.Uniform(-10, 10);
    for (double& p : params) p = rng.Uniform(-10, 10);
    const auto ctx = MakeContext(vars, params);
    const double interpreted = EvalExpr(*tree, ctx);
    const double compiled = program.Run(ctx);
    if (std::isnan(interpreted)) {
      EXPECT_TRUE(std::isnan(compiled));
    } else {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(interpreted),
                std::bit_cast<std::uint64_t>(compiled))
          << interpreted << " vs " << compiled;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompileEquivalenceTest,
                         ::testing::Range(0, 40));

/// Operator nodes of a tree, counting a shared subtree once per occurrence.
std::size_t OperatorCount(const Expr& node) {
  std::size_t count = node.IsLeaf() ? 0 : 1;
  for (const ExprPtr& child : node.children()) count += OperatorCount(*child);
  return count;
}

TEST(CompileTest, ProgramSizeEqualsOperatorCount) {
  // Leaves are registers, not instructions: one instruction per operator.
  const ExprPtr e = Add(Mul(Variable(0, ""), Constant(2.0)), Constant(1.0));
  EXPECT_EQ(Compile(*e).size(), 2u);
  EXPECT_EQ(Compile(*e).size(), OperatorCount(*e));
  const ExprPtr unary = Neg(Log(Variable(1, "")));
  EXPECT_EQ(Compile(*unary).size(), 2u);
  EXPECT_EQ(Compile(*Parameter(0, "")).size(), 0u);
}

TEST(CompileTest, SystemMatchesInterpreterPerEquationInOrder) {
  // A subtree shared by two equations and twice within a third, an
  // equation that is a bare leaf of each kind, and the outputs must come
  // back in equation order.
  const ExprPtr shared = Mul(Parameter(0, ""), Exp(Variable(1, "")));
  const std::vector<ExprPtr> roots = {
      Sub(shared, Variable(0, "")),
      Variable(2, ""),
      Add(shared, Div(shared, Min(Variable(0, ""), Parameter(1, "")))),
      Constant(-3.5),
      Parameter(1, ""),
      Max(Neg(Variable(2, "")), Log(shared)),
  };
  const CompiledProgram program = Compile(roots, TapeLayout{3, 2});
  ASSERT_EQ(program.num_outputs(), roots.size());
  std::size_t operators = 0;
  for (const ExprPtr& root : roots) operators += OperatorCount(*root);
  EXPECT_EQ(program.size(), operators);

  Rng rng(17);
  std::vector<double> params = {rng.Uniform(-2, 2), rng.Uniform(-2, 2)};
  program.Bind(params.data(), params.size());
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> vars = {rng.Uniform(-5, 5), rng.Uniform(-5, 5),
                                rng.Uniform(-5, 5)};
    // Rollout form: parameters stay bound across runs.
    std::vector<double> out(roots.size(), 0.0);
    program.Run(vars.data(), vars.size(), out.data());
    const auto ctx = MakeContext(vars, params);
    for (std::size_t e = 0; e < roots.size(); ++e) {
      const double want = EvalExpr(*roots[e], ctx);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(want),
                std::bit_cast<std::uint64_t>(out[e]))
          << "equation " << e << ", trial " << trial;
    }
  }
  // The context form rebinds the parameters on every call.
  const std::vector<double> vars = {0.5, -1.0, 2.0};
  const std::vector<double> other = {3.0, 0.25};
  std::vector<double> out(roots.size(), 0.0);
  program.Run(MakeContext(vars, other), out.data());
  EXPECT_EQ(out[4], 0.25);
  EXPECT_EQ(out[2], EvalExpr(*roots[2], MakeContext(vars, other)));
}

/// Flattens `roots` with `num_states` state slots followed by the ten
/// driver slots, the layout the rollouts compile with.
Tape FlattenWithStates(const std::vector<ExprPtr>& roots,
                       std::size_t num_states) {
  std::vector<const Expr*> pointers;
  for (const ExprPtr& root : roots) pointers.push_back(root.get());
  TapeLayout layout = LayoutOf(pointers);
  layout.num_variables =
      num_states + static_cast<std::size_t>(river::kNumDriverVariables);
  layout.num_states = num_states;
  return Flatten(pointers, layout);
}

TEST(CompileTest, ExpertProcessSegmentSizes) {
  // Plankton MANUAL: nothing reads only parameters, 22 instructions read
  // only drivers (and parameters), 39 read a state.
  const Tape plankton = FlattenWithStates(river::ManualProcess(), 2);
  EXPECT_EQ(plankton.size(), 61u);
  EXPECT_EQ(plankton.hold_begin, 0u);
  EXPECT_EQ(plankton.run_begin - plankton.hold_begin, 22u);
  EXPECT_EQ(plankton.size() - plankton.run_begin, 39u);
  // The five-species transport registry: 24 = 3 bind + 5 hold + 16 run.
  const Tape transport = FlattenWithStates(
      river::TransportProcess(river::ConstituentSet::Transport(5)), 5);
  EXPECT_EQ(transport.size(), 24u);
  EXPECT_EQ(transport.hold_begin, 3u);
  EXPECT_EQ(transport.run_begin - transport.hold_begin, 5u);
  EXPECT_EQ(transport.size() - transport.run_begin, 16u);
}

TEST(CompileTest, EveryInstructionWritesItsOwnRegisterAfterItsOperands) {
  // SSA form, which the adjoint's reverse sweep relies on: instruction i
  // writes temporary_base() + i, and every operand is a leaf register or
  // an earlier instruction's. Flatten's sources are the instructions' own
  // operator nodes, in tape order.
  const auto expect_ssa = [](const std::vector<ExprPtr>& roots,
                             std::size_t num_states) {
    std::vector<const Expr*> pointers;
    for (const ExprPtr& root : roots) pointers.push_back(root.get());
    TapeLayout layout = LayoutOf(pointers);
    layout.num_variables = std::max(layout.num_variables, num_states);
    layout.num_states = num_states;
    std::vector<const Expr*> sources;
    const Tape tape = Flatten(pointers, layout, &sources);
    ASSERT_EQ(sources.size(), tape.size());
    EXPECT_EQ(tape.num_registers(), tape.temporary_base() + tape.size());
    for (std::size_t i = 0; i < tape.size(); ++i) {
      const TapeInstruction& ins = tape.ops[i];
      EXPECT_EQ(ins.dst, tape.temporary_base() + i);
      EXPECT_LT(ins.a, ins.dst);
      EXPECT_LT(ins.b, ins.dst);
      EXPECT_EQ(sources[i]->kind(), ins.op);
    }
    for (const std::uint32_t out : tape.outputs) {
      EXPECT_LT(out, tape.num_registers());
    }
  };
  expect_ssa(river::ManualProcess(), 2);
  expect_ssa(river::TransportProcess(river::ConstituentSet::Transport(5)), 5);
  Rng rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(trial);
    expect_ssa({RandomTree(rng, 6, 4, 3), RandomTree(rng, 6, 4, 3),
                RandomTree(rng, 4, 4, 3)},
               static_cast<std::size_t>(trial % 5));
  }
}

TEST(CompileTest, StagedRunsFollowEveryInputChange) {
  // Variable 0 is a state, variable 1 is held. Roots: a parameter-only
  // root and a held-only root (both hoisted whole), bare leaves of the
  // held and parameter regions, and a run root reading hoisted values.
  const std::vector<ExprPtr> roots = {
      Mul(Parameter(0, ""), Parameter(1, "")),
      Exp(Variable(1, "")),
      Variable(1, ""),
      Parameter(0, ""),
      Add(Variable(0, ""), Mul(Parameter(1, ""), Exp(Variable(1, "")))),
  };
  const TapeLayout layout{2, 2, 1};
  const Tape tape = Flatten(roots, layout);
  EXPECT_EQ(tape.hold_begin, 1u);
  EXPECT_EQ(tape.run_begin, 4u);
  EXPECT_EQ(tape.size(), 5u);

  const CompiledProgram program{Tape(tape)};
  const std::vector<double> params = {1.5, -0.75};
  program.Bind(params.data(), params.size());
  std::vector<double> out(roots.size(), 0.0);
  std::vector<double> previous;
  const auto expect_interpreted = [&](const std::vector<double>& vars) {
    const auto ctx = MakeContext(vars, params);
    for (std::size_t r = 0; r < roots.size(); ++r) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(EvalExpr(*roots[r], ctx)),
                std::bit_cast<std::uint64_t>(out[r]))
          << "root " << r << ", vars " << vars[0] << ", " << vars[1];
    }
  };
  for (const double held : {0.5, -2.0}) {
    std::vector<double> vars = {3.0, held};
    program.Hold(vars.data(), vars.size());
    program.Run(vars.data(), vars.size(), out.data());
    expect_interpreted(vars);
    // A second hold call with different held values changes the output.
    if (!previous.empty()) {
      EXPECT_NE(out[1], previous[1]);
    }
    previous = out;
    // States change between runs without a hold call.
    vars[0] = -4.0;
    program.Run(vars.data(), vars.size(), out.data());
    expect_interpreted(vars);
  }
}

TEST(CompileTest, LayoutOfHoistsNoVariableRead) {
  // LayoutOf makes every variable a state: only parameter- and
  // constant-only instructions are hoisted, into the bind segment.
  Rng rng(29);
  for (int trial = 0; trial < 40; ++trial) {
    const ExprPtr tree = RandomTree(rng, 6, 4, 3);
    const Expr* roots[] = {tree.get()};
    const Tape tape = Flatten(roots, LayoutOf(roots));
    EXPECT_EQ(tape.layout.num_states, tape.layout.num_variables);
    EXPECT_EQ(tape.run_begin, tape.hold_begin) << "trial " << trial;
    for (std::size_t i = 0; i < tape.hold_begin; ++i) {
      EXPECT_GE(tape.ops[i].a, tape.layout.num_variables) << "trial " << trial;
      EXPECT_GE(tape.ops[i].b, tape.layout.num_variables) << "trial " << trial;
    }
  }
}

TEST(CompileDeathTest, SlotOutsideTheLayoutIsRejected) {
  // Slots are checked once: against the layout at compile time, and the
  // caller's region sizes against the layout once per call.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::vector<ExprPtr> variable = {Add(Variable(3, ""), Constant(1.0))};
  EXPECT_DEATH(Compile(variable, TapeLayout{3, 0}), "GMR_CHECK failed");
  const std::vector<ExprPtr> parameter = {Parameter(2, "")};
  EXPECT_DEATH(Compile(parameter, TapeLayout{0, 2}), "GMR_CHECK failed");

  const CompiledProgram program =
      Compile(*Add(Variable(2, ""), Parameter(1, "")));
  const std::vector<double> values = {1.0, 2.0, 3.0};
  double out = 0.0;
  EXPECT_DEATH(program.Run(values.data(), 2, &out), "GMR_CHECK failed");
  EXPECT_DEATH(program.Bind(values.data(), 1), "GMR_CHECK failed");
  program.Bind(values.data(), 2);
  program.Run(values.data(), 3, &out);
  EXPECT_EQ(out, 3.0 + 2.0);
}

// ------------------------------------------------------------ simplify ----

TEST(SimplifyTest, Identities) {
  const ExprPtr x = Variable(0, "x");
  EXPECT_TRUE(StructurallyEqual(*Simplify(Add(x, Constant(0.0))), *x));
  EXPECT_TRUE(StructurallyEqual(*Simplify(Mul(x, Constant(1.0))), *x));
  EXPECT_TRUE(StructurallyEqual(*Simplify(Sub(x, Constant(0.0))), *x));
  EXPECT_TRUE(StructurallyEqual(*Simplify(Div(x, Constant(1.0))), *x));
  EXPECT_TRUE(
      StructurallyEqual(*Simplify(Mul(x, Constant(0.0))), *Constant(0.0)));
  EXPECT_TRUE(StructurallyEqual(*Simplify(Sub(x, x)), *Constant(0.0)));
  EXPECT_TRUE(StructurallyEqual(*Simplify(Div(x, x)), *Constant(1.0)));
  EXPECT_TRUE(StructurallyEqual(*Simplify(Min(x, x)), *x));
  EXPECT_TRUE(StructurallyEqual(*Simplify(Neg(Neg(x))), *x));
}

TEST(SimplifyTest, ValueDependentIdentitiesRequireProvablyFiniteOperands) {
  // x + y can overflow to inf, where (x+y) - (x+y) is NaN, not 0, and
  // (x+y) / (x+y) is NaN, not 1. The rewrites must not fire. Same for
  // 0 * (x+y): 0 * inf is NaN.
  const ExprPtr sum = Add(Variable(0, "x"), Variable(1, "y"));
  EXPECT_FALSE(
      StructurallyEqual(*Simplify(Sub(sum, sum)), *Constant(0.0)));
  EXPECT_EQ(Simplify(Sub(sum, sum))->NodeCount(), Sub(sum, sum)->NodeCount());
  EXPECT_FALSE(
      StructurallyEqual(*Simplify(Div(sum, sum)), *Constant(1.0)));
  EXPECT_EQ(Simplify(Div(sum, sum))->NodeCount(), Div(sum, sum)->NodeCount());
  EXPECT_FALSE(StructurallyEqual(*Simplify(Mul(Constant(0.0), sum)),
                                 *Constant(0.0)));
  EXPECT_FALSE(StructurallyEqual(*Simplify(Mul(sum, Constant(0.0))),
                                 *Constant(0.0)));
  // An infinite literal is not provably finite either.
  const ExprPtr inf = Constant(std::numeric_limits<double>::infinity());
  EXPECT_FALSE(
      StructurallyEqual(*Simplify(Mul(Constant(0.0), inf)), *Constant(0.0)));

  // Operators that never produce inf from finite inputs keep the rewrites:
  // neg, min, max, log (clamped below), exp (clamped above).
  const ExprPtr safe = Neg(Min(Variable(0, "x"), Exp(Variable(1, "y"))));
  EXPECT_TRUE(
      StructurallyEqual(*Simplify(Sub(safe, safe)), *Constant(0.0)));
  EXPECT_TRUE(
      StructurallyEqual(*Simplify(Div(safe, safe)), *Constant(1.0)));
  // min/max(x, x) -> x holds even for NaN/inf operands (the kernel returns
  // an operand bitwise), so it stays unguarded.
  EXPECT_EQ(Simplify(Min(sum, sum))->NodeCount(), sum->NodeCount());
}

TEST(SimplifyTest, ConstantFolding) {
  const ExprPtr e = Add(Constant(2.0), Mul(Constant(3.0), Constant(4.0)));
  const ExprPtr s = Simplify(e);
  ASSERT_EQ(s->kind(), NodeKind::kConstant);
  EXPECT_DOUBLE_EQ(s->value(), 14.0);
}

TEST(SimplifyTest, FoldingUsesProtectedSemantics) {
  const ExprPtr s = Simplify(Div(Constant(5.0), Constant(0.0)));
  ASSERT_EQ(s->kind(), NodeKind::kConstant);
  EXPECT_DOUBLE_EQ(s->value(), 1.0);
}

TEST(SimplifyTest, CommutativeCanonicalization) {
  const ExprPtr a = Add(Variable(1, "y"), Variable(0, "x"));
  const ExprPtr b = Add(Variable(0, "x"), Variable(1, "y"));
  EXPECT_TRUE(StructurallyEqual(*Simplify(a), *Simplify(b)));
  EXPECT_EQ(Simplify(a)->StructuralHash(), Simplify(b)->StructuralHash());
}

TEST(SimplifyTest, DoesNotFoldNamedParameters) {
  // Parameters are runtime values; folding them would freeze the model.
  const ExprPtr e = Mul(Parameter(0, "p"), Constant(2.0));
  const ExprPtr s = Simplify(e);
  EXPECT_EQ(s->kind(), NodeKind::kMul);
}

/// Property: simplification preserves semantics and never grows the tree.
class SimplifyPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplifyPropertyTest, PreservesSemanticsAndShrinks) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 3);
  const ExprPtr tree = RandomTree(rng, 6, 3, 2);
  const ExprPtr simplified = Simplify(tree);
  EXPECT_LE(simplified->NodeCount(), tree->NodeCount());
  // Idempotence.
  EXPECT_TRUE(StructurallyEqual(*Simplify(simplified), *simplified));
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> vars(3), params(2);
    for (double& v : vars) v = rng.Uniform(-4, 4);
    for (double& p : params) p = rng.Uniform(-4, 4);
    const auto ctx = MakeContext(vars, params);
    const double before = EvalExpr(*tree, ctx);
    const double after = EvalExpr(*simplified, ctx);
    if (std::isnan(before)) {
      EXPECT_TRUE(std::isnan(after));
    } else {
      // Commutative reordering can change floating-point rounding; allow a
      // tight relative tolerance.
      EXPECT_NEAR(after, before,
                  1e-9 * std::max(1.0, std::fabs(before)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplifyPropertyTest, ::testing::Range(0, 40));

// --------------------------------------------------------------- print ----

TEST(PrintTest, InfixGoldenStrings) {
  const ExprPtr x = Variable(0, "x");
  const ExprPtr p = Parameter(0, "C");
  EXPECT_EQ(ToString(*Add(x, Constant(1.0))), "x + 1");
  EXPECT_EQ(ToString(*Mul(Add(x, p), Constant(2.0))), "(x + C) * 2");
  EXPECT_EQ(ToString(*Sub(x, Sub(p, Constant(1.0)))), "x - (C - 1)");
  EXPECT_EQ(ToString(*Min(x, Exp(p))), "min(x, exp(C))");
  EXPECT_EQ(ToString(*Neg(x)), "-x");
}

TEST(PrintTest, SExpression) {
  const ExprPtr e = Mul(Variable(0, "B"), Sub(Variable(1, "mu"), Constant(1.5)));
  EXPECT_EQ(ToSExpression(*e), "(* B (- mu 1.5))");
}

// -------------------------------------------------------------- parser ----

SymbolTable TestSymbols() {
  SymbolTable symbols;
  symbols.variables["x"] = 0;
  symbols.variables["y"] = 1;
  symbols.parameters["C"] = 0;
  return symbols;
}

TEST(ParserTest, PrecedenceAndAssociativity) {
  const auto result = Parse("x + y * 2 - 1", TestSymbols());
  ASSERT_TRUE(result.ok()) << result.error;
  const auto ctx = MakeContext({3.0, 4.0}, {0.0});
  EXPECT_DOUBLE_EQ(EvalExpr(*result.expr, ctx), 3.0 + 4.0 * 2.0 - 1.0);
}

TEST(ParserTest, ParensAndFunctions) {
  const auto result = Parse("min((x + y) * C, exp(1))", TestSymbols());
  ASSERT_TRUE(result.ok()) << result.error;
  const auto ctx = MakeContext({1.0, 2.0}, {10.0});
  EXPECT_DOUBLE_EQ(EvalExpr(*result.expr, ctx), std::exp(1.0));
}

TEST(ParserTest, UnaryMinus) {
  const auto result = Parse("-x * -2", TestSymbols());
  ASSERT_TRUE(result.ok()) << result.error;
  const auto ctx = MakeContext({3.0, 0.0}, {0.0});
  EXPECT_DOUBLE_EQ(EvalExpr(*result.expr, ctx), 6.0);
}

TEST(ParserTest, PrintParseRoundTrip) {
  Rng rng(31);
  for (int i = 0; i < 30; ++i) {
    ExprPtr tree = RandomTree(rng, 5, 2, 1);
    // The test symbol table only has unnamed leaves; rebuild names.
    const auto result = Parse(ToString(*tree), SymbolTable{});
    // Unnamed leaves print as v0/p0 which the empty table cannot resolve;
    // only constant-only trees are guaranteed to round-trip here.
    if (ReferencedVariableSlots(*tree).empty() &&
        ReferencedParameterSlots(*tree).empty()) {
      ASSERT_TRUE(result.ok()) << result.error;
      const auto ctx = MakeContext({}, {});
      const double a = EvalExpr(*tree, ctx);
      const double b = EvalExpr(*result.expr, ctx);
      if (!std::isnan(a)) {
        EXPECT_NEAR(b, a, 1e-6 * std::max(1.0, std::fabs(a)));
      }
    }
  }
}

TEST(ParserTest, ErrorsAreReported) {
  EXPECT_FALSE(Parse("x +", TestSymbols()).ok());
  EXPECT_FALSE(Parse("unknown_name", TestSymbols()).ok());
  EXPECT_FALSE(Parse("min(x)", TestSymbols()).ok());
  EXPECT_FALSE(Parse("x @ y", TestSymbols()).ok());
  EXPECT_FALSE(Parse("(x + 1", TestSymbols()).ok());
  EXPECT_FALSE(Parse("x 1", TestSymbols()).ok());
}

TEST(ParserTest, TruncatedInputErrorsAtItsLength) {
  // Each input ends where the grammar still expects a token. The cursor
  // stops at the end token (it used to step past it and read beyond the
  // token vector), so the error names the end of the input.
  for (const std::string text : {"x +", "(x + 1", "min(x,"}) {
    const ParseResult result = Parse(text, TestSymbols());
    EXPECT_FALSE(result.ok()) << text;
    const std::string suffix = " at position " + std::to_string(text.size());
    ASSERT_GE(result.error.size(), suffix.size()) << text;
    EXPECT_EQ(result.error.substr(result.error.size() - suffix.size()),
              suffix)
        << text << ": " << result.error;
  }
}

TEST(ParserTest, MalformedNumberIsAnErrorNotAHang) {
  // A lone '.' starts the number alphabet but strtod consumes nothing;
  // before the lexer guard this spun forever instead of reporting.
  EXPECT_FALSE(Parse(".", TestSymbols()).ok());
  EXPECT_FALSE(Parse("x + .", TestSymbols()).ok());
  EXPECT_FALSE(Parse("min(., x)", TestSymbols()).ok());
}

// ------------------------------------------------- round-trip edge cases ----

/// Asserts the printed form is a parser fixpoint: parse(print(t)) prints to
/// the same text. Structural identity is deliberately NOT required — e.g.
/// Constant(-1.5) reparses as Neg(Constant(1.5)) — so the stable invariant
/// is text plus bitwise evaluation, matching the src/check/ oracle.
void ExpectTextFixpoint(const ExprPtr& tree, const SymbolTable& symbols,
                        const EvalContext& ctx) {
  const std::string once = ToString(*tree);
  const auto reparsed = Parse(once, symbols);
  ASSERT_TRUE(reparsed.ok()) << "'" << once << "': " << reparsed.error;
  EXPECT_EQ(ToString(*reparsed.expr), once);
  const double a = EvalExpr(*tree, ctx);
  const double b = EvalExpr(*reparsed.expr, ctx);
  if (std::isnan(a)) {
    EXPECT_TRUE(std::isnan(b)) << "'" << once << "': " << a << " vs " << b;
  } else {
    EXPECT_EQ(a, b) << "'" << once << "'";  // bitwise, not approximate
  }
}

TEST(RoundTripTest, NegativeConstantLiterals) {
  const auto symbols = TestSymbols();
  const ExprPtr x = Variable(0, "x");
  const auto ctx = MakeContext({3.0, 0.0}, {0.0});
  ExpectTextFixpoint(Constant(-1.5), symbols, ctx);
  ExpectTextFixpoint(Add(x, Constant(-2.0)), symbols, ctx);
  ExpectTextFixpoint(Mul(Constant(-0.25), x), symbols, ctx);
  ExpectTextFixpoint(Sub(Constant(-1.0), Constant(-2.0)), symbols, ctx);
  ExpectTextFixpoint(Exp(Constant(-80.5)), symbols, ctx);
}

TEST(RoundTripTest, UnaryNegUnderDivision) {
  const auto symbols = TestSymbols();
  const ExprPtr x = Variable(0, "x");
  const ExprPtr y = Variable(1, "y");
  const auto ctx = MakeContext({3.0, 7.0}, {2.0});
  ExpectTextFixpoint(Div(x, Neg(y)), symbols, ctx);
  ExpectTextFixpoint(Div(Neg(x), y), symbols, ctx);
  ExpectTextFixpoint(Neg(Div(x, y)), symbols, ctx);
  ExpectTextFixpoint(Div(Neg(x), Neg(Add(y, Constant(1.0)))), symbols, ctx);
  ExpectTextFixpoint(Div(Constant(1.0), Neg(Neg(y))), symbols, ctx);
}

TEST(RoundTripTest, NestedMinMax) {
  const auto symbols = TestSymbols();
  const ExprPtr x = Variable(0, "x");
  const ExprPtr y = Variable(1, "y");
  const ExprPtr c = Parameter(0, "C");
  const auto ctx = MakeContext({3.0, 7.0}, {2.0});
  ExpectTextFixpoint(Min(Max(x, c), Min(y, Constant(1.0))), symbols, ctx);
  ExpectTextFixpoint(Max(Min(Min(x, y), c), Neg(x)), symbols, ctx);
  ExpectTextFixpoint(Min(x, Max(y, Max(c, Constant(-3.0)))), symbols, ctx);
}

TEST(RoundTripTest, NonFiniteConstantsReparse) {
  // Constant folding can produce non-finite constants (1e308 + 1e308), the
  // printer renders them as inf/nan, and the parser must accept both back.
  const auto symbols = TestSymbols();
  const auto ctx = MakeContext({3.0, 7.0}, {2.0});
  const double inf = std::numeric_limits<double>::infinity();
  ExpectTextFixpoint(Constant(inf), symbols, ctx);
  ExpectTextFixpoint(Constant(-inf), symbols, ctx);
  ExpectTextFixpoint(Add(Variable(0, "x"), Constant(inf)), symbols, ctx);
  ExpectTextFixpoint(Constant(std::numeric_limits<double>::quiet_NaN()),
                     symbols, ctx);
  // Overflowing decimal literals read as infinity rather than erroring.
  const auto overflow = Parse("1e999", symbols);
  ASSERT_TRUE(overflow.ok()) << overflow.error;
  EXPECT_TRUE(std::isinf(EvalExpr(*overflow.expr, ctx)));
}

TEST(ParserTest, VariableShadowsParameterOfSameName) {
  SymbolTable symbols = TestSymbols();
  symbols.parameters["x"] = 0;  // same name as variable slot 0
  const auto result = Parse("x + C", symbols);
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(result.expr->children()[0]->kind(), NodeKind::kVariable);
  // Variable x = 3 and parameter slot 0 = 10: "x" resolves to the
  // variable, "C" still reaches the parameter it shares a slot with.
  const auto ctx = MakeContext({3.0, 0.0}, {10.0});
  EXPECT_DOUBLE_EQ(EvalExpr(*result.expr, ctx), 3.0 + 10.0);
}

TEST(ParserTest, SymbolNamedInfShadowsReservedLiteral) {
  SymbolTable symbols;
  symbols.variables["inf"] = 0;
  const auto result = Parse("inf + 1", symbols);
  ASSERT_TRUE(result.ok()) << result.error;
  const auto ctx = MakeContext({4.0}, {});
  EXPECT_DOUBLE_EQ(EvalExpr(*result.expr, ctx), 5.0);
}

}  // namespace
}  // namespace gmr::expr
