#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "expr/batch_jit.h"
#include "expr/eval.h"
#include "river/biology.h"
#include "river/parameters.h"
#include "river/simulate.h"
#include "river/variables.h"

namespace gmr::expr {
namespace {

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

/// Evaluates a batch-JIT symbol over the context's variable and parameter
/// vectors, as the rollouts call it.
double RunSymbol(BatchJitSession::BatchFn fn, const EvalContext& ctx) {
  return fn(ctx.variables, ctx.parameters);
}

TEST(JitTest, SourceGenerationMentionsSlotsAndKernels) {
  const ExprPtr e =
      Div(Add(Variable(2, ""), Parameter(1, "")), Log(Constant(3.0)));
  const std::string source = GenerateBatchCSource({{7, e.get()}});
  EXPECT_NE(source.find("v[2]"), std::string::npos);
  EXPECT_NE(source.find("p[1]"), std::string::npos);
  EXPECT_NE(source.find("gmr_pdiv"), std::string::npos);
  EXPECT_NE(source.find("gmr_plog"), std::string::npos);
  EXPECT_NE(source.find("double " + BatchSymbolName(7)), std::string::npos);
  EXPECT_NE(source.find("double gmr_b_"), std::string::npos);
}

TEST(JitTest, MatchesInterpreterOnRiverEquation) {
  if (!JitAvailable()) GTEST_SKIP() << "no C compiler on this system";
  const auto equation = river::PhytoplanktonDerivative();
  JitCircuitBreaker breaker;
  BatchJitSession session(&breaker);
  const auto fn = session.CompileBatch({equation.get()})[0];
  ASSERT_NE(fn, nullptr);

  const auto params = gp::PriorMeans(river::RiverParameterPriors());
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> vars(river::kNumVariables);
    for (double& v : vars) v = rng.Uniform(0.01, 30.0);
    EvalContext ctx{vars.data(), vars.size(), params.data(), params.size()};
    const double interpreted = EvalExpr(*equation, ctx);
    const double jitted = RunSymbol(fn, ctx);
    EXPECT_TRUE(WithinUlps(jitted, interpreted, 4))
        << jitted << " vs " << interpreted << " (ulps "
        << UlpDistance(jitted, interpreted) << ")";
  }
}

TEST(JitTest, MatchesInterpreterOnRandomTrees) {
  if (!JitAvailable()) GTEST_SKIP() << "no C compiler on this system";
  Rng rng(11);
  std::vector<ExprPtr> trees;
  std::vector<const Expr*> roots;
  for (int i = 0; i < 5; ++i) {
    trees.push_back(RandomTree(rng, 5, 3, 2));
    roots.push_back(trees.back().get());
  }
  JitCircuitBreaker breaker;
  BatchJitSession session(&breaker);
  const auto fns = session.CompileBatch(roots);
  for (std::size_t i = 0; i < trees.size(); ++i) {
    ASSERT_NE(fns[i], nullptr) << "tree " << i;
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<double> vars(3), params(2);
      for (double& v : vars) v = rng.Uniform(-10, 10);
      for (double& p : params) p = rng.Uniform(-10, 10);
      EvalContext ctx{vars.data(), vars.size(), params.data(),
                      params.size()};
      const double interpreted = EvalExpr(*trees[i], ctx);
      const double jitted = RunSymbol(fns[i], ctx);
      EXPECT_TRUE(WithinUlps(jitted, interpreted, 4))
          << jitted << " vs " << interpreted << " (ulps "
          << UlpDistance(jitted, interpreted) << ")";
    }
  }
}

TEST(JitTest, NegationOfNegativeConstantDoesNotFuseIntoDecrement) {
  // Found by gmr_fuzz: Neg(Constant(-1)) used to emit "(--1)", which C
  // parses as a decrement of an rvalue and rejects.
  const ExprPtr tree = Neg(Constant(-1.0));
  const std::string source = GenerateBatchCSource({{1, tree.get()}});
  EXPECT_EQ(source.find("--"), std::string::npos) << source;
  if (!JitAvailable()) GTEST_SKIP() << "no C compiler on this system";
  JitCircuitBreaker breaker;
  BatchJitSession session(&breaker);
  const auto fn = session.CompileBatch({tree.get()})[0];
  ASSERT_NE(fn, nullptr);
  EvalContext ctx{nullptr, 0, nullptr, 0};
  EXPECT_EQ(RunSymbol(fn, ctx), 1.0);
}

TEST(JitTest, NonFiniteConstantsCompileToMathHSpellings) {
  // inf/nan are not C literals; the generator must spell them via math.h.
  const double inf = std::numeric_limits<double>::infinity();
  const ExprPtr literals = Add(
      Constant(inf),
      Add(Constant(-inf), Constant(std::numeric_limits<double>::quiet_NaN())));
  const std::string source = GenerateBatchCSource({{1, literals.get()}});
  EXPECT_EQ(source.find("inf"), std::string::npos) << source;
  EXPECT_EQ(source.find("nan"), std::string::npos) << source;
  if (!JitAvailable()) GTEST_SKIP() << "no C compiler on this system";
  const ExprPtr tree = Exp(Constant(inf));
  JitCircuitBreaker breaker;
  BatchJitSession session(&breaker);
  const auto fn = session.CompileBatch({tree.get()})[0];
  ASSERT_NE(fn, nullptr);
  EvalContext ctx{nullptr, 0, nullptr, 0};
  // Protected exp clamps the argument to 80 on both backends.
  EXPECT_EQ(RunSymbol(fn, ctx), EvalExpr(*tree, ctx));
}

TEST(JitTest, InjectedCompileFaultFailsCleanly) {
  // The batch_compile injection point fires before any compiler is
  // invoked, so this works even on systems without a C compiler.
  std::string spec_error;
  ASSERT_TRUE(SetFaultSpec("batch_compile:always", &spec_error))
      << spec_error;
  JitCircuitBreaker breaker;
  BatchJitSession session(&breaker);
  const ExprPtr tree = Constant(1.0);
  EXPECT_EQ(session.CompileBatch({tree.get()})[0], nullptr);
  ClearFaults();
  EXPECT_EQ(session.stats().compile_failures, 1u);
  EXPECT_EQ(session.stats().tu_compiles, 0u);
  EXPECT_EQ(breaker.consecutive_failures(), 1);
}

TEST(JitCircuitBreakerTest, OpensAtThresholdAndLogsOnce) {
  JitCircuitBreaker breaker(3);
  EXPECT_TRUE(breaker.allowed());
  breaker.RecordFailure("boom 1");
  breaker.RecordFailure("boom 2");
  EXPECT_TRUE(breaker.allowed());
  EXPECT_FALSE(breaker.open());
  breaker.RecordFailure("boom 3");
  EXPECT_TRUE(breaker.open());
  EXPECT_FALSE(breaker.allowed());
  EXPECT_EQ(breaker.disable_log_count(), 1);
  // Further failures never log again.
  breaker.RecordFailure("boom 4");
  EXPECT_EQ(breaker.disable_log_count(), 1);
}

TEST(JitCircuitBreakerTest, SuccessResetsConsecutiveCount) {
  JitCircuitBreaker breaker(3);
  breaker.RecordFailure("boom");
  breaker.RecordFailure("boom");
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.consecutive_failures(), 0);
  breaker.RecordFailure("boom");
  breaker.RecordFailure("boom");
  EXPECT_FALSE(breaker.open());  // never 3 in a row
}

TEST(JitCircuitBreakerTest, ResetClosesTheBreaker) {
  JitCircuitBreaker breaker(1);
  breaker.RecordFailure("boom");
  EXPECT_TRUE(breaker.open());
  breaker.Reset();
  EXPECT_FALSE(breaker.open());
  EXPECT_TRUE(breaker.allowed());
  EXPECT_EQ(breaker.consecutive_failures(), 0);
}

TEST(JitFallbackTest, VmBackendFitnessIsBitIdenticalUnderCompileFaults) {
  // A RiverFitness evaluation that asks for the batch JIT but hits compile
  // failures must produce exactly the fitness of the bytecode-VM backend.
  river::RiverDataset dataset;
  dataset.num_days = 20;
  dataset.drivers.assign(river::kNumVariables, {});
  for (int slot : river::ObservedVariableSlots()) {
    dataset.drivers[static_cast<std::size_t>(slot)] =
        std::vector<double>(dataset.num_days, 1.0);
  }
  dataset.observed_bphy = std::vector<double>(dataset.num_days, 5.0);
  dataset.train_end = 10;
  const auto params = gp::PriorMeans(river::RiverParameterPriors());
  const std::vector<ExprPtr> equations{river::PhytoplanktonDerivative(),
                                       river::ZooplanktonDerivative()};

  const auto evaluate = [&](const river::SimulationConfig& config) {
    const river::RiverFitness fitness =
        river::RiverFitness::ForTraining(&dataset, config);
    auto eval = fitness.Begin(equations, params, /*use_compiled_backend=*/true);
    while (eval->Step()) {
    }
    return eval->CurrentFitness();
  };

  const double vm_fitness = evaluate(river::SimulationConfig{});

  std::string spec_error;
  ASSERT_TRUE(SetFaultSpec("batch_compile:always", &spec_error)) << spec_error;
  JitCircuitBreaker breaker;
  BatchJitSession session(&breaker);
  river::SimulationConfig jit_config;
  jit_config.compiled_backend = river::CompiledBackend::kBatchJit;
  jit_config.batch_jit_session = &session;
  const double fallback_fitness = evaluate(jit_config);
  ClearFaults();

  EXPECT_EQ(fallback_fitness, vm_fitness);  // bit-identical, not just close
  EXPECT_GT(breaker.consecutive_failures(), 0);
}

TEST(JitTest, ProtectedSemanticsSurviveCompilation) {
  if (!JitAvailable()) GTEST_SKIP() << "no C compiler on this system";
  // x / y with y == 0 must hit the protected kernel, not IEEE inf.
  const ExprPtr tree = Div(Variable(0, ""), Variable(1, ""));
  JitCircuitBreaker breaker;
  BatchJitSession session(&breaker);
  const auto fn = session.CompileBatch({tree.get()})[0];
  ASSERT_NE(fn, nullptr);
  const double vars[] = {5.0, 0.0};
  EvalContext ctx{vars, 2, nullptr, 0};
  EXPECT_DOUBLE_EQ(RunSymbol(fn, ctx), 1.0);
}

}  // namespace
}  // namespace gmr::expr
