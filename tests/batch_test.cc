// Batched-compilation tests: the equation-system VM program, the
// generation-batched JIT session (structure-hash compile cache, one TU per
// batch), JIT rollouts against the VM, and the `batch_compile` fault site.
// Labeled `batch`, `prop`, and `fault` in ctest.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/status.h"
#include "expr/ast.h"
#include "expr/batch_jit.h"
#include "expr/compile.h"
#include "expr/eval.h"
#include "expr/jit.h"
#include "core/gmr.h"
#include "core/river_grammar.h"
#include "obs/run_context.h"
#include "obs/telemetry.h"
#include "river/dataset.h"
#include "river/parameters.h"
#include "river/simulate.h"
#include "river/synthetic.h"
#include "river/variables.h"

namespace gmr {
namespace {

namespace e = gmr::expr;
using river::CompiledBackend;
using river::ConstituentSet;
using river::IntegrationMethod;
using river::RiverDataset;
using river::Simulate;
using river::SimulationConfig;
using river::SimulationReport;

/// Arms a fault spec for the scope of one test and guarantees cleanup.
struct ScopedFault {
  explicit ScopedFault(const std::string& spec) {
    std::string error;
    armed = SetFaultSpec(spec, &error);
    EXPECT_TRUE(armed) << error;
  }
  ~ScopedFault() { ClearFaults(); }
  bool armed = false;
};

bool BitwiseEqual(double a, double b) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

/// A nontrivial expression over two variables and two parameters that
/// exercises every protected kernel.
e::ExprPtr TestExpr() {
  return e::Add(
      e::Mul(e::Parameter(0, "p0"), e::Variable(0, "x")),
      e::Div(e::Log(e::Exp(e::Variable(1, "y"))),
             e::Max(e::Parameter(1, "p1"), e::Constant(0.25))));
}

// ------------------------------------------------------ system program ----

TEST(BatchVmTest, SystemProgramMatchesInterpreterPerEquationAndLane) {
  // One program for three equations (one a bare leaf, two sharing a
  // subtree by pointer), run for five parameter vectors: equation e lands
  // at out[e]. A copy owns its register file: rebinding and running the
  // source afterwards must not move the copy's results.
  const e::ExprPtr shared = TestExpr();
  const std::vector<e::ExprPtr> roots = {
      e::Sub(shared, e::Variable(1, "y")), e::Parameter(1, "p1"),
      e::Mul(shared, e::Exp(e::Neg(shared)))};
  const e::CompiledProgram source = e::Compile(roots, e::TapeLayout{2, 2});
  Rng rng(23);
  for (int lane = 0; lane < 5; ++lane) {
    const double vars[2] = {rng.Uniform(-3.0, 3.0), rng.Uniform(-3.0, 3.0)};
    const double params[2] = {rng.Uniform(-2.0, 2.0),
                              rng.Uniform(-2.0, 2.0)};
    source.Bind(params, 2);
    source.Hold(vars, 2);
    const e::CompiledProgram program = source;
    const double other[2] = {9.0, -9.0};
    source.Bind(other, 2);
    source.Hold(other, 2);
    std::vector<double> scratch(roots.size(), 0.0);
    source.Run(other, 2, scratch.data());

    std::vector<double> out(roots.size(), 0.0);
    program.Run(vars, 2, out.data());
    e::EvalContext ec;
    ec.variables = vars;
    ec.num_variables = 2;
    ec.parameters = params;
    ec.num_parameters = 2;
    for (std::size_t eq = 0; eq < roots.size(); ++eq) {
      EXPECT_TRUE(BitwiseEqual(out[eq], e::EvalExpr(*roots[eq], ec)))
          << "equation " << eq << ", lane " << lane;
    }
  }
}

// -------------------------------------------------- batch JIT session ----

TEST(BatchJitTest, SymbolNameIsHashKeyed) {
  EXPECT_EQ(e::BatchSymbolName(0x1234abcdULL), "gmr_b_000000001234abcd");
}

TEST(BatchJitTest, GeneratedSourceHasOneSymbolPerUniqueTree) {
  const e::ExprPtr a = TestExpr();
  const e::ExprPtr b = e::Mul(e::Variable(0, "x"), e::Constant(2.0));
  const std::string source = e::GenerateBatchCSource(
      {{a->StructuralHash(), a.get()}, {b->StructuralHash(), b.get()}});
  EXPECT_NE(source.find(e::BatchSymbolName(a->StructuralHash())),
            std::string::npos);
  EXPECT_NE(source.find(e::BatchSymbolName(b->StructuralHash())),
            std::string::npos);
  // Scalar symbols: one double per call, leaves read at [slot].
  EXPECT_NE(source.find("double " + e::BatchSymbolName(a->StructuralHash()) +
                        "(const double* v, const double* p)"),
            std::string::npos);
  EXPECT_NE(source.find("v[0]"), std::string::npos);
}

TEST(BatchJitTest, DeduplicatesWithinAndAcrossBatches) {
  if (!e::JitAvailable()) GTEST_SKIP() << "no C compiler";
  e::JitCircuitBreaker breaker;
  e::BatchJitSession session(&breaker);
  const e::ExprPtr a = TestExpr();
  const e::ExprPtr a_clone = TestExpr();  // same structure, distinct nodes
  const e::ExprPtr b = e::Mul(e::Variable(0, "x"), e::Parameter(0, "p0"));

  const auto fns =
      session.CompileBatch({a.get(), b.get(), a_clone.get()});
  ASSERT_EQ(fns.size(), 3u);
  ASSERT_NE(fns[0], nullptr);
  ASSERT_NE(fns[1], nullptr);
  // Structure-hash dedup: the clone resolves to the same symbol.
  EXPECT_EQ(fns[0], fns[2]);

  e::BatchJitSession::Stats stats = session.stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.unique_misses, 2u);
  EXPECT_EQ(stats.tu_compiles, 1u);  // ONE compiler invocation for both
  EXPECT_EQ(stats.symbols_compiled, 2u);
  EXPECT_EQ(session.cache_size(), 2u);

  // A second batch over the same structures never recompiles.
  const auto again = session.CompileBatch({a.get(), b.get()});
  EXPECT_EQ(again[0], fns[0]);
  EXPECT_EQ(again[1], fns[1]);
  stats = session.stats();
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.tu_compiles, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 2.0 / 5.0);

  // The compiled symbol agrees with the interpreter.
  Rng rng(3);
  for (int trial = 0; trial < 4; ++trial) {
    const double vars[2] = {rng.Uniform(-2.0, 2.0), rng.Uniform(-2.0, 2.0)};
    const double params[2] = {rng.Uniform(-2.0, 2.0),
                              rng.Uniform(-2.0, 2.0)};
    e::EvalContext ec;
    ec.variables = vars;
    ec.num_variables = 2;
    ec.parameters = params;
    ec.num_parameters = 2;
    EXPECT_NEAR(fns[0](vars, params), e::EvalExpr(*a, ec), 1e-12)
        << "trial " << trial;
  }
}

// ------------------------------------------------------- JIT rollouts ----

RiverDataset TinyDataset(std::size_t days) {
  RiverDataset dataset;
  dataset.num_days = days;
  dataset.drivers.assign(river::kNumVariables, {});
  for (int slot : river::ObservedVariableSlots()) {
    dataset.drivers[static_cast<std::size_t>(slot)] =
        std::vector<double>(days, 1.0);
  }
  dataset.observed_bphy = std::vector<double>(days, 5.0);
  dataset.train_end = days / 2;
  dataset.initial_bphy = 5.0;
  dataset.initial_bzoo = 1.0;
  dataset.test_initial_bphy = 5.0;
  dataset.test_initial_bzoo = 1.0;
  return dataset;
}

/// Equations whose dynamics depend on the parameter vector, so distinct
/// vectors trace distinct trajectories: dB_Phy/dt = p0 B_Phy - p1 B_Zoo,
/// dB_Zoo/dt = p2 B_Phy.
std::vector<e::ExprPtr> ParameterizedEquations() {
  std::vector<e::ExprPtr> equations;
  equations.push_back(
      e::Sub(e::Mul(e::Parameter(0, "p0"), e::Variable(river::kBPhy, "B")),
             e::Mul(e::Parameter(1, "p1"), e::Variable(river::kBZoo, "Z"))));
  equations.push_back(
      e::Mul(e::Parameter(2, "p2"), e::Variable(river::kBPhy, "B")));
  return equations;
}

/// Vectors 0..n-2 are tame; the last diverges explosively (hits the
/// state_max clamp and, with a tight saturation watchdog, aborts).
std::vector<std::vector<double>> MixedLanes(std::size_t n) {
  std::vector<std::vector<double>> lanes;
  for (std::size_t l = 0; l + 1 < n; ++l) {
    std::vector<double> p(river::kNumParameters, 0.0);
    p[0] = 0.01 * static_cast<double>(l + 1);
    p[1] = 0.005;
    p[2] = 0.002 * static_cast<double>(l + 1);
    lanes.push_back(std::move(p));
  }
  std::vector<double> divergent(river::kNumParameters, 0.0);
  divergent[0] = 50.0;  // explosive growth; saturates the clamp fast
  lanes.push_back(std::move(divergent));
  return lanes;
}

/// The primary (B_Phy) trajectory of one compiled rollout of `parameters`.
std::vector<double> SimulatePrimary(const std::vector<double>& parameters,
                                    std::size_t days,
                                    const SimulationConfig& config,
                                    SimulationReport* report) {
  return Simulate(ParameterizedEquations(), parameters, TinyDataset(days), 0,
                  days, ConstituentSet::LegacyPlankton(), {5.0, 1.0}, config,
                  /*compiled=*/true, report)
      .series[0];
}

TEST(BatchRolloutTest, NonFiniteDerivativeAbortsPerLane) {
  // p0 = 1e307 in vector 1: the stage-0 slope 5e307 is finite, but the
  // next evaluation overflows to +inf — under RK4 at stage 1 of the first
  // substep (input 5 + 0.25 * 5e307), so the rollout aborts mid-substep
  // and must skip the later stages' bookkeeping and the commit; under
  // Euler one substep later, from the clamped ceiling. The other vectors
  // keep their own outcomes.
  auto lanes = MixedLanes(4);
  lanes[1][0] = 1e307;
  const std::size_t days = 30;
  for (const IntegrationMethod method :
       {IntegrationMethod::kEuler, IntegrationMethod::kRk4}) {
    SimulationConfig config;
    config.method = method;
    config.max_nonfinite_derivatives = 1;
    config.max_saturated_substeps = 8;
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      SimulationReport report;
      SimulatePrimary(lanes[l], days, config, &report);
      if (l == 1) {
        EXPECT_EQ(report.outcome, EvalOutcome::kNonFiniteDerivative);
        EXPECT_EQ(report.nonfinite_derivatives, 1u);
        EXPECT_EQ(report.substeps_used,
                  method == IntegrationMethod::kRk4 ? 1u : 2u);
      } else if (l + 1 == lanes.size()) {
        EXPECT_EQ(report.outcome, EvalOutcome::kClampSaturated);
      } else {
        EXPECT_EQ(report.outcome, EvalOutcome::kOk) << "vector " << l;
        EXPECT_EQ(report.days_simulated, days);
      }
    }
  }
}

TEST(BatchRolloutTest, BatchJitLanesMatchVmLanes) {
  if (!e::JitAvailable()) GTEST_SKIP() << "no C compiler";
  e::JitCircuitBreaker breaker;
  e::BatchJitSession session(&breaker);
  const SimulationConfig vm_config;
  SimulationConfig jit_config = vm_config;
  jit_config.compiled_backend = CompiledBackend::kBatchJit;
  jit_config.batch_jit_session = &session;
  const std::size_t days = 30;
  for (const std::vector<double>& parameters : MixedLanes(4)) {
    SimulationReport vm_report;
    SimulationReport jit_report;
    const auto vm = SimulatePrimary(parameters, days, vm_config, &vm_report);
    const auto jit =
        SimulatePrimary(parameters, days, jit_config, &jit_report);
    EXPECT_FALSE(jit_report.jit_fallback);
    EXPECT_EQ(jit_report.outcome, vm_report.outcome);
    for (std::size_t t = 0; t < days; ++t) {
      // The batch JIT has a ULP budget against the VM; with
      // -ffp-contract=off they match to full precision in practice.
      EXPECT_NEAR(jit[t], vm[t], 1e-9 * std::abs(vm[t]) + 1e-12)
          << "day " << t;
    }
  }
  EXPECT_GE(session.stats().tu_compiles, 1u);
}

// ------------------------------------------------- batch_compile fault ----

TEST(BatchFaultTest, BatchCompilePointRoundTrips) {
  EXPECT_STREQ(FaultPointName(FaultPoint::kBatchCompile), "batch_compile");
  std::string error;
  EXPECT_TRUE(SetFaultSpec("batch_compile:always", &error)) << error;
  EXPECT_TRUE(FaultInjected(FaultPoint::kBatchCompile));
  ClearFaults();
}

TEST(BatchFaultTest, CompileFaultFallsBackToVmWithoutPoisoningLanes) {
  ScopedFault fault("batch_compile:always");
  e::JitCircuitBreaker breaker;
  e::BatchJitSession session(&breaker);
  SimulationConfig jit_config;
  jit_config.compiled_backend = CompiledBackend::kBatchJit;
  jit_config.batch_jit_session = &session;
  jit_config.max_saturated_substeps = 8;
  SimulationConfig vm_config = jit_config;
  vm_config.compiled_backend = CompiledBackend::kBytecodeVm;

  const std::size_t days = 30;
  const auto lanes = MixedLanes(4);
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    SimulationReport faulty_report;
    const auto faulty =
        SimulatePrimary(lanes[l], days, jit_config, &faulty_report);
    const auto vm = SimulatePrimary(lanes[l], days, vm_config, nullptr);
    // The degradation is reported and exact: bitwise the VM's rollout.
    EXPECT_TRUE(faulty_report.jit_fallback) << "vector " << l;
    for (std::size_t t = 0; t < days; ++t) {
      EXPECT_TRUE(BitwiseEqual(faulty[t], vm[t]))
          << "vector " << l << " day " << t;
    }
    // Tame vectors report the fallback; the divergent one still reports
    // its own abort.
    EXPECT_EQ(faulty_report.outcome, l + 1 == lanes.size()
                                         ? EvalOutcome::kClampSaturated
                                         : EvalOutcome::kJitCompileFailed)
        << "vector " << l;
  }
  EXPECT_EQ(session.stats().tu_compiles, 0u);
}

TEST(BatchFaultTest, RepeatedCompileFaultsOpenTheBreaker) {
  ScopedFault fault("batch_compile:always");
  e::JitCircuitBreaker breaker;
  e::BatchJitSession session(&breaker);
  const e::ExprPtr a = TestExpr();
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(breaker.allowed());
    const auto fns = session.CompileBatch({a.get()});
    EXPECT_EQ(fns[0], nullptr);
  }
  EXPECT_FALSE(breaker.allowed());
  EXPECT_EQ(session.stats().compile_failures, 3u);
  // With the breaker open the fault site is no longer even consulted.
  EXPECT_EQ(session.stats().tu_compiles, 0u);
}

TEST(BatchFaultTest, OnceFaultRecoversOnNextBatch) {
  if (!e::JitAvailable()) GTEST_SKIP() << "no C compiler";
  ScopedFault fault("batch_compile:once");
  e::JitCircuitBreaker breaker;
  e::BatchJitSession session(&breaker);
  const e::ExprPtr a = TestExpr();
  EXPECT_EQ(session.CompileBatch({a.get()})[0], nullptr);
  EXPECT_NE(session.CompileBatch({a.get()})[0], nullptr);
  EXPECT_TRUE(breaker.allowed());
}

// --------------------------------------------- fitness-level equivalence --

TEST(BatchFitnessTest, PrepareBatchPrecompilesTheGeneration) {
  if (!e::JitAvailable()) GTEST_SKIP() << "no C compiler";
  const RiverDataset dataset = TinyDataset(20);
  e::JitCircuitBreaker breaker;
  e::BatchJitSession session(&breaker);
  SimulationConfig config;
  config.compiled_backend = CompiledBackend::kBatchJit;
  config.batch_jit_session = &session;
  const river::RiverFitness fitness =
      river::RiverFitness::ForTraining(&dataset, config);
  EXPECT_TRUE(fitness.WantsBatchPreparation());

  // A "generation" of three phenotypes, two of them structurally equal:
  // one PrepareBatch -> one TU, 4 unique symbols.
  std::vector<std::vector<e::ExprPtr>> phenotypes;
  phenotypes.push_back(ParameterizedEquations());
  phenotypes.push_back(ParameterizedEquations());
  std::vector<e::ExprPtr> other;
  other.push_back(e::Mul(e::Constant(0.5), e::Variable(river::kBPhy, "B")));
  other.push_back(e::Neg(e::Variable(river::kBZoo, "Z")));
  phenotypes.push_back(std::move(other));
  fitness.PrepareBatch(phenotypes);
  const auto after_prepare = session.stats();
  EXPECT_EQ(after_prepare.tu_compiles, 1u);
  EXPECT_EQ(after_prepare.symbols_compiled, 4u);

  // Per-individual Begin() calls are then pure cache hits: no new TU.
  const std::vector<double> params(river::kNumParameters, 0.01);
  for (const auto& phenotype : phenotypes) {
    auto eval = fitness.Begin(phenotype, params, true);
    while (eval->Step()) {
    }
    EXPECT_EQ(eval->outcome(), EvalOutcome::kOk);
  }
  const auto after_eval = session.stats();
  EXPECT_EQ(after_eval.tu_compiles, 1u);
  EXPECT_GT(after_eval.hits, after_prepare.hits);
}

// End to end: a short GMR search on the kBatchJit backend completes,
// is deterministic for its seed, and reports the compile-cache
// effectiveness as a `batch_jit_cache` trace event.
TEST(BatchFitnessTest, RunGmrOnBatchJitEmitsCacheEvent) {
  river::SyntheticConfig synth;
  synth.years = 2;
  synth.train_years = 1;
  synth.seed = 3;
  const RiverDataset dataset = river::GenerateNakdongLike(synth);
  const core::RiverPriorKnowledge knowledge =
      core::BuildRiverPriorKnowledge();

  core::GmrConfig config;
  config.tag3p.population_size = 8;
  config.tag3p.max_generations = 2;
  config.tag3p.local_search_steps = 1;
  config.tag3p.seed = 7;
  config.simulation.compiled_backend = CompiledBackend::kBatchJit;
  expr::JitCircuitBreaker breaker;
  expr::BatchJitSession session(&breaker);
  config.simulation.batch_jit_session = &session;

  double first_fitness = 0.0;
  {
    obs::VectorSink sink;
    obs::RunContext context;
    context.sink = &sink;
    const core::GmrRunResult result = core::RunGmr(
        config, core::GmrProblem{&dataset, &knowledge}, context);
    EXPECT_TRUE(std::isfinite(result.best.fitness));
    first_fitness = result.best.fitness;
    bool saw_cache_event = false;
    for (const obs::TraceEvent& event : sink.events()) {
      if (event.type == "batch_jit_cache") saw_cache_event = true;
    }
    EXPECT_TRUE(saw_cache_event);
  }
  EXPECT_GT(session.stats().requests, 0u);
  if (e::JitAvailable()) {
    EXPECT_GT(session.stats().tu_compiles, 0u);
  }

  // Same seed, same session (now fully warm): bit-identical result.
  const core::GmrRunResult again = core::RunGmr(dataset, knowledge, config);
  EXPECT_TRUE(BitwiseEqual(again.best.fitness, first_fitness));
}

}  // namespace
}  // namespace gmr
