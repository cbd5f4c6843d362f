// Batched-evaluation tests: the stride-N batch VM, the generation-batched
// JIT session (structure-hash compile cache, one TU per batch), SoA batch
// rollouts with per-lane watchdog masking, and the `batch_compile` fault
// site. Labeled `batch`, `prop`, and `fault` in ctest.

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
#include "expr/batch_vm.h"
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
using river::BatchSimulate;
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

// --------------------------------------------------------- batch VM ------

TEST(BatchVmTest, MatchesInterpreterLaneByLane) {
  const e::ExprPtr tree = TestExpr();
  const e::BatchProgram program = e::CompileBatch(*tree);
  const std::size_t width = 16;
  Rng rng(7);
  std::vector<double> vars(2 * width);
  std::vector<double> params(2 * width);
  for (double& v : vars) v = rng.Uniform(-3.0, 3.0);
  for (double& p : params) p = rng.Uniform(-2.0, 2.0);

  e::BatchEvalContext ctx;
  ctx.variables = vars.data();
  ctx.num_variables = 2;
  ctx.parameters = params.data();
  ctx.num_parameters = 2;
  ctx.width = width;
  std::vector<double> out(width, 0.0);
  program.RunLanes(ctx, out.data());

  for (std::size_t lane = 0; lane < width; ++lane) {
    const double lane_vars[2] = {vars[0 * width + lane],
                                 vars[1 * width + lane]};
    const double lane_params[2] = {params[0 * width + lane],
                                   params[1 * width + lane]};
    e::EvalContext ec;
    ec.variables = lane_vars;
    ec.num_variables = 2;
    ec.parameters = lane_params;
    ec.num_parameters = 2;
    EXPECT_TRUE(BitwiseEqual(out[lane], e::EvalExpr(*tree, ec)))
        << "lane " << lane;
  }
}

TEST(BatchVmTest, WidthOneMatchesBytecodeVmBitwise) {
  const e::ExprPtr tree = TestExpr();
  const e::CompiledProgram scalar = e::Compile(*tree);
  const e::BatchProgram batch = e::CompileBatch(*tree);
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    const double vars[2] = {rng.Uniform(-5.0, 5.0),
                            rng.Uniform(-5.0, 5.0)};
    const double params[2] = {rng.Uniform(-5.0, 5.0),
                              rng.Uniform(-5.0, 5.0)};
    e::EvalContext ec;
    ec.variables = vars;
    ec.num_variables = 2;
    ec.parameters = params;
    ec.num_parameters = 2;
    e::BatchEvalContext bc;
    bc.variables = vars;
    bc.num_variables = 2;
    bc.parameters = params;
    bc.num_parameters = 2;
    bc.width = 1;
    double got = 0.0;
    batch.RunLanes(bc, &got);
    EXPECT_TRUE(BitwiseEqual(got, scalar.Run(ec))) << "trial " << trial;
  }
}

TEST(BatchVmTest, SystemProgramMatchesInterpreterPerEquationAndLane) {
  // One program for three equations (one a bare leaf, two sharing a
  // subtree): equation e's lanes land at out[e * width + lane].
  const e::ExprPtr shared = TestExpr();
  const std::vector<e::ExprPtr> roots = {
      e::Sub(shared, e::Variable(1, "y")), e::Parameter(1, "p1"),
      e::Mul(shared, e::Exp(e::Neg(shared)))};
  const e::BatchProgram source =
      e::CompileBatch(roots, e::TapeLayout{2, 2});
  const std::size_t width = 5;
  Rng rng(23);
  std::vector<double> vars(2 * width);
  std::vector<double> params(2 * width);
  for (double& v : vars) v = rng.Uniform(-3.0, 3.0);
  for (double& p : params) p = rng.Uniform(-2.0, 2.0);
  e::BatchEvalContext ctx;
  ctx.variables = vars.data();
  ctx.num_variables = 2;
  ctx.parameters = params.data();
  ctx.num_parameters = 2;
  ctx.width = width;
  std::vector<double> scratch(roots.size() * width, 0.0);
  source.RunLanes(ctx, scratch.data());
  // A copy owns its scratch: running it must not depend on the source's.
  const e::BatchProgram program = source;
  std::vector<double> out(roots.size() * width, 0.0);
  program.RunLanes(ctx, out.data());

  for (std::size_t lane = 0; lane < width; ++lane) {
    const double lane_vars[2] = {vars[lane], vars[width + lane]};
    const double lane_params[2] = {params[lane], params[width + lane]};
    e::EvalContext ec;
    ec.variables = lane_vars;
    ec.num_variables = 2;
    ec.parameters = lane_params;
    ec.num_parameters = 2;
    e::BatchEvalContext narrow;
    narrow.variables = lane_vars;
    narrow.num_variables = 2;
    narrow.parameters = lane_params;
    narrow.num_parameters = 2;
    narrow.width = 1;
    std::vector<double> single(roots.size(), 0.0);
    program.RunLanes(narrow, single.data());
    for (std::size_t eq = 0; eq < roots.size(); ++eq) {
      const double want = e::EvalExpr(*roots[eq], ec);
      EXPECT_TRUE(BitwiseEqual(out[eq * width + lane], want))
          << "equation " << eq << ", lane " << lane;
      EXPECT_TRUE(BitwiseEqual(single[eq], want))
          << "width 1, equation " << eq << ", lane " << lane;
    }
  }
}

TEST(BatchVmTest, LaneDivergenceDoesNotPerturbNeighbors) {
  // gmr_plog(0) = 0 and division guards keep most lanes finite; inject a
  // non-finite value into one lane's variable slot and check neighbors.
  const e::ExprPtr tree =
      e::Add(e::Variable(0, "x"), e::Mul(e::Variable(0, "x"),
                                         e::Parameter(0, "p0")));
  const e::BatchProgram program = e::CompileBatch(*tree);
  const std::size_t width = 8;
  std::vector<double> vars(width, 1.0);
  std::vector<double> params(width, 2.0);
  vars[3] = std::numeric_limits<double>::quiet_NaN();
  e::BatchEvalContext ctx;
  ctx.variables = vars.data();
  ctx.num_variables = 1;
  ctx.parameters = params.data();
  ctx.num_parameters = 1;
  ctx.width = width;
  std::vector<double> out(width, 0.0);
  program.RunLanes(ctx, out.data());
  for (std::size_t lane = 0; lane < width; ++lane) {
    if (lane == 3) {
      EXPECT_TRUE(std::isnan(out[lane]));
    } else {
      EXPECT_DOUBLE_EQ(out[lane], 3.0) << "lane " << lane;
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
  // Strided SoA addressing: leaves index [slot * w + i].
  EXPECT_NE(source.find("*w+i]"), std::string::npos);
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

  // The compiled symbol agrees with the interpreter at full width.
  const std::size_t width = 4;
  std::vector<double> vars(2 * width);
  std::vector<double> params(2 * width);
  Rng rng(3);
  for (double& v : vars) v = rng.Uniform(-2.0, 2.0);
  for (double& p : params) p = rng.Uniform(-2.0, 2.0);
  std::vector<double> out(width, 0.0);
  fns[0](vars.data(), params.data(), out.data(), static_cast<long>(width));
  for (std::size_t lane = 0; lane < width; ++lane) {
    const double lane_vars[2] = {vars[lane], vars[width + lane]};
    const double lane_params[2] = {params[lane], params[width + lane]};
    e::EvalContext ec;
    ec.variables = lane_vars;
    ec.num_variables = 2;
    ec.parameters = lane_params;
    ec.num_parameters = 2;
    EXPECT_NEAR(out[lane], e::EvalExpr(*a, ec), 1e-12) << "lane " << lane;
  }
}

// ------------------------------------------------------ batch rollouts ----

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
/// lanes trace distinct trajectories: dB_Phy/dt = p0 B_Phy - p1 B_Zoo,
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

/// Lanes 0..n-2 are tame; the last lane diverges explosively (hits the
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

void ExpectLaneMatchesScalar(const std::vector<e::ExprPtr>& equations,
                             const std::vector<std::vector<double>>& lanes,
                             const SimulationConfig& config,
                             std::size_t days) {
  const RiverDataset dataset = TinyDataset(days);
  const ConstituentSet plankton = ConstituentSet::LegacyPlankton();
  const auto batch = BatchSimulate(equations, lanes, dataset, 0, days,
                                   plankton, {5.0, 1.0}, config);
  ASSERT_EQ(batch.width, lanes.size());
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    SimulationReport scalar_report;
    const auto scalar =
        Simulate(equations, lanes[l], dataset, 0, days, plankton, {5.0, 1.0},
                 config, /*compiled=*/true, &scalar_report)
            .series[0];
    ASSERT_EQ(batch.predicted[l].size(), scalar.size()) << "lane " << l;
    for (std::size_t t = 0; t < scalar.size(); ++t) {
      EXPECT_TRUE(BitwiseEqual(batch.predicted[l][t], scalar[t]))
          << "lane " << l << " day " << t << ": batch "
          << batch.predicted[l][t] << " vs scalar " << scalar[t];
    }
    const SimulationReport& r = batch.reports[l];
    EXPECT_EQ(r.outcome, scalar_report.outcome) << "lane " << l;
    EXPECT_EQ(r.aborted, scalar_report.aborted) << "lane " << l;
    EXPECT_EQ(r.substeps_used, scalar_report.substeps_used) << "lane " << l;
    EXPECT_EQ(r.days_simulated, scalar_report.days_simulated);
    EXPECT_EQ(r.days_before_abort, scalar_report.days_before_abort);
    EXPECT_EQ(r.nonfinite_derivatives, scalar_report.nonfinite_derivatives);
    EXPECT_EQ(r.clamp_saturations, scalar_report.clamp_saturations);
  }
}

TEST(BatchRolloutTest, EulerMatchesScalarLaneByLaneBitwise) {
  SimulationConfig config;
  config.max_saturated_substeps = 8;  // the divergent lane must abort
  ExpectLaneMatchesScalar(ParameterizedEquations(), MixedLanes(8), config,
                          40);
}

TEST(BatchRolloutTest, Rk4MatchesScalarLaneByLaneBitwise) {
  SimulationConfig config;
  config.method = IntegrationMethod::kRk4;
  config.max_saturated_substeps = 8;
  ExpectLaneMatchesScalar(ParameterizedEquations(), MixedLanes(6), config,
                          30);
}

TEST(BatchRolloutTest, SubstepBudgetAbortsPerLane) {
  SimulationConfig config;
  config.substep_budget = 20;  // 2 substeps/day -> aborts on day 11
  ExpectLaneMatchesScalar(ParameterizedEquations(), MixedLanes(4), config,
                          30);
}

TEST(BatchRolloutTest, NonFiniteDerivativeAbortsPerLane) {
  // p0 = 1e307 on lane 1: the stage-0 slope 5e307 is finite, but the next
  // evaluation overflows to +inf — under RK4 at stage 1 of the first
  // substep (input 5 + 0.25 * 5e307), so the lane aborts mid-substep and
  // must skip the later stages' bookkeeping and the commit; under Euler
  // one substep later, from the clamped ceiling.
  auto lanes = MixedLanes(4);
  lanes[1][0] = 1e307;
  const std::size_t days = 30;
  for (const IntegrationMethod method :
       {IntegrationMethod::kEuler, IntegrationMethod::kRk4}) {
    SimulationConfig config;
    config.method = method;
    config.max_nonfinite_derivatives = 1;
    config.max_saturated_substeps = 8;
    ExpectLaneMatchesScalar(ParameterizedEquations(), lanes, config, days);
    SimulationReport report;
    Simulate(ParameterizedEquations(), lanes[1], TinyDataset(days), 0, days,
             ConstituentSet::LegacyPlankton(), {5.0, 1.0}, config,
             /*compiled=*/true, &report);
    EXPECT_EQ(report.outcome, EvalOutcome::kNonFiniteDerivative);
    EXPECT_EQ(report.nonfinite_derivatives, 1u);
    EXPECT_EQ(report.substeps_used,
              method == IntegrationMethod::kRk4 ? 1u : 2u);
  }
}

TEST(BatchRolloutTest, MaskedLaneIsIsolated) {
  SimulationConfig config;
  config.max_saturated_substeps = 8;
  const std::size_t days = 40;
  const RiverDataset dataset = TinyDataset(days);
  const auto lanes = MixedLanes(8);
  const auto batch =
      BatchSimulate(ParameterizedEquations(), lanes, dataset, 0, days,
                    ConstituentSet::LegacyPlankton(), {5.0, 1.0}, config);
  // The divergent lane aborted with the saturation watchdog...
  const SimulationReport& divergent = batch.reports.back();
  EXPECT_TRUE(divergent.aborted);
  EXPECT_EQ(divergent.outcome, EvalOutcome::kClampSaturated);
  EXPECT_LT(divergent.days_before_abort, days);
  for (std::size_t t = divergent.days_before_abort; t < days; ++t) {
    EXPECT_DOUBLE_EQ(batch.predicted.back()[t], config.state_max);
  }
  // ...and every healthy lane ran to completion, unperturbed.
  for (std::size_t l = 0; l + 1 < batch.width; ++l) {
    EXPECT_FALSE(batch.reports[l].aborted) << "lane " << l;
    EXPECT_EQ(batch.reports[l].outcome, EvalOutcome::kOk) << "lane " << l;
    EXPECT_EQ(batch.reports[l].days_simulated, days);
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
  const RiverDataset dataset = TinyDataset(days);
  const auto equations = ParameterizedEquations();
  const auto lanes = MixedLanes(4);
  const ConstituentSet plankton = ConstituentSet::LegacyPlankton();
  const auto vm = BatchSimulate(equations, lanes, dataset, 0, days, plankton,
                                {5.0, 1.0}, vm_config);
  const auto jit = BatchSimulate(equations, lanes, dataset, 0, days, plankton,
                                 {5.0, 1.0}, jit_config);
  EXPECT_GE(session.stats().tu_compiles, 1u);
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    EXPECT_FALSE(jit.reports[l].jit_fallback);
    // A scalar rollout calls the same symbols at width 1 over the system
    // program's outputs; the symbols are width-invariant, so it matches
    // the lane bitwise.
    SimulationReport scalar_report;
    const auto scalar =
        Simulate(equations, lanes[l], dataset, 0, days, plankton, {5.0, 1.0},
                 jit_config, /*compiled=*/true, &scalar_report)
            .series[0];
    EXPECT_FALSE(scalar_report.jit_fallback);
    EXPECT_EQ(scalar_report.outcome, jit.reports[l].outcome);
    for (std::size_t t = 0; t < days; ++t) {
      // The batch JIT has a ULP budget against the VM; with
      // -ffp-contract=off they match to full precision in practice.
      EXPECT_NEAR(jit.predicted[l][t], vm.predicted[l][t],
                  1e-9 * std::abs(vm.predicted[l][t]) + 1e-12)
          << "lane " << l << " day " << t;
      EXPECT_TRUE(BitwiseEqual(scalar[t], jit.predicted[l][t]))
          << "lane " << l << " day " << t;
    }
  }
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
  const RiverDataset dataset = TinyDataset(days);
  const auto equations = ParameterizedEquations();
  const auto lanes = MixedLanes(4);
  const ConstituentSet plankton = ConstituentSet::LegacyPlankton();
  const auto faulty = BatchSimulate(equations, lanes, dataset, 0, days,
                                    plankton, {5.0, 1.0}, jit_config);
  const auto vm = BatchSimulate(equations, lanes, dataset, 0, days, plankton,
                                {5.0, 1.0}, vm_config);
  EXPECT_EQ(session.stats().tu_compiles, 0u);
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    // The degradation is reported, exact, and per-lane bitwise identical
    // to the batched VM: healthy lanes are never poisoned.
    EXPECT_TRUE(faulty.reports[l].jit_fallback) << "lane " << l;
    for (std::size_t t = 0; t < days; ++t) {
      EXPECT_TRUE(
          BitwiseEqual(faulty.predicted[l][t], vm.predicted[l][t]))
          << "lane " << l << " day " << t;
    }
  }
  // The healthy lanes report the fallback (exactness preserved), the
  // divergent lane still reports its own abort.
  EXPECT_EQ(faulty.reports.front().outcome, EvalOutcome::kJitCompileFailed);
  EXPECT_EQ(faulty.reports.back().outcome, EvalOutcome::kClampSaturated);
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

TEST(BatchFitnessTest, BatchVmFitnessMatchesBytecodeBitwise) {
  // The scalar fitness (the system register program) and the RMSE of the
  // same parameter vector's lane in a batched rollout (the batch program
  // over lane rows) agree bitwise: both VMs run one tape.
  const RiverDataset dataset = TinyDataset(40);
  const river::RiverFitness fitness =
      river::RiverFitness::ForTraining(&dataset);
  const auto equations = ParameterizedEquations();
  const auto lanes = MixedLanes(4);
  const std::size_t days = dataset.train_end;
  const auto batch =
      BatchSimulate(equations, lanes, dataset, 0, days,
                    ConstituentSet::LegacyPlankton(), {5.0, 1.0},
                    SimulationConfig{});
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    auto eval = fitness.Begin(equations, lanes[l], true);
    while (eval->Step()) {
    }
    double sse = 0.0;
    for (std::size_t t = 0; t < days; ++t) {
      const double error = batch.predicted[l][t] - dataset.observed_bphy[t];
      sse += error * error;
    }
    EXPECT_TRUE(BitwiseEqual(eval->CurrentFitness(),
                             std::sqrt(sse / static_cast<double>(days))))
        << "lane " << l;
    EXPECT_EQ(eval->outcome(), batch.reports[l].outcome) << "lane " << l;
  }
}

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
