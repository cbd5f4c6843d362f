// Rollout tests of the equation-system VM program: one program per
// equation system against the interpreter, and per-vector watchdog
// outcomes. Labeled `batch`, `prop`, and `fault` in ctest.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "expr/ast.h"
#include "expr/compile.h"
#include "expr/eval.h"
#include "river/dataset.h"
#include "river/parameters.h"
#include "river/simulate.h"
#include "river/variables.h"

namespace gmr {
namespace {

namespace e = gmr::expr;
using river::ConstituentSet;
using river::IntegrationMethod;
using river::RiverDataset;
using river::Simulate;
using river::SimulationConfig;
using river::SimulationReport;

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

// ------------------------------------------------------------ rollouts ----

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

}  // namespace
}  // namespace gmr
