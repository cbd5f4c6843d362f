// Reverse-mode autodiff tests (ctest labels `grad` + `fault`): hand-derived
// adjoints of every protected primitive at its clamp/band boundaries,
// bitwise (0 ULP) agreement between the gradient program's value and the
// tree interpreter, the discrete-adjoint rollout against central finite
// differences under Euler and RK4 for the legacy plankton preset, a
// transport ConstituentSet registry and systems whose outputs sit in every
// register class, the exact-zero gradient guarantee for activity-pruned
// parameters, watchdog-abort penalty gradients (finite and zero, never
// NaN), the `tape_alloc`/`adjoint_nan` fault sites with the L-BFGS
// degrade-to-derivative-free path, and bit-identical L-BFGS resume through
// the checkpoint store.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/activity.h"
#include "analysis/interval.h"
#include "calibrate/calibrator.h"
#include "calibrate/methods.h"
#include "ckpt/checkpoint.h"
#include "ckpt/serialize.h"
#include "ckpt/snapshot.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "core/river_grammar.h"
#include "expr/ast.h"
#include "expr/eval.h"
#include "gp/parameter_prior.h"
#include "gp/tag3p.h"
#include "grad/adjoint.h"
#include "obs/run_context.h"
#include "obs/telemetry.h"
#include "river/biology.h"
#include "river/constituents.h"
#include "river/dataset.h"
#include "river/parameters.h"
#include "river/simulate.h"
#include "river/synthetic.h"
#include "river/variables.h"

namespace gmr::grad {
namespace {

namespace e = gmr::expr;
namespace r = gmr::river;
namespace an = gmr::analysis;
namespace fs = std::filesystem;

// ------------------------------------------------------------- helpers ----

/// The gradient program of one expression over the regions of a context
/// with `variables` and `parameters`.
GradientProgram ProgramOf(const e::ExprPtr& root,
                          const std::vector<double>& variables,
                          const std::vector<double>& parameters,
                          std::size_t num_states,
                          const an::DomainEnv* prune_env) {
  const e::Expr* roots[] = {root.get()};
  return GradientProgram(
      roots, {variables.size(), parameters.size(), num_states}, prune_env);
}

/// Value and adjoints of one expression, seeded with 1.0.
ExprGradient Gradient(const e::ExprPtr& root,
                      const std::vector<double>& variables,
                      const std::vector<double>& parameters,
                      std::size_t num_states = 0,
                      const an::DomainEnv* prune_env = nullptr) {
  const e::EvalContext ctx{variables.data(), variables.size(),
                           parameters.data(), parameters.size()};
  return Differentiate(
      ProgramOf(root, variables, parameters, num_states, prune_env), ctx);
}

double EvalOne(const e::ExprPtr& root, const std::vector<double>& variables,
               const std::vector<double>& parameters) {
  const e::EvalContext ctx{variables.data(), variables.size(),
                           parameters.data(), parameters.size()};
  return e::EvalExpr(*root, ctx);
}

/// A tiny dataset with gently varying drivers and a non-constant
/// observation, so rollout gradients are non-degenerate.
r::RiverDataset GradDataset(std::size_t days) {
  r::RiverDataset dataset;
  dataset.num_days = days;
  dataset.drivers.assign(r::kNumVariables, {});
  for (int slot : r::ObservedVariableSlots()) {
    std::vector<double> series(days);
    for (std::size_t t = 0; t < days; ++t) {
      series[t] = 1.0 + 0.07 * static_cast<double>(slot) +
                  0.03 * static_cast<double>(t % 5);
    }
    dataset.drivers[static_cast<std::size_t>(slot)] = std::move(series);
  }
  dataset.observed_bphy.resize(days);
  for (std::size_t t = 0; t < days; ++t) {
    dataset.observed_bphy[t] =
        5.0 + 0.6 * static_cast<double>(static_cast<int>((t * 7) % 5) - 2);
  }
  dataset.train_end = days;
  dataset.initial_bphy = 5.0;
  dataset.initial_bzoo = 1.0;
  dataset.test_initial_bphy = 5.0;
  dataset.test_initial_bzoo = 1.0;
  return dataset;
}

/// The legacy plankton toy system used by the rollout tests: a smooth
/// light-driven growth/grazing pair, far from every clamp and kink, so
/// central differences are a trustworthy oracle.
std::vector<e::ExprPtr> PlanktonToyEquations() {
  // dB = p0 * V_lgt - p1 * B * Z
  // dZ = p2 * B * Z - 0.1 * Z
  const e::ExprPtr b = e::Variable(r::kBPhy, "B_Phy");
  const e::ExprPtr z = e::Variable(r::kBZoo, "B_Zoo");
  const e::ExprPtr lgt = e::Variable(r::kVlgt, "V_lgt");
  return {
      e::Sub(e::Mul(e::Parameter(0, "p0"), lgt),
             e::Mul(e::Parameter(1, "p1"), e::Mul(b, z))),
      e::Sub(e::Mul(e::Parameter(2, "p2"), e::Mul(b, z)),
             e::Mul(e::Constant(0.1), z)),
  };
}

/// Asserts the adjoint gradient matches central differences of the
/// value-only rollout objective, dimension by dimension.
void ExpectMatchesCentralDifference(const std::vector<e::ExprPtr>& equations,
                                    const std::vector<double>& parameters,
                                    const r::RiverDataset& dataset,
                                    std::size_t t_begin, std::size_t t_end,
                                    const r::ConstituentSet& constituents,
                                    const std::vector<double>& initial_state,
                                    const r::SimulationConfig& config) {
  const GradientResult result =
      RmseGradient(equations, parameters, dataset, t_begin, t_end,
                   constituents, initial_state, config);
  ASSERT_TRUE(result.gradient_valid);
  ASSERT_EQ(result.gradient.size(), parameters.size());
  EXPECT_FALSE(result.report.aborted);

  const calibrate::Objective objective =
      MakeRmseObjective(equations, &dataset, t_begin, t_end, constituents,
                        initial_state, config);
  EXPECT_EQ(ckpt::HexDouble(result.rmse), ckpt::HexDouble(objective(parameters)));

  for (std::size_t i = 0; i < parameters.size(); ++i) {
    const double h = 1e-6 * std::max(1.0, std::fabs(parameters[i]));
    std::vector<double> plus = parameters;
    std::vector<double> minus = parameters;
    plus[i] += h;
    minus[i] -= h;
    const double fd = (objective(plus) - objective(minus)) / (2.0 * h);
    EXPECT_NEAR(result.gradient[i], fd,
                1e-5 * std::max(1.0, std::fabs(fd)))
        << "parameter slot " << i;
  }
}

// ------------------------------------------- tape: forward bit-identity ----

TEST(TapeTest, ForwardMatchesInterpreterBitwise) {
  // One expression exercising every operator kind, including protected
  // branches, evaluated over several contexts.
  const e::ExprPtr x = e::Variable(0, "x");
  const e::ExprPtr y = e::Variable(1, "y");
  const e::ExprPtr p = e::Parameter(0, "p");
  const e::ExprPtr q = e::Parameter(1, "q");
  const e::ExprPtr root = e::Add(
      e::Min(e::Mul(p, e::Exp(x)), e::Max(y, e::Neg(q))),
      e::Div(e::Log(e::Add(x, q)), e::Sub(e::Mul(x, y), e::Constant(0.5))));

  const std::vector<std::vector<double>> var_sets = {
      {0.5, -1.25}, {3.0, 2.0}, {-2.0, 0.0}, {90.0, 1e-13}, {1e-10, -3.5}};
  const std::vector<double> params = {1.75, -0.3};
  for (const auto& vars : var_sets) {
    const ExprGradient gradient = Gradient(root, vars, params);
    const double reference = EvalOne(root, vars, params);
    EXPECT_EQ(ckpt::HexDouble(gradient.value), ckpt::HexDouble(reference))
        << "x=" << vars[0] << " y=" << vars[1];
  }
}

// --------------------------------------- tape: per-primitive adjoints -----

TEST(TapeTest, AddSubNegAdjoints) {
  const e::ExprPtr p0 = e::Parameter(0, "p0");
  const e::ExprPtr p1 = e::Parameter(1, "p1");
  const std::vector<double> params = {2.5, -4.0};

  ExprGradient out = Gradient(e::Add(p0, p1), {}, params);
  EXPECT_DOUBLE_EQ(out.parameters[0], 1.0);
  EXPECT_DOUBLE_EQ(out.parameters[1], 1.0);

  out = Gradient(e::Sub(p0, p1), {}, params);
  EXPECT_DOUBLE_EQ(out.parameters[0], 1.0);
  EXPECT_DOUBLE_EQ(out.parameters[1], -1.0);

  out = Gradient(e::Neg(p0), {}, params);
  EXPECT_DOUBLE_EQ(out.parameters[0], -1.0);
}

TEST(TapeTest, MulProductRule) {
  const e::ExprPtr p0 = e::Parameter(0, "p0");
  const e::ExprPtr p1 = e::Parameter(1, "p1");
  const std::vector<double> params = {3.0, -7.0};
  const ExprGradient out = Gradient(e::Mul(p0, p1), {}, params);
  EXPECT_DOUBLE_EQ(out.value, -21.0);
  EXPECT_DOUBLE_EQ(out.parameters[0], -7.0);
  EXPECT_DOUBLE_EQ(out.parameters[1], 3.0);
}

TEST(TapeTest, DivQuotientRuleOutsideProtectionBand) {
  const e::ExprPtr p0 = e::Parameter(0, "p0");
  const e::ExprPtr p1 = e::Parameter(1, "p1");
  const std::vector<double> params = {6.0, 4.0};
  const ExprGradient out = Gradient(e::Div(p0, p1), {}, params);
  EXPECT_DOUBLE_EQ(out.value, 1.5);
  EXPECT_DOUBLE_EQ(out.parameters[0], 0.25);          // 1 / b
  EXPECT_DOUBLE_EQ(out.parameters[1], -6.0 / 16.0);   // -a / b^2
}

TEST(TapeTest, DivInsideProtectionBandIsConstantOne) {
  // |b| < kDivEpsilon: the protected kernel returns the constant 1, so both
  // adjoints are exactly zero — the derivative of the branch that ran, not
  // of the textbook quotient.
  const e::ExprPtr p0 = e::Parameter(0, "p0");
  const e::ExprPtr p1 = e::Parameter(1, "p1");
  const std::vector<double> params = {6.0, 1e-10};
  const ExprGradient out = Gradient(e::Div(p0, p1), {}, params);
  EXPECT_DOUBLE_EQ(out.value, 1.0);
  EXPECT_EQ(out.parameters[0], 0.0);
  EXPECT_EQ(out.parameters[1], 0.0);
}

TEST(TapeTest, LogAdjointIsReciprocalForBothSigns) {
  // log(|x|): d/dx = sign(x)/|x| = 1/x on both sides of zero.
  const e::ExprPtr p0 = e::Parameter(0, "p0");
  ExprGradient out = Gradient(e::Log(p0), {}, {2.0});
  EXPECT_DOUBLE_EQ(out.value, std::log(2.0));
  EXPECT_DOUBLE_EQ(out.parameters[0], 0.5);

  out = Gradient(e::Log(p0), {}, {-2.0});
  EXPECT_DOUBLE_EQ(out.value, std::log(2.0));
  EXPECT_DOUBLE_EQ(out.parameters[0], -0.5);
}

TEST(TapeTest, LogInsideZeroBandHasZeroAdjoint) {
  const e::ExprPtr p0 = e::Parameter(0, "p0");
  const ExprGradient out = Gradient(e::Log(p0), {}, {1e-13});
  EXPECT_EQ(out.value, 0.0);
  EXPECT_EQ(out.parameters[0], 0.0);
}

TEST(TapeTest, ExpAdjointAndClampBoundary) {
  const e::ExprPtr p0 = e::Parameter(0, "p0");
  ExprGradient out = Gradient(e::Exp(p0), {}, {1.5});
  EXPECT_DOUBLE_EQ(out.value, std::exp(1.5));
  EXPECT_DOUBLE_EQ(out.parameters[0], std::exp(1.5));

  // Above the clamp the value saturates at exp(80) and the adjoint is
  // exactly zero (the clamped branch is locally constant).
  out = Gradient(e::Exp(p0), {}, {100.0});
  EXPECT_DOUBLE_EQ(out.value, std::exp(80.0));
  EXPECT_EQ(out.parameters[0], 0.0);

  out = Gradient(e::Exp(p0), {}, {-100.0});
  EXPECT_DOUBLE_EQ(out.value, std::exp(-80.0));
  EXPECT_EQ(out.parameters[0], 0.0);
}

TEST(TapeTest, MinMaxRouteCotangentToSelectedBranch) {
  const e::ExprPtr p0 = e::Parameter(0, "p0");
  const e::ExprPtr p1 = e::Parameter(1, "p1");

  // min(a, b) == a < b ? a : b.
  ExprGradient out = Gradient(e::Min(p0, p1), {}, {1.0, 2.0});
  EXPECT_DOUBLE_EQ(out.parameters[0], 1.0);
  EXPECT_DOUBLE_EQ(out.parameters[1], 0.0);
  out = Gradient(e::Min(p0, p1), {}, {2.0, 1.0});
  EXPECT_DOUBLE_EQ(out.parameters[0], 0.0);
  EXPECT_DOUBLE_EQ(out.parameters[1], 1.0);
  // Tie: `a < b` is false, so the kernel selects b; the whole cotangent
  // follows (never split between the operands).
  out = Gradient(e::Min(p0, p1), {}, {3.0, 3.0});
  EXPECT_DOUBLE_EQ(out.parameters[0], 0.0);
  EXPECT_DOUBLE_EQ(out.parameters[1], 1.0);

  // max(a, b) == a > b ? a : b; ties also select b.
  out = Gradient(e::Max(p0, p1), {}, {1.0, 2.0});
  EXPECT_DOUBLE_EQ(out.parameters[0], 0.0);
  EXPECT_DOUBLE_EQ(out.parameters[1], 1.0);
  out = Gradient(e::Max(p0, p1), {}, {2.0, 1.0});
  EXPECT_DOUBLE_EQ(out.parameters[0], 1.0);
  EXPECT_DOUBLE_EQ(out.parameters[1], 0.0);
  out = Gradient(e::Max(p0, p1), {}, {3.0, 3.0});
  EXPECT_DOUBLE_EQ(out.parameters[0], 0.0);
  EXPECT_DOUBLE_EQ(out.parameters[1], 1.0);
}

TEST(TapeTest, SharedSubtreesOccupyOneSlotAndAccumulate) {
  // Add(sub, sub) with a literally shared ExprPtr: both paths accumulate
  // into the leaf registers the subtree reads.
  const e::ExprPtr shared = e::Mul(e::Parameter(0, "p0"), e::Variable(0, "x"));
  const e::ExprPtr root = e::Add(shared, shared);
  ASSERT_EQ(root->NodeCount(), 7u);

  const ExprGradient out = Gradient(root, {5.0}, {3.0}, 1);
  EXPECT_DOUBLE_EQ(out.value, 30.0);
  EXPECT_DOUBLE_EQ(out.parameters[0], 10.0);  // 2 * x
  EXPECT_DOUBLE_EQ(out.states[0], 6.0);   // 2 * p0
}

TEST(TapeTest, StateVariableAdjointsStopAtDrivers) {
  // Variable slots below num_state_variables accumulate adjoints; driver
  // slots are exogenous data and are never differentiated.
  const e::ExprPtr root =
      e::Mul(e::Variable(0, "state"), e::Variable(2, "driver"));
  const ExprGradient out = Gradient(root, {3.0, 0.0, 7.0}, {}, 1);
  EXPECT_DOUBLE_EQ(out.value, 21.0);
  EXPECT_DOUBLE_EQ(out.states[0], 7.0);
}

TEST(TapeTest, ActivityPruningZeroesInactiveParameterExactly) {
  // (p0 - p0) * exp(x) is provably zero over any finite env: the activity
  // pass prunes the whole subtree, so p0's adjoint is exactly 0.0 — not a
  // rounding residue of w*exp(x) - w*exp(x).
  const e::ExprPtr p0 = e::Parameter(0, "p0");
  const e::ExprPtr root =
      e::Add(e::Mul(e::Sub(p0, p0), e::Exp(e::Variable(0, "x"))),
             e::Mul(e::Parameter(1, "p1"), e::Variable(0, "x")));

  an::DomainEnv env;
  env.variables = {an::Interval::Of(0.0, 10.0)};
  env.parameters = {an::Interval::Point(0.5), an::Interval::Point(0.25)};

  const std::vector<int> inactive =
      an::InactiveParameters(an::AnalyzeActivity(*root, env), 2);
  ASSERT_EQ(inactive.size(), 1u);
  EXPECT_EQ(inactive[0], 0);

  const GradientProgram program = ProgramOf(root, {2.0}, {0.5, 0.25}, 1, &env);
  EXPECT_GT(program.pruned(), 0u);
  EXPECT_LT(program.pruned(), program.tape().size());
  const ExprGradient out = Gradient(root, {2.0}, {0.5, 0.25}, 1, &env);
  EXPECT_EQ(out.parameters[0], 0.0);
  EXPECT_DOUBLE_EQ(out.parameters[1], 2.0);
  // The pruned forward value still matches the interpreter bitwise: pruning
  // only drops provably-zero flows, never changes the value.
  EXPECT_EQ(ckpt::HexDouble(out.value),
            ckpt::HexDouble(EvalOne(root, {2.0}, {0.5, 0.25})));
}

// ----------------------------------------------- discrete adjoint rollout --

TEST(AdjointRolloutTest, EulerGradientMatchesCentralDifference) {
  const r::RiverDataset dataset = GradDataset(8);
  ExpectMatchesCentralDifference(PlanktonToyEquations(), {0.4, 0.05, 0.06},
                                 dataset, 0, 3, r::ConstituentSet::LegacyPlankton(),
                                 {5.0, 1.0}, r::SimulationConfig{});
}

TEST(AdjointRolloutTest, Rk4GradientMatchesCentralDifference) {
  const r::RiverDataset dataset = GradDataset(8);
  r::SimulationConfig config;
  config.method = r::IntegrationMethod::kRk4;
  ExpectMatchesCentralDifference(PlanktonToyEquations(), {0.4, 0.05, 0.06},
                                 dataset, 0, 3,
                                 r::ConstituentSet::LegacyPlankton(),
                                 {5.0, 1.0}, config);
}

TEST(AdjointRolloutTest, LongerWindowAndSubstepsStillMatch) {
  const r::RiverDataset dataset = GradDataset(12);
  r::SimulationConfig config;
  config.substeps = 4;
  ExpectMatchesCentralDifference(PlanktonToyEquations(), {0.3, 0.04, 0.05},
                                 dataset, 2, 9,
                                 r::ConstituentSet::LegacyPlankton(),
                                 {5.0, 1.0}, config);
}

TEST(AdjointRolloutTest, TransportRegistryGradientMatchesCentralDifference) {
  const r::RiverDataset dataset = GradDataset(8);
  const r::ConstituentSet constituents = r::ConstituentSet::Transport(2);
  // dNO3 = kNit * NH4 - kNo3 * NO3 + sNo3 * V_lgt
  // dNH4 = -kNit * NH4 - kNh4 * NH4
  const e::ExprPtr no3 = e::Variable(0, "M_NO3");
  const e::ExprPtr nh4 = e::Variable(1, "M_NH4");
  const e::ExprPtr lgt = e::Variable(constituents.driver_slot(0), "V_lgt");
  const std::vector<e::ExprPtr> equations = {
      e::Add(e::Sub(e::Mul(e::Parameter(r::kKNit, "K_NIT"), nh4),
                    e::Mul(e::Parameter(r::kKNo3, "K_NO3"), no3)),
             e::Mul(e::Parameter(r::kSNo3, "S_NO3"), lgt)),
      e::Sub(e::Neg(e::Mul(e::Parameter(r::kKNit, "K_NIT"), nh4)),
             e::Mul(e::Parameter(r::kKNh4, "K_NH4"), nh4)),
  };
  std::vector<double> parameters(r::kNumTransportParameters, 0.0);
  parameters[r::kKNit] = 0.2;
  parameters[r::kKNo3] = 0.1;
  parameters[r::kKNh4] = 0.15;
  parameters[r::kSNo3] = 0.3;

  r::SimulationConfig config;
  config.num_species = 2;
  ExpectMatchesCentralDifference(equations, parameters, dataset, 0, 4,
                                 constituents, constituents.InitialStates(),
                                 config);
}

TEST(AdjointRolloutTest, OutputsInEveryRegisterClassMatchCentralDifference) {
  // Each system puts its two equations' outputs in the registers of a
  // different pair of classes — bind, hold, run, bare parameter, bare state
  // and constant — so every seed and segment reversal is exercised. Both
  // species are observed, so every output reaches the RMSE.
  r::RiverDataset dataset = GradDataset(8);
  std::vector<double> nh4_observed(dataset.num_days);
  for (std::size_t t = 0; t < dataset.num_days; ++t) {
    nh4_observed[t] = 0.7 + 0.1 * static_cast<double>(t % 3);
  }
  dataset.extra_observed = {nh4_observed};
  r::ConstituentSet constituents = r::ConstituentSet::Transport(2);
  constituents.mutable_at(1).observed_series = 1;

  const e::ExprPtr no3 = e::Variable(0, "M_NO3");
  const e::ExprPtr nh4 = e::Variable(1, "M_NH4");
  const e::ExprPtr lgt = e::Variable(constituents.driver_slot(0), "V_lgt");
  const e::ExprPtr k_nit = e::Parameter(r::kKNit, "K_NIT");
  const e::ExprPtr k_no3 = e::Parameter(r::kKNo3, "K_NO3");
  const e::ExprPtr k_nh4 = e::Parameter(r::kKNh4, "K_NH4");
  const e::ExprPtr s_no3 = e::Parameter(r::kSNo3, "S_NO3");
  struct System {
    const char* classes;
    std::vector<e::ExprPtr> equations;
  };
  const std::vector<System> systems = {
      {"bind + hold", {e::Mul(k_nit, k_no3), e::Mul(s_no3, lgt)}},
      {"hold + bare parameter", {e::Mul(s_no3, lgt), k_nh4}},
      {"run + constant",
       {e::Sub(e::Mul(k_nit, nh4), e::Mul(k_no3, no3)), e::Constant(0.05)}},
      {"bare state + run", {nh4, e::Neg(e::Mul(k_nh4, nh4))}},
  };
  std::vector<double> parameters(r::kNumTransportParameters, 0.0);
  parameters[r::kKNit] = 0.2;
  parameters[r::kKNo3] = 0.1;
  parameters[r::kKNh4] = 0.15;
  parameters[r::kSNo3] = 0.3;

  for (const r::IntegrationMethod method :
       {r::IntegrationMethod::kEuler, r::IntegrationMethod::kRk4}) {
    r::SimulationConfig config;
    config.method = method;
    config.num_species = 2;
    for (const System& system : systems) {
      SCOPED_TRACE(std::string(system.classes) +
                   (method == r::IntegrationMethod::kRk4 ? ", RK4"
                                                          : ", Euler"));
      ExpectMatchesCentralDifference(system.equations, parameters, dataset, 0,
                                     4, constituents,
                                     constituents.InitialStates(), config);
    }
  }
}

TEST(AdjointRolloutTest, ManualSharedRegistersMatchCentralDifference) {
  // The expert plankton process repeats material across its equations
  // (LambdaPhy three times). The value-numbered tape computes each repeat
  // once, so a register feeds several readers and the reverse sweep must
  // sum their cotangents before it propagates.
  const std::vector<e::ExprPtr> equations = r::ManualProcess();
  const auto operator_nodes = [](const e::ExprPtr& root) {
    std::size_t count = 0;
    std::vector<const e::Expr*> stack = {root.get()};
    while (!stack.empty()) {
      const e::Expr* node = stack.back();
      stack.pop_back();
      if (!node->IsLeaf()) ++count;
      for (const e::ExprPtr& child : node->children()) {
        stack.push_back(child.get());
      }
    }
    return count;
  };
  const std::size_t operators =
      operator_nodes(equations[0]) + operator_nodes(equations[1]);
  const std::vector<double> parameters =
      gp::PriorMeans(r::RiverParameterPriors());
  const r::RiverDataset dataset = GradDataset(8);
  for (const r::IntegrationMethod method :
       {r::IntegrationMethod::kEuler, r::IntegrationMethod::kRk4}) {
    SCOPED_TRACE(method == r::IntegrationMethod::kRk4 ? "RK4" : "Euler");
    r::SimulationConfig config;
    config.method = method;
    const GradientResult result =
        RmseGradient(equations, parameters, dataset, 0, 3,
                     r::ConstituentSet::LegacyPlankton(), {5.0, 1.0}, config);
    EXPECT_LT(result.tape_nodes, operators);
    std::size_t moving = 0;
    for (const double g : result.gradient) moving += g != 0.0 ? 1 : 0;
    EXPECT_GE(moving, parameters.size() / 2);
    ExpectMatchesCentralDifference(equations, parameters, dataset, 0, 3,
                                   r::ConstituentSet::LegacyPlankton(),
                                   {5.0, 1.0}, config);
  }
}

TEST(AdjointRolloutTest, RmseMatchesValueObjectiveBitwiseUnderBothMethods) {
  const r::RiverDataset dataset = GradDataset(8);
  const std::vector<e::ExprPtr> equations = PlanktonToyEquations();
  const std::vector<double> parameters = {0.4, 0.05, 0.06};
  for (const r::IntegrationMethod method :
       {r::IntegrationMethod::kEuler, r::IntegrationMethod::kRk4}) {
    r::SimulationConfig config;
    config.method = method;
    const GradientResult result = RmseGradient(
        equations, parameters, dataset, 0, 5,
        r::ConstituentSet::LegacyPlankton(), {5.0, 1.0}, config);
    const calibrate::Objective objective = MakeRmseObjective(
        equations, &dataset, 0, 5, r::ConstituentSet::LegacyPlankton(),
        {5.0, 1.0}, config);
    EXPECT_EQ(ckpt::HexDouble(result.rmse),
              ckpt::HexDouble(objective(parameters)));
  }
}

TEST(AdjointRolloutTest, WatchdogAbortYieldsFiniteZeroPenaltyGradient) {
  // The first equation's derivative overflows to +inf on every substep, so
  // the non-finite-derivative watchdog aborts the rollout. The penalty tail
  // is a constant, so the gradient must come back valid and exactly zero —
  // never NaN.
  const r::RiverDataset dataset = GradDataset(10);
  const e::ExprPtr big = e::Exp(e::Constant(79.0));       // e^79  ~ 2e34
  const e::ExprPtr big4 = e::Mul(e::Mul(big, big), e::Mul(big, big));
  const e::ExprPtr overflow = e::Mul(e::Mul(big4, big4), big4);  // e^948 = inf
  const std::vector<e::ExprPtr> equations = {
      e::Add(overflow, e::Mul(e::Parameter(0, "p0"), e::Variable(0, "B"))),
      e::Constant(0.0),
  };
  r::SimulationConfig config;
  config.max_nonfinite_derivatives = 2;
  const GradientResult result =
      RmseGradient(equations, {0.2}, dataset, 0, 10,
                   r::ConstituentSet::LegacyPlankton(), {5.0, 1.0}, config);
  EXPECT_TRUE(result.report.aborted);
  EXPECT_TRUE(result.gradient_valid);
  ASSERT_EQ(result.gradient.size(), 1u);
  for (const double g : result.gradient) {
    EXPECT_TRUE(std::isfinite(g));
    EXPECT_EQ(g, 0.0);
  }
  EXPECT_TRUE(std::isfinite(result.rmse));
}

TEST(AdjointRolloutTest, PrunedInactiveParameterHasExactZeroGradient) {
  // (p0 - p0) * V_lgt contributes nothing; with pruning on, p0's rollout
  // gradient is exactly 0.0 and the forward RMSE is untouched.
  const r::RiverDataset dataset = GradDataset(8);
  const e::ExprPtr p0 = e::Parameter(0, "p0");
  const e::ExprPtr lgt = e::Variable(r::kVlgt, "V_lgt");
  const std::vector<e::ExprPtr> equations = {
      e::Add(e::Mul(e::Sub(p0, p0), lgt),
             e::Mul(e::Parameter(1, "p1"), lgt)),
      e::Constant(0.0),
  };
  const std::vector<double> parameters = {0.7, 0.3};
  const r::SimulationConfig config;
  const GradientResult pruned = RmseGradient(
      equations, parameters, dataset, 0, 5,
      r::ConstituentSet::LegacyPlankton(), {5.0, 1.0}, config, true);
  const GradientResult unpruned = RmseGradient(
      equations, parameters, dataset, 0, 5,
      r::ConstituentSet::LegacyPlankton(), {5.0, 1.0}, config, false);

  ASSERT_TRUE(pruned.gradient_valid);
  ASSERT_TRUE(unpruned.gradient_valid);
  EXPECT_EQ(pruned.gradient[0], 0.0);
  EXPECT_NE(pruned.gradient[1], 0.0);
  EXPECT_GT(pruned.pruned_nodes, 0u);
  EXPECT_EQ(unpruned.pruned_nodes, 0u);
  EXPECT_EQ(ckpt::HexDouble(pruned.rmse), ckpt::HexDouble(unpruned.rmse));
  // Pruning only removes provably-zero flows: the surviving slot agrees.
  EXPECT_NEAR(pruned.gradient[1], unpruned.gradient[1],
              1e-12 * std::max(1.0, std::fabs(unpruned.gradient[1])));
}

TEST(AdjointRolloutTest, RiverGradientFitnessPopulatesStats) {
  const r::RiverDataset dataset = GradDataset(8);
  const RiverGradientFitness fitness = RiverGradientFitness::ForTraining(
      &dataset, r::ConstituentSet::LegacyPlankton());
  const std::vector<e::ExprPtr> equations = PlanktonToyEquations();
  const std::vector<double> parameters = {0.4, 0.05, 0.06};

  double value = 0.0;
  std::vector<double> gradient;
  gp::GradientFitness::GradientStats stats;
  ASSERT_TRUE(fitness.EvaluateGradient(equations, parameters, &value,
                                       &gradient, &stats));
  EXPECT_TRUE(std::isfinite(value));
  ASSERT_EQ(gradient.size(), parameters.size());
  for (const double g : gradient) EXPECT_TRUE(std::isfinite(g));
  EXPECT_GT(stats.tape_nodes, 0u);

  const calibrate::Objective objective = MakeRmseObjective(
      equations, &dataset, 0, dataset.train_end,
      r::ConstituentSet::LegacyPlankton(),
      r::ConstituentSet::LegacyPlankton().InitialStates(),
      r::SimulationConfig{});
  EXPECT_EQ(ckpt::HexDouble(value), ckpt::HexDouble(objective(parameters)));
}

TEST(Tag3pGradientPolishTest, DeterministicAcrossThreadsAndMonotone) {
  // TAG3P's gradient elite polish (elite_gradient_steps) descends on the
  // elite's parameters with RiverGradientFitness's adjoint. Each descent
  // step is one evaluator batch, so the search is bit-identical at any
  // thread count, and with elitism the per-generation best never rises.
  r::SyntheticConfig data_config;
  data_config.years = 2;
  data_config.train_years = 1;
  data_config.seed = 3;
  const r::RiverDataset dataset = r::GenerateNakdongLike(data_config);
  const core::RiverPriorKnowledge knowledge =
      core::BuildRiverPriorKnowledge();
  const r::RiverFitness fitness = r::RiverFitness::ForTraining(&dataset);
  const RiverGradientFitness gradient = RiverGradientFitness::ForTraining(
      &dataset, r::ConstituentSet::LegacyPlankton());
  const gp::Tag3pProblem problem{&knowledge.grammar, &fitness,
                                 knowledge.priors, &gradient};
  const auto run = [&](int threads) {
    gp::Tag3pConfig config;
    config.population_size = 30;
    config.max_generations = 6;
    config.local_search_steps = 3;
    config.elite_polish_steps = 10;
    config.elite_gradient_steps = 4;
    config.sigma_rampdown_generations = 3;
    config.seed = 5;
    config.seed_alpha_index = knowledge.seed_alpha_index;
    config.speedups.tree_caching = true;
    config.speedups.short_circuiting = true;
    config.speedups.num_threads = threads;
    return gp::RunTag3p(config, problem);
  };
  const gp::Tag3pResult serial = run(1);
  const gp::Tag3pResult parallel = run(4);

  EXPECT_EQ(ckpt::HexDouble(serial.best.fitness),
            ckpt::HexDouble(parallel.best.fitness));
  EXPECT_EQ(ckpt::SerializeDoubles(serial.best.parameters),
            ckpt::SerializeDoubles(parallel.best.parameters));
  ASSERT_EQ(serial.history.size(), parallel.history.size());
  for (std::size_t g = 0; g < serial.history.size(); ++g) {
    EXPECT_EQ(ckpt::HexDouble(serial.history[g].best_fitness),
              ckpt::HexDouble(parallel.history[g].best_fitness))
        << "generation " << g;
    EXPECT_EQ(ckpt::HexDouble(serial.history[g].mean_fitness),
              ckpt::HexDouble(parallel.history[g].mean_fitness))
        << "generation " << g;
    if (g > 0) {
      EXPECT_LE(serial.history[g].best_fitness,
                serial.history[g - 1].best_fitness)
          << "generation " << g;
    }
  }
  EXPECT_LT(serial.history.back().best_fitness,
            serial.history.front().best_fitness);
  const gp::EvalStats& stats = serial.eval_stats;
  // One gradient per generation, plus one per accepted descent step.
  EXPECT_GT(stats.gradient_evaluations, serial.history.size());
  EXPECT_GT(stats.tape_nodes, 0u);
  EXPECT_GT(stats.linesearch_steps, 0u);
  EXPECT_EQ(stats.gradient_evaluations,
            parallel.eval_stats.gradient_evaluations);
  EXPECT_EQ(stats.linesearch_steps, parallel.eval_stats.linesearch_steps);
}

// ------------------------------------------------------- fault injection ---

TEST(GradFaultTest, TapeAllocFaultThrowsBadAlloc) {
  std::string error;
  ASSERT_TRUE(SetFaultSpec("tape_alloc:always", &error)) << error;
  const e::ExprPtr root = e::Parameter(0, "p0");
  const e::Expr* roots[] = {root.get()};
  const e::TapeLayout layout{0, 1};
  EXPECT_THROW(GradientProgram(roots, layout, nullptr), std::bad_alloc);
  EXPECT_THROW(Gradient(root, {}, {1.0}), std::bad_alloc);
  ClearFaults();
  EXPECT_NO_THROW(GradientProgram(roots, layout, nullptr));
  EXPECT_NO_THROW(Gradient(root, {}, {1.0}));
}

TEST(GradFaultTest, AdjointNanFaultPoisonsAdjoints) {
  std::string error;
  ASSERT_TRUE(SetFaultSpec("adjoint_nan:always", &error)) << error;
  const ExprGradient out = Gradient(e::Parameter(0, "p0"), {}, {2.0});
  EXPECT_TRUE(std::isnan(out.parameters[0]));
  ClearFaults();
}

TEST(GradFaultTest, RmseGradientFlagsTapeAllocFault) {
  const r::RiverDataset dataset = GradDataset(8);
  const std::vector<e::ExprPtr> equations = PlanktonToyEquations();
  const std::vector<double> parameters = {0.4, 0.05, 0.06};

  std::string error;
  ASSERT_TRUE(SetFaultSpec("tape_alloc:always", &error)) << error;
  const GradientResult result =
      RmseGradient(equations, parameters, dataset, 0, 5,
                   r::ConstituentSet::LegacyPlankton(), {5.0, 1.0},
                   r::SimulationConfig{});
  ClearFaults();

  EXPECT_FALSE(result.gradient_valid);
  // The forward rollout is unaffected: the RMSE is still trustworthy.
  EXPECT_TRUE(std::isfinite(result.rmse));
  const calibrate::Objective objective = MakeRmseObjective(
      equations, &dataset, 0, 5, r::ConstituentSet::LegacyPlankton(),
      {5.0, 1.0}, r::SimulationConfig{});
  EXPECT_EQ(ckpt::HexDouble(result.rmse),
            ckpt::HexDouble(objective(parameters)));
}

TEST(GradFaultTest, RmseGradientFlagsAdjointNanFault) {
  const r::RiverDataset dataset = GradDataset(8);
  std::string error;
  ASSERT_TRUE(SetFaultSpec("adjoint_nan:always", &error)) << error;
  const GradientResult result = RmseGradient(
      PlanktonToyEquations(), {0.4, 0.05, 0.06}, dataset, 0, 5,
      r::ConstituentSet::LegacyPlankton(), {5.0, 1.0}, r::SimulationConfig{});
  ClearFaults();
  EXPECT_FALSE(result.gradient_valid);
  EXPECT_TRUE(std::isfinite(result.rmse));
}

TEST(GradFaultTest, GradientObjectiveSignalsFailureWithNan) {
  const r::RiverDataset dataset = GradDataset(8);
  const calibrate::GradientObjective gradient = MakeRmseGradientObjective(
      PlanktonToyEquations(), &dataset, 0, 5,
      r::ConstituentSet::LegacyPlankton(), {5.0, 1.0}, r::SimulationConfig{});

  std::string error;
  ASSERT_TRUE(SetFaultSpec("tape_alloc:always", &error)) << error;
  std::vector<double> g;
  const double value = gradient({0.4, 0.05, 0.06}, &g);
  ClearFaults();

  EXPECT_TRUE(std::isfinite(value));
  ASSERT_EQ(g.size(), 3u);
  for (const double gi : g) EXPECT_TRUE(std::isnan(gi));
}

// --------------------------------------------- gradient-based calibrators --

calibrate::BoxBounds SphereBounds() {
  calibrate::BoxBounds bounds;
  bounds.lo = {-2.0, 0.0, 10.0, -5.0};
  bounds.hi = {2.0, 1.0, 20.0, 5.0};
  return bounds;
}

const std::vector<double> kSphereOptimum = {0.7, 0.25, 13.0, -2.5};
const std::vector<double> kSphereInitial = {-1.0, 0.9, 19.0, 4.0};

double SphereValue(const std::vector<double>& x) {
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - kSphereOptimum[i];
    sum += d * d;
  }
  return sum;
}

double SphereValueAndGradient(const std::vector<double>& x,
                              std::vector<double>* gradient) {
  gradient->assign(x.size(), 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    (*gradient)[i] = 2.0 * (x[i] - kSphereOptimum[i]);
  }
  return SphereValue(x);
}

TEST(GradientCalibratorTest, LbfgsConvergesOnSphereWithExactGradient) {
  const calibrate::LbfgsCalibrator method;
  Rng rng(7);
  const calibrate::CalibrationResult result = method.CalibrateWithGradient(
      SphereValue, SphereValueAndGradient, SphereBounds(), kSphereInitial,
      200, rng, obs::RunContext{});
  EXPECT_LE(result.evaluations, 200u);
  EXPECT_LT(result.best_objective, 1e-6);
  ASSERT_EQ(result.best_parameters.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(result.best_parameters[i], kSphereOptimum[i], 1e-3);
  }
}

TEST(GradientCalibratorTest, AdamImprovesOnSphereWithExactGradient) {
  const calibrate::AdamCalibrator method;
  Rng rng(11);
  const calibrate::CalibrationResult result = method.CalibrateWithGradient(
      SphereValue, SphereValueAndGradient, SphereBounds(), kSphereInitial,
      400, rng, obs::RunContext{});
  EXPECT_LE(result.evaluations, 400u);
  EXPECT_LT(result.best_objective, 1.0);
  EXPECT_LT(result.best_objective, SphereValue(kSphereInitial));
}

TEST(GradientCalibratorTest, LbfgsDegradesToDerivativeFreeOnPoisonedGradient) {
  // Every gradient query fails (all-NaN): L-BFGS must fall back to the
  // derivative-free path, keep improving, and never crash or return NaN.
  const calibrate::GradientObjective poisoned =
      [](const std::vector<double>& x, std::vector<double>* gradient) {
        gradient->assign(x.size(), std::nan(""));
        return SphereValue(x);
      };
  const calibrate::LbfgsCalibrator method;
  Rng rng(5);
  const calibrate::CalibrationResult result = method.CalibrateWithGradient(
      SphereValue, poisoned, SphereBounds(), kSphereInitial, 300, rng,
      obs::RunContext{});
  EXPECT_LE(result.evaluations, 300u);
  EXPECT_TRUE(std::isfinite(result.best_objective));
  EXPECT_LT(result.best_objective, SphereValue(kSphereInitial));
  const calibrate::BoxBounds bounds = SphereBounds();
  ASSERT_EQ(result.best_parameters.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GE(result.best_parameters[i], bounds.lo[i] - 1e-12);
    EXPECT_LE(result.best_parameters[i], bounds.hi[i] + 1e-12);
  }
}

TEST(GradientCalibratorTest, LbfgsDegradesUnderTapeAllocFaultOnRiverProblem) {
  // End to end through calibrate::Run: the river gradient objective is
  // permanently faulted, so every adjoint query fails and L-BFGS must
  // finish on the derivative-free path with a finite incumbent.
  const r::RiverDataset dataset = GradDataset(8);
  const std::vector<e::ExprPtr> equations = PlanktonToyEquations();

  calibrate::CalibrationProblem problem;
  problem.objective = MakeRmseObjective(equations, &dataset, 0, 5,
                                        r::ConstituentSet::LegacyPlankton(),
                                        {5.0, 1.0}, r::SimulationConfig{});
  problem.gradient = MakeRmseGradientObjective(
      equations, &dataset, 0, 5, r::ConstituentSet::LegacyPlankton(),
      {5.0, 1.0}, r::SimulationConfig{});
  problem.bounds.lo = {0.01, 0.01, 0.01};
  problem.bounds.hi = {1.0, 1.0, 1.0};
  problem.initial = {0.4, 0.05, 0.06};

  calibrate::CalibrationConfig config;
  config.budget = 40;
  config.seed = 3;

  std::string error;
  ASSERT_TRUE(SetFaultSpec("tape_alloc:always", &error)) << error;
  const calibrate::CalibrationResult result =
      calibrate::Run(calibrate::LbfgsCalibrator{}, config, problem);
  ClearFaults();

  EXPECT_LE(result.evaluations, 40u);
  EXPECT_TRUE(std::isfinite(result.best_objective));
  EXPECT_LT(result.best_objective, 1e300);
}

// ------------------------------------------------ bit-identical resume -----

std::string FreshDir(const std::string& name) {
  const std::string path = testing::TempDir() + "/grad_test_" + name;
  std::error_code ignore;
  fs::remove_all(path, ignore);
  fs::create_directories(path);
  return path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

ckpt::CheckpointOptions CheckpointEveryStep(const std::string& dir) {
  ckpt::CheckpointOptions options;
  options.dir = dir;
  options.every_steps = 1;
  options.retain = 64;
  return options;
}

/// Rosenbrock in 4 dims (two independent 2-d valleys): curved enough that
/// L-BFGS iterates long enough to leave several snapshots behind.
double RosenbrockValue(const std::vector<double>& x) {
  double sum = 0.0;
  for (std::size_t i = 0; i + 1 < x.size(); i += 2) {
    const double a = x[i + 1] - x[i] * x[i];
    const double b = 1.0 - x[i];
    sum += 100.0 * a * a + b * b;
  }
  return sum;
}

double RosenbrockValueAndGradient(const std::vector<double>& x,
                                  std::vector<double>* gradient) {
  gradient->assign(x.size(), 0.0);
  for (std::size_t i = 0; i + 1 < x.size(); i += 2) {
    const double a = x[i + 1] - x[i] * x[i];
    (*gradient)[i] = -400.0 * a * x[i] - 2.0 * (1.0 - x[i]);
    (*gradient)[i + 1] = 200.0 * a;
  }
  return RosenbrockValue(x);
}

struct SegmentRun {
  std::string trace;
  std::string digest;
  bool resumed = false;
  std::uint64_t resumed_step = 0;
};

SegmentRun RunLbfgsSegment(const std::string& dir) {
  calibrate::CalibrationConfig config;
  config.budget = 400;
  config.seed = 33;
  calibrate::CalibrationProblem problem;
  problem.objective = RosenbrockValue;
  problem.gradient = RosenbrockValueAndGradient;
  problem.bounds.lo = {-2.0, -2.0, -2.0, -2.0};
  problem.bounds.hi = {2.0, 2.0, 2.0, 2.0};
  problem.initial = {-1.2, 1.0, -1.2, 1.0};

  SegmentRun run;
  const std::string trace_path = dir + "/trace.jsonl";
  {
    ckpt::Checkpointer checkpointer(CheckpointEveryStep(dir + "/ck"));
    if (const ckpt::Snapshot* snapshot = checkpointer.Load()) {
      run.resumed = true;
      run.resumed_step = snapshot->step;
    }
    obs::JsonlTraceOptions options = obs::JsonlTraceOptions::Deterministic();
    options.resume = true;
    options.resume_bytes = checkpointer.resume_trace_bytes();
    options.resume_sequence = checkpointer.resume_trace_sequence();
    obs::JsonlTraceSink sink(trace_path, options);
    EXPECT_TRUE(sink.ok());
    checkpointer.AttachTraceSink(&sink);

    obs::RunContext context;
    context.sink = &sink;
    context.checkpointer = &checkpointer;
    const calibrate::CalibrationResult result = calibrate::Run(
        calibrate::LbfgsCalibrator{}, config, problem, context);
    std::ostringstream digest;
    digest << "best " << ckpt::HexDouble(result.best_objective) << "\n"
           << ckpt::SerializeDoubles(result.best_parameters) << "\n"
           << "evaluations " << result.evaluations << " failed "
           << result.failed_evaluations << "\n";
    run.digest = digest.str();
  }
  run.trace = ReadFile(trace_path);
  return run;
}

TEST(GradientCalibratorTest, LbfgsResumesBitIdentically) {
  const std::string dir = FreshDir("resume_lbfgs");
  const SegmentRun full = RunLbfgsSegment(dir);
  EXPECT_FALSE(full.resumed);
  ASSERT_FALSE(full.trace.empty());

  // Rewind the store to a mid-run step, as if the process died there.
  ckpt::SnapshotStore store(dir + "/ck", /*retain=*/64);
  ASSERT_GE(store.entries().size(), 3u);
  const std::uint64_t last = store.entries().back().step;
  const std::uint64_t mid =
      store.entries()[(store.entries().size() - 1) / 2].step;
  ASSERT_LT(mid, last);
  ASSERT_TRUE(store.DropNewerThan(mid).ok());

  const SegmentRun resumed = RunLbfgsSegment(dir);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.resumed_step, mid);
  EXPECT_EQ(resumed.trace, full.trace);
  EXPECT_EQ(resumed.digest, full.digest);
}

}  // namespace
}  // namespace gmr::grad
