#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>

#include "common/metrics.h"
#include "expr/eval.h"
#include "expr/print.h"
#include "river/biology.h"
#include "river/dataset.h"
#include "river/network.h"
#include "river/parameters.h"
#include "river/simulate.h"
#include "river/synthetic.h"
#include "river/variables.h"

namespace gmr::river {
namespace {

namespace e = gmr::expr;

// ---------------------------------------------------------- variables -----

TEST(VariablesTest, NamesAndSlots) {
  EXPECT_STREQ(VariableName(kBPhy), "B_Phy");
  EXPECT_STREQ(VariableName(kVph), "V_ph");
  EXPECT_EQ(VariableNames().size(), static_cast<std::size_t>(kNumVariables));
  const auto observed = ObservedVariableSlots();
  EXPECT_EQ(observed.size(), static_cast<std::size_t>(kNumVariables - 2));
  EXPECT_EQ(observed.front(), kVlgt);
}

// --------------------------------------------------------- parameters -----

TEST(ParametersTest, PriorsMatchTableIII) {
  const auto priors = RiverParameterPriors();
  ASSERT_EQ(priors.size(), static_cast<std::size_t>(kNumParameters));
  EXPECT_EQ(priors[kCUA].name, "C_UA");
  EXPECT_DOUBLE_EQ(priors[kCUA].mean, 1.89);
  EXPECT_DOUBLE_EQ(priors[kCUA].lo, 0.1);
  EXPECT_DOUBLE_EQ(priors[kCUA].hi, 4.0);
  EXPECT_DOUBLE_EQ(priors[kCBTP1].mean, 27.0);
  EXPECT_DOUBLE_EQ(priors[kCP].mean, 0.00167);
  for (const auto& prior : priors) {
    EXPECT_GE(prior.mean, prior.lo) << prior.name;
    EXPECT_LE(prior.mean, prior.hi) << prior.name;
    EXPECT_GT(prior.InitialSigma(), 0.0) << prior.name;
  }
}

TEST(ParametersTest, TrueParametersWithinBounds) {
  const auto priors = RiverParameterPriors();
  const auto truth = TrueParameters();
  ASSERT_EQ(truth.size(), priors.size());
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_GE(truth[i], priors[i].lo) << priors[i].name;
    EXPECT_LE(truth[i], priors[i].hi) << priors[i].name;
  }
}

// ------------------------------------------------------------ biology -----

struct BiologyFixture : public ::testing::Test {
  std::vector<double> vars = [] {
    std::vector<double> v(kNumVariables, 0.0);
    v[kBPhy] = 10.0;
    v[kBZoo] = 2.0;
    v[kVlgt] = 20.0;
    v[kVn] = 2.0;
    v[kVp] = 0.05;
    v[kVsi] = 3.0;
    v[kVtmp] = 20.0;
    v[kVdo] = 10.0;
    v[kVcd] = 300.0;
    v[kVph] = 8.0;
    v[kValk] = 50.0;
    v[kVsd] = 1.5;
    return v;
  }();
  std::vector<double> params = gp::PriorMeans(RiverParameterPriors());

  double Eval(const e::ExprPtr& expr) const {
    e::EvalContext ctx;
    ctx.variables = vars.data();
    ctx.num_variables = vars.size();
    ctx.parameters = params.data();
    ctx.num_parameters = params.size();
    return e::EvalExpr(*expr, ctx);
  }
};

TEST_F(BiologyFixture, LambdaPhyMatchesFormula) {
  const double food = vars[kBPhy] - params[kCFmin];
  EXPECT_NEAR(Eval(LambdaPhy()), food / (params[kCFS] + food), 1e-12);
}

TEST_F(BiologyFixture, LightResponseMatchesFormula) {
  const double effective =
      vars[kVlgt] * std::exp(-params[kCSH] * vars[kBPhy]);
  const double ratio = effective / params[kCBL];
  EXPECT_NEAR(Eval(LightResponse()), ratio * std::exp(1.0 - ratio), 1e-12);
}

TEST_F(BiologyFixture, NutrientLimitationIsLiebigMinimum) {
  const double gn = vars[kVn] / (params[kCN] + vars[kVn]);
  const double gp = vars[kVp] / (params[kCP] + vars[kVp]);
  const double gs = vars[kVsi] / (params[kCSI] + vars[kVsi]);
  EXPECT_NEAR(Eval(NutrientLimitation()), std::min({gn, gp, gs}), 1e-12);
}

TEST_F(BiologyFixture, TemperatureResponseIsMaxOfGaussians) {
  const double d1 = vars[kVtmp] - params[kCBTP1];
  const double d2 = vars[kVtmp] - params[kCBTP2];
  const double expected = std::max(std::exp(-params[kCPT] * d1 * d1),
                                   std::exp(-params[kCPT] * d2 * d2));
  EXPECT_NEAR(Eval(TemperatureResponse()), expected, 1e-12);
}

TEST_F(BiologyFixture, DerivativesAssembleSubprocesses) {
  const double mu = Eval(MuPhy());
  const double gamma = Eval(GammaPhy());
  const double phi = Eval(Phi());
  EXPECT_NEAR(Eval(PhytoplanktonDerivative()),
              vars[kBPhy] * (mu - gamma) - vars[kBZoo] * phi, 1e-12);

  const double mu_zoo = Eval(MuZoo());
  const double gamma_zoo = Eval(GammaZoo());
  const double delta_zoo = Eval(DeltaZoo());
  EXPECT_NEAR(Eval(ZooplanktonDerivative()),
              vars[kBZoo] * (mu_zoo - (gamma_zoo + delta_zoo)), 1e-12);
}

TEST_F(BiologyFixture, GammaZooIncludesGrazingMultiplier) {
  EXPECT_NEAR(Eval(GammaZoo()),
              params[kCBRZ] + params[kCBMT] * Eval(Phi()), 1e-12);
}

TEST(BiologyTest, ManualProcessHasTwoEquations) {
  const auto process = ManualProcess();
  ASSERT_EQ(process.size(), 2u);
  // Both equations must reference the coupled state.
  const auto slots0 = e::ReferencedVariableSlots(*process[0]);
  EXPECT_TRUE(std::find(slots0.begin(), slots0.end(), kBZoo) != slots0.end());
  const auto slots1 = e::ReferencedVariableSlots(*process[1]);
  EXPECT_TRUE(std::find(slots1.begin(), slots1.end(), kBPhy) != slots1.end());
}

TEST(BiologyTest, RiverSymbolsParseEquationText) {
  const auto result =
      e::Parse("B_Phy * (C_UA - C_BRA) - B_Zoo * V_tmp", RiverSymbols());
  ASSERT_TRUE(result.ok()) << result.error;
}

// ------------------------------------------------------------ network -----

TEST(NetworkTest, NakdongTopology) {
  const RiverNetwork network = RiverNetwork::Nakdong();
  EXPECT_EQ(network.num_stations(), 12u);  // 9 real + 3 virtual
  const int sink = network.Sink();
  EXPECT_EQ(network.station(sink).name, "S1");
  int virtual_count = 0;
  for (std::size_t s = 0; s < network.num_stations(); ++s) {
    virtual_count += network.station(static_cast<int>(s)).is_virtual;
  }
  EXPECT_EQ(virtual_count, 3);
  // Virtual stations sit at confluences: in-degree 2.
  for (std::size_t s = 0; s < network.num_stations(); ++s) {
    if (network.station(static_cast<int>(s)).is_virtual) {
      EXPECT_EQ(network.InboundReaches(static_cast<int>(s)).size(), 2u);
    }
  }
}

TEST(NetworkTest, TopologicalOrderRespectsReaches) {
  const RiverNetwork network = RiverNetwork::Nakdong();
  const std::vector<int> order = network.TopologicalOrder();
  ASSERT_EQ(order.size(), network.num_stations());
  std::vector<int> position(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    position[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  }
  for (const Reach& reach : network.reaches()) {
    EXPECT_LT(position[static_cast<std::size_t>(reach.from)],
              position[static_cast<std::size_t>(reach.to)]);
  }
}

TEST(NetworkTest, FindStation) {
  const RiverNetwork network = RiverNetwork::Nakdong();
  EXPECT_GE(network.FindStation("T2"), 0);
  EXPECT_EQ(network.FindStation("X9"), -1);
}

HydrologicalProcess::Input TwoStationInput(std::size_t days,
                                           double attribute_value) {
  // Station 0 -> station 1.
  HydrologicalProcess::Input input;
  input.attributes.resize(2);
  input.rainfall.resize(2);
  input.base_flow = {10.0, 5.0};
  for (std::size_t s = 0; s < 2; ++s) {
    input.attributes[s] = {std::vector<double>(days, attribute_value)};
    input.rainfall[s] = std::vector<double>(days, s == 0 ? 2.0 : 1.0);
  }
  return input;
}

TEST(HydrologyTest, ConstantAttributeIsPreservedDownstream) {
  RiverNetwork network;
  const int a = network.AddStation("A");
  const int b = network.AddStation("B");
  network.AddReach(a, b, 1, 0.3);
  HydrologicalProcess hydrology(&network);
  const auto out = hydrology.Route(TwoStationInput(50, 7.5));
  // Mixing water bodies that all carry 7.5 must yield 7.5 everywhere.
  for (std::size_t t = 0; t < 50; ++t) {
    EXPECT_NEAR(out.attributes[static_cast<std::size_t>(b)][0][t], 7.5, 1e-9)
        << "day " << t;
  }
}

TEST(HydrologyTest, FlowIsPositiveAndBounded) {
  const RiverNetwork network = RiverNetwork::Nakdong();
  HydrologicalProcess hydrology(&network);
  HydrologicalProcess::Input input;
  const std::size_t days = 100;
  input.attributes.resize(network.num_stations());
  input.rainfall.resize(network.num_stations());
  input.base_flow.assign(network.num_stations(), 0.0);
  for (std::size_t s = 0; s < network.num_stations(); ++s) {
    if (network.station(static_cast<int>(s)).is_virtual) continue;
    input.attributes[s] = {std::vector<double>(days, 1.0)};
    input.rainfall[s] = std::vector<double>(days, 1.0);
    input.base_flow[s] = 10.0;
  }
  const auto out = hydrology.Route(input);
  for (std::size_t s = 0; s < network.num_stations(); ++s) {
    for (std::size_t t = 1; t < days; ++t) {
      EXPECT_GT(out.flow[s][t], 0.0);
      EXPECT_LT(out.flow[s][t], 1e6);
    }
  }
}

TEST(HydrologyTest, ConfluenceMixesByFlow) {
  // Two sources with different attribute values merge at a virtual station;
  // the mix must lie strictly between them and closer to the bigger flow.
  RiverNetwork network;
  const int big = network.AddStation("BIG");
  const int small = network.AddStation("SMALL");
  const int join = network.AddStation("VS", /*is_virtual=*/true);
  network.AddReach(big, join, 1, 0.0);
  network.AddReach(small, join, 1, 0.0);
  HydrologicalProcess hydrology(&network);
  HydrologicalProcess::Input input;
  const std::size_t days = 30;
  input.attributes.resize(3);
  input.rainfall.resize(3);
  input.base_flow = {90.0, 10.0, 0.0};
  input.attributes[static_cast<std::size_t>(big)] = {
      std::vector<double>(days, 10.0)};
  input.attributes[static_cast<std::size_t>(small)] = {
      std::vector<double>(days, 20.0)};
  input.rainfall[static_cast<std::size_t>(big)] =
      std::vector<double>(days, 0.0);
  input.rainfall[static_cast<std::size_t>(small)] =
      std::vector<double>(days, 0.0);
  const auto out = hydrology.Route(input);
  const double mixed =
      out.attributes[static_cast<std::size_t>(join)][0][days - 1];
  EXPECT_GT(mixed, 10.0);
  EXPECT_LT(mixed, 20.0);
  // Flow-weighted: 0.9 * 10 + 0.1 * 20 = 11.
  EXPECT_NEAR(mixed, 11.0, 0.5);
}

// ----------------------------------------------------------- simulate -----

RiverDataset TinyDataset(std::size_t days) {
  RiverDataset dataset;
  dataset.num_days = days;
  dataset.drivers.assign(kNumVariables, {});
  for (int slot : ObservedVariableSlots()) {
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

TEST(SimulateTest, ZeroDerivativeKeepsStateConstant) {
  const RiverDataset dataset = TinyDataset(20);
  const std::vector<e::ExprPtr> equations{e::Constant(0.0),
                                          e::Constant(0.0)};
  const std::vector<double> params(kNumParameters, 0.0);
  const auto predicted =
      Simulate(equations, params, dataset, 0, 20,
               ConstituentSet::LegacyPlankton(), {5.0, 1.0},
               SimulationConfig{}, true)
          .series[0];
  ASSERT_EQ(predicted.size(), 20u);
  for (double p : predicted) EXPECT_DOUBLE_EQ(p, 5.0);
}

TEST(SimulateTest, ConstantGrowthMatchesAnalyticEuler) {
  const RiverDataset dataset = TinyDataset(10);
  // dB/dt = 1 with two substeps/day: B(t) = 5 + (t+1).
  const std::vector<e::ExprPtr> equations{e::Constant(1.0),
                                          e::Constant(0.0)};
  const std::vector<double> params(kNumParameters, 0.0);
  SimulationConfig config;
  config.substeps = 2;
  const auto predicted =
      Simulate(equations, params, dataset, 0, 10,
               ConstituentSet::LegacyPlankton(), {5.0, 1.0}, config, true)
          .series[0];
  for (std::size_t t = 0; t < predicted.size(); ++t) {
    EXPECT_NEAR(predicted[t], 5.0 + static_cast<double>(t + 1), 1e-9);
  }
}

TEST(SimulateTest, StateIsClampedOnDivergence) {
  const RiverDataset dataset = TinyDataset(15);
  // Explosive growth hits the state_max clamp instead of producing inf.
  const std::vector<e::ExprPtr> equations{
      e::Mul(e::Variable(kBPhy, "B"), e::Constant(10.0)), e::Constant(0.0)};
  const std::vector<double> params(kNumParameters, 0.0);
  SimulationConfig config;
  const auto predicted =
      Simulate(equations, params, dataset, 0, 15,
               ConstituentSet::LegacyPlankton(), {5.0, 1.0}, config, true)
          .series[0];
  for (double p : predicted) {
    EXPECT_TRUE(std::isfinite(p));
    EXPECT_LE(p, config.state_max);
  }
  EXPECT_DOUBLE_EQ(predicted.back(), config.state_max);
}


TEST(SimulateTest, Rk4MatchesExponentialDecayClosely) {
  const RiverDataset dataset = TinyDataset(30);
  // dB/dt = -0.5 B: analytic B(t) = 5 e^{-0.5 t}. RK4 with 1 substep/day
  // must be far more accurate than Euler with 1 substep/day.
  const std::vector<e::ExprPtr> equations{
      e::Mul(e::Constant(-0.5), e::Variable(kBPhy, "B")), e::Constant(0.0)};
  const std::vector<double> params(kNumParameters, 0.0);
  SimulationConfig euler;
  euler.method = IntegrationMethod::kEuler;
  euler.substeps = 1;
  SimulationConfig rk4;
  rk4.method = IntegrationMethod::kRk4;
  rk4.substeps = 1;
  const ConstituentSet plankton = ConstituentSet::LegacyPlankton();
  const auto pe = Simulate(equations, params, dataset, 0, 30, plankton,
                           {5.0, 1.0}, euler, true)
                      .series[0];
  const auto pr = Simulate(equations, params, dataset, 0, 30, plankton,
                           {5.0, 1.0}, rk4, true)
                      .series[0];
  double euler_err = 0.0;
  double rk4_err = 0.0;
  for (std::size_t t = 0; t < 30; ++t) {
    const double exact = 5.0 * std::exp(-0.5 * static_cast<double>(t + 1));
    // The clamp floor (0.01) kicks in late in the decay; stop comparing.
    if (exact < 0.02) break;
    euler_err = std::max(euler_err, std::fabs(pe[t] - exact));
    rk4_err = std::max(rk4_err, std::fabs(pr[t] - exact));
  }
  EXPECT_LT(rk4_err, euler_err / 50.0);
}

TEST(SimulateTest, Rk4AgreesWithEulerOnLinearDynamics) {
  const RiverDataset dataset = TinyDataset(10);
  // Constant derivative: both schemes are exact and identical.
  const std::vector<e::ExprPtr> equations{e::Constant(2.0),
                                          e::Constant(0.0)};
  const std::vector<double> params(kNumParameters, 0.0);
  SimulationConfig euler;
  SimulationConfig rk4;
  rk4.method = IntegrationMethod::kRk4;
  const ConstituentSet plankton = ConstituentSet::LegacyPlankton();
  const auto a = Simulate(equations, params, dataset, 0, 10, plankton,
                          {5.0, 1.0}, euler, true)
                     .series[0];
  const auto b = Simulate(equations, params, dataset, 0, 10, plankton,
                          {5.0, 1.0}, rk4, true)
                     .series[0];
  for (std::size_t t = 0; t < 10; ++t) EXPECT_NEAR(a[t], b[t], 1e-12);
}

TEST(SimulateTest, InterpretedAndCompiledBackendsAgree) {
  const RiverDataset dataset = TinyDataset(30);
  const auto equations = ManualProcess();
  const auto params = gp::PriorMeans(RiverParameterPriors());
  const ConstituentSet plankton = ConstituentSet::LegacyPlankton();
  const auto a = Simulate(equations, params, dataset, 0, 30, plankton,
                          {5.0, 1.0}, SimulationConfig{}, true)
                     .series[0];
  const auto b = Simulate(equations, params, dataset, 0, 30, plankton,
                          {5.0, 1.0}, SimulationConfig{}, false)
                     .series[0];
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) EXPECT_DOUBLE_EQ(a[t], b[t]);
}

TEST(RiverFitnessTest, RunningRmseMatchesBatchSimulation) {
  const RiverDataset dataset = TinyDataset(40);
  const auto equations = ManualProcess();
  const auto params = gp::PriorMeans(RiverParameterPriors());
  const RiverFitness fitness = RiverFitness::ForTraining(&dataset);
  auto eval = fitness.Begin(equations, params, /*compiled=*/true);
  while (eval->steps_taken() < fitness.num_cases()) {
    if (!eval->Step()) break;
  }
  EXPECT_EQ(eval->steps_taken(), dataset.train_end);

  const auto predicted =
      Simulate(equations, params, dataset, 0, dataset.train_end,
               ConstituentSet::LegacyPlankton(), {5.0, 1.0},
               SimulationConfig{}, true)
          .series[0];
  const std::vector<double> observed(
      dataset.observed_bphy.begin(),
      dataset.observed_bphy.begin() +
          static_cast<std::ptrdiff_t>(dataset.train_end));
  EXPECT_NEAR(eval->CurrentFitness(), Rmse(predicted, observed), 1e-12);
}

TEST(RiverFitnessTest, TestRangeUsesTestInitialState) {
  RiverDataset dataset = TinyDataset(40);
  dataset.test_initial_bphy = 9.0;
  const RiverFitness fitness = RiverFitness::ForTest(&dataset);
  EXPECT_EQ(fitness.num_cases(), dataset.num_days - dataset.train_end);
  const std::vector<e::ExprPtr> equations{e::Constant(0.0),
                                          e::Constant(0.0)};
  const std::vector<double> params(kNumParameters, 0.0);
  auto eval = fitness.Begin(equations, params, true);
  eval->Step();
  // Observed is 5, state pinned at 9 -> running RMSE 4.
  EXPECT_NEAR(eval->CurrentFitness(), 4.0, 1e-12);
}

// ------------------------------------------------------------ dataset -----

TEST(DatasetTest, CsvRoundTrip) {
  SyntheticConfig config;
  config.years = 2;
  config.train_years = 1;
  config.seed = 5;
  const RiverDataset dataset = GenerateNakdongLike(config);
  const CsvTable table = dataset.ToCsv();
  EXPECT_EQ(table.rows.size(), dataset.num_days);

  RiverDataset loaded;
  ASSERT_TRUE(RiverDataset::FromCsv(table, dataset.train_end, &loaded));
  EXPECT_EQ(loaded.num_days, dataset.num_days);
  EXPECT_EQ(loaded.train_end, dataset.train_end);
  for (int slot : ObservedVariableSlots()) {
    const auto s = static_cast<std::size_t>(slot);
    ASSERT_EQ(loaded.drivers[s].size(), dataset.drivers[s].size());
    EXPECT_DOUBLE_EQ(loaded.drivers[s][100], dataset.drivers[s][100]);
  }
  EXPECT_DOUBLE_EQ(loaded.observed_bphy[50], dataset.observed_bphy[50]);
}

TEST(DatasetTest, FromCsvRejectsBadSchema) {
  CsvTable table;
  table.column_names = {"day", "oops"};
  table.rows = {{0.0, 1.0}};
  RiverDataset dataset;
  EXPECT_FALSE(RiverDataset::FromCsv(table, 1, &dataset));
}

}  // namespace
}  // namespace gmr::river
