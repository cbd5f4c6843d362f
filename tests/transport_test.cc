// Multi-constituent transport tests (ctest labels `transport` + `prop`):
// the constituent registry's typed validation, the legacy two-species
// preset's 0-ULP differential oracle (training fitness vs rollout),
// compiled-vs-interpreted RK4 trajectories, channel mass conservation
// under both advection schemes (including watchdog aborts) and pinned
// channel bits, and a small end-to-end GMR revision of the five-species
// scenario with a checkpoint/resume round trip.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/snapshot.h"
#include "core/gmr.h"
#include "core/transport_grammar.h"
#include "expr/ast.h"
#include "expr/batch_jit.h"
#include "expr/jit.h"
#include "expr/print.h"
#include "gp/parameter_prior.h"
#include "obs/run_context.h"
#include "river/biology.h"
#include "river/chemistry.h"
#include "river/constituents.h"
#include "river/parameters.h"
#include "river/simulate.h"
#include "river/synthetic.h"
#include "river/transport.h"
#include "river/variables.h"

namespace gmr::river {
namespace {

namespace e = gmr::expr;
namespace fs = std::filesystem;

// ------------------------------------------------------------- helpers ----

RiverDataset SmallDataset() {
  SyntheticConfig config;
  config.years = 3;
  config.train_years = 2;
  config.seed = 7;
  return GenerateNakdongLike(config);
}

TransportScenario SmallScenario(int num_species) {
  SyntheticConfig config;
  config.years = 3;
  config.train_years = 2;
  config.seed = 21;
  return GenerateTransportScenario(config, num_species);
}

std::uint64_t Bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// Exact bit equality of two trajectories — the 0-ULP oracle.
void ExpectBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(Bits(a[i]), Bits(b[i])) << what << " diverges at day " << i
                                      << ": " << a[i] << " vs " << b[i];
  }
}

// -------------------------------------------------- registry validation ----

TEST(ConstituentSetTest, TypedValidationErrors) {
  ConstituentSet set;
  EXPECT_EQ(set.Validate().code, ConfigErrorCode::kEmptySet);

  EXPECT_EQ(set.Add({"", analysis::Dim::Concentration(), 1.0, 1.0, -1}).code,
            ConfigErrorCode::kEmptyName);
  ASSERT_TRUE(set.Add({"M_NO3", analysis::Dim::Concentration(), 2.0, 2.0, 0})
                  .ok());
  EXPECT_EQ(
      set.Add({"M_NO3", analysis::Dim::Concentration(), 1.0, 1.0, -1}).code,
      ConfigErrorCode::kDuplicateName);
  Constituent bad{"M_NH4", analysis::Dim::Concentration(),
                  std::nan(""), 1.0, -1};
  EXPECT_EQ(set.Add(bad).code, ConfigErrorCode::kBadInitialState);
  EXPECT_TRUE(set.Validate().ok());
}

TEST(ConstituentSetTest, SpeciesCountMismatchIsTyped) {
  const ConstituentSet set = ConstituentSet::Transport(5);
  SimulationConfig config;
  config.num_species = 2;  // Stale legacy default against a 5-species set.
  const auto equations = TransportProcess(set);
  const ConfigError err = ValidateSimulation(config, set, equations.size());
  EXPECT_EQ(err.code, ConfigErrorCode::kSpeciesCountMismatch);
  EXPECT_NE(err.message.find("num_species"), std::string::npos);

  config.num_species = 5;
  EXPECT_TRUE(ValidateSimulation(config, set, equations.size()).ok());
  // Equation count disagreeing with the registry is the same typed error.
  EXPECT_EQ(ValidateSimulation(config, set, 2).code,
            ConfigErrorCode::kSpeciesCountMismatch);
}

// ------------------------------------------ numeric config validation ----

TEST(SimulationConfigTest, SubstepsBelowOneAreTyped) {
  const ConstituentSet set = ConstituentSet::Transport(5);
  SimulationConfig config;
  config.num_species = 5;
  for (const int substeps : {0, -1}) {
    config.substeps = substeps;
    const ConfigError err = ValidateSimulation(config, set, 5);
    EXPECT_EQ(err.code, ConfigErrorCode::kBadSubsteps) << substeps;
    EXPECT_NE(err.message.find("substeps"), std::string::npos);
  }
  config.substeps = 1;
  EXPECT_TRUE(ValidateSimulation(config, set, 5).ok());
}

TEST(SimulationConfigTest, NonFiniteOrInvertedStateBoundsAreTyped) {
  const ConstituentSet set = ConstituentSet::Transport(5);
  const double inf = std::numeric_limits<double>::infinity();
  const double bounds[][2] = {
      {std::nan(""), 1e4}, {0.01, inf}, {-inf, 1e4}, {5.0, 1.0}, {2.0, 2.0}};
  for (const auto& b : bounds) {
    SimulationConfig config;
    config.num_species = 5;
    config.state_min = b[0];
    config.state_max = b[1];
    EXPECT_EQ(ValidateSimulation(config, set, 5).code,
              ConfigErrorCode::kBadStateBounds)
        << b[0] << ", " << b[1];
  }
  SimulationConfig config;
  config.num_species = 5;
  config.state_min = -1.0;
  config.state_max = 1.0;
  EXPECT_TRUE(ValidateSimulation(config, set, 5).ok());
}

TEST(SimulationConfigTest, NegativeWatchdogLimitsAreTyped) {
  const ConstituentSet set = ConstituentSet::Transport(5);
  SimulationConfig config;
  config.num_species = 5;
  config.max_nonfinite_derivatives = -1;
  EXPECT_EQ(ValidateSimulation(config, set, 5).code,
            ConfigErrorCode::kNegativeWatchdogLimit);
  config.max_nonfinite_derivatives = 0;  // 0 disables; not an error.
  config.max_saturated_substeps = -3;
  EXPECT_EQ(ValidateSimulation(config, set, 5).code,
            ConfigErrorCode::kNegativeWatchdogLimit);
  config.max_saturated_substeps = 0;
  EXPECT_TRUE(ValidateSimulation(config, set, 5).ok());
}

TEST(SimulationConfigDeathTest, SimulateRefusesZeroSubsteps) {
  // Before validation, substeps = 0 integrated nothing: a flat trajectory
  // with substeps_used 0 and no abort.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const TransportScenario scenario = SmallScenario(5);
  const auto equations = TransportProcess(scenario.constituents);
  SimulationConfig config;
  config.num_species = 5;
  config.method = IntegrationMethod::kRk4;
  config.substeps = 0;
  EXPECT_DEATH(Simulate(equations, scenario.true_parameters,
                        scenario.dataset, 0, 10, scenario.constituents,
                        scenario.constituents.InitialStates(), config,
                        /*compiled=*/true),
               "bad|substeps");
}

TEST(ConstituentSetTest, ObservationAndLaneValidation) {
  const RiverDataset dataset = SmallDataset();
  ConstituentSet set = ConstituentSet::Transport(2);
  EXPECT_TRUE(ValidateObservations(set, dataset).ok());
  set.mutable_at(0).observed_series = 7;  // No such series in the dataset.
  EXPECT_EQ(ValidateObservations(set, dataset).code,
            ConfigErrorCode::kBadObservedSeries);
}

TEST(ConstituentSetTest, TransportRegistryLayout) {
  const ConstituentSet set = ConstituentSet::Transport(5);
  EXPECT_EQ(set.preset(), "transport5");
  ASSERT_EQ(set.size(), 5u);
  EXPECT_EQ(set.at(0).name, "M_NO3");
  EXPECT_EQ(set.at(4).name, "M_SED");
  EXPECT_EQ(set.num_variables(), 5u + kNumDriverVariables);
  // Drivers keep the legacy order after the states: V_lgt is first.
  EXPECT_EQ(set.driver_slot(0), 5);
  EXPECT_EQ(set.VariableNames()[5], VariableName(kVlgt));
  EXPECT_EQ(set.PrimaryObserved(), 0);
  const auto observed = set.ObservedConstituents();
  ASSERT_EQ(observed.size(), 2u);  // Nitrate + sediment.
  EXPECT_EQ(observed[0], 0);
  EXPECT_EQ(observed[1], 4);
  EXPECT_EQ(set.num_parameters(),
            static_cast<std::size_t>(kNumTransportParameters));
  EXPECT_EQ(set.parameter_dims().size(), set.num_parameters());

  // Truncated registries observe nitrate only and share the full parameter
  // table (slots stay stable across species counts).
  const ConstituentSet two = ConstituentSet::Transport(2);
  EXPECT_EQ(two.preset(), "transport2");
  EXPECT_EQ(two.ObservedConstituents().size(), 1u);
  EXPECT_EQ(two.num_parameters(), set.num_parameters());
  EXPECT_EQ(TransportProcess(two).size(), 2u);
}

TEST(ConstituentSetTest, LegacyPlanktonPinsHistoricalLayout) {
  const ConstituentSet legacy = ConstituentSet::LegacyPlankton();
  EXPECT_EQ(legacy.preset(), "plankton2");
  ASSERT_EQ(legacy.size(), 2u);
  EXPECT_EQ(legacy.at(0).name, "B_Phy");
  EXPECT_EQ(legacy.at(1).name, "B_Zoo");
  EXPECT_EQ(legacy.at(1).observed_series, -1);  // Zooplankton is latent.
  const auto names = legacy.VariableNames();
  ASSERT_EQ(names.size(), static_cast<std::size_t>(kNumVariables));
  for (int v = 0; v < kNumVariables; ++v) {
    EXPECT_EQ(names[static_cast<std::size_t>(v)], VariableName(v));
  }
}

// ----------------------------------- legacy 0-ULP differential oracle ----

TEST(LegacyPresetTest, TrainingFitnessMatchesSimulateBitwise) {
  // RiverFitness::ForTraining builds the legacy preset from the dataset's
  // initial states; its running RMSE must be the RMSE of the generic
  // rollout's B_Phy series, bit for bit, on both evaluation paths.
  const RiverDataset dataset = SmallDataset();
  const auto equations = ManualProcess();
  const auto parameters = gp::PriorMeans(RiverParameterPriors());
  const ConstituentSet legacy = ConstituentSet::LegacyPlankton(
      dataset.initial_bphy, dataset.initial_bzoo, dataset.test_initial_bphy,
      dataset.test_initial_bzoo);
  const std::vector<double> initial = {dataset.initial_bphy,
                                       dataset.initial_bzoo};
  const RiverFitness fitness = RiverFitness::ForTraining(&dataset);
  for (const bool compiled : {false, true}) {
    const SimulationTrajectory rollout =
        Simulate(equations, parameters, dataset, 0, dataset.train_end, legacy,
                 initial, SimulationConfig{}, compiled);
    ASSERT_EQ(rollout.series.size(), 2u);
    double sse = 0.0;
    for (std::size_t t = 0; t < dataset.train_end; ++t) {
      const double error = rollout.series[0][t] - dataset.observed_bphy[t];
      sse += error * error;
    }
    auto eval = fitness.Begin(equations, parameters, compiled);
    while (eval->Step()) {
    }
    EXPECT_EQ(Bits(eval->CurrentFitness()),
              Bits(std::sqrt(sse / static_cast<double>(dataset.train_end))))
        << (compiled ? "compiled" : "interpreted");
  }
}

TEST(LegacyPresetTest, AccuracyOverloadsAgreeBitwise) {
  const RiverDataset dataset = SmallDataset();
  const auto equations = ManualProcess();
  const auto parameters = gp::PriorMeans(RiverParameterPriors());
  const core::AccuracyReport legacy = core::EvaluateAccuracy(
      equations, parameters, dataset, SimulationConfig{});
  const core::AccuracyReport generic = core::EvaluateAccuracy(
      equations, parameters, dataset, SimulationConfig{},
      ConstituentSet::LegacyPlankton(dataset.initial_bphy, dataset.initial_bzoo,
                                     dataset.test_initial_bphy,
                                     dataset.test_initial_bzoo));
  EXPECT_EQ(Bits(legacy.train_rmse), Bits(generic.train_rmse));
  EXPECT_EQ(Bits(legacy.train_mae), Bits(generic.train_mae));
  EXPECT_EQ(Bits(legacy.test_rmse), Bits(generic.test_rmse));
  EXPECT_EQ(Bits(legacy.test_mae), Bits(generic.test_mae));
}

// -------------------------------------------- compiled vs interpreted ----

void ExpectSameReport(const SimulationReport& a, const SimulationReport& b,
                      const char* what) {
  EXPECT_EQ(a.outcome, b.outcome) << what;
  EXPECT_EQ(a.aborted, b.aborted) << what;
  EXPECT_EQ(a.jit_fallback, b.jit_fallback) << what;
  EXPECT_EQ(a.substeps_used, b.substeps_used) << what;
  EXPECT_EQ(a.days_simulated, b.days_simulated) << what;
  EXPECT_EQ(a.days_before_abort, b.days_before_abort) << what;
  EXPECT_EQ(a.nonfinite_derivatives, b.nonfinite_derivatives) << what;
  EXPECT_EQ(a.clamp_saturations, b.clamp_saturations) << what;
}

TEST(TransportSimulateTest, CompiledMatchesInterpreterBitwiseUnderRk4) {
  // The 5-species RK4 registry, once with the expert process, once with a
  // revised candidate whose added terms read only drivers and constants
  // (the program runs them once per day), and once with a candidate whose
  // nitrate process saturates the clamp until the watchdog aborts: the
  // rollout's system program must reproduce the interpreter's trajectory
  // bits and its SimulationReport exactly.
  const TransportScenario scenario = SmallScenario(5);
  std::vector<e::ExprPtr> expert = TransportProcess(scenario.constituents);
  const e::ExprPtr v_tmp =
      e::Variable(scenario.constituents.driver_slot(kVtmp - kVlgt), "V_tmp");
  std::vector<e::ExprPtr> revised = expert;
  revised[0] =
      e::Add(expert[0], e::Exp(e::Mul(v_tmp, e::Constant(0.03))));
  revised[1] = e::Sub(TransportGain(scenario.constituents, 1),
                      e::Mul(e::Mul(v_tmp, e::Constant(0.05)),
                             TransportLoss(scenario.constituents, 1)));
  std::vector<e::ExprPtr> divergent = expert;
  divergent[0] = e::Mul(e::Constant(1e6), e::Variable(0, "M_NO3"));
  SimulationConfig config;
  config.num_species = 5;
  config.method = IntegrationMethod::kRk4;
  const std::vector<double> initial = scenario.constituents.InitialStates();

  bool saw_abort = false;
  for (const std::vector<e::ExprPtr>* equations :
       {&expert, &revised, &divergent}) {
    SimulationReport want_report;
    const SimulationTrajectory want = Simulate(
        *equations, scenario.true_parameters, scenario.dataset, 0,
        scenario.dataset.train_end, scenario.constituents, initial, config,
        /*compiled=*/false, &want_report);
    saw_abort = saw_abort || want_report.aborted;

    SimulationReport got_report;
    const SimulationTrajectory got = Simulate(
        *equations, scenario.true_parameters, scenario.dataset, 0,
        scenario.dataset.train_end, scenario.constituents, initial, config,
        /*compiled=*/true, &got_report);
    ASSERT_EQ(got.series.size(), want.series.size());
    for (std::size_t s = 0; s < want.series.size(); ++s) {
      ExpectBitIdentical(want.series[s], got.series[s], "bytecode-vm");
    }
    ExpectSameReport(want_report, got_report, "bytecode-vm");
  }
  EXPECT_TRUE(saw_abort) << "the divergent candidate must trip a watchdog";
}

TEST(TransportSimulateTest, TruthParametersTrackNoisyObservations) {
  // The generator's hidden truth should sit well inside the clamp box and
  // produce a trajectory correlated with the observed nitrate series — the
  // signal the end-to-end revision recovers.
  const TransportScenario scenario = SmallScenario(5);
  const auto equations = TransportProcess(scenario.constituents);
  SimulationConfig config;
  config.num_species = 5;
  SimulationReport report;
  const SimulationTrajectory truth = Simulate(
      equations, scenario.true_parameters, scenario.dataset, 0,
      scenario.dataset.train_end, scenario.constituents,
      scenario.constituents.InitialStates(), config, /*compiled=*/true,
      &report);
  EXPECT_FALSE(report.aborted);
  for (const auto& series : truth.series) {
    for (double v : series) {
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_LT(v, config.state_max);
    }
  }
}

// ------------------------------------------------- channel conservation ----

/// |Residual| must vanish relative to the gross mass moved through the
/// budget — the telescoping identity of the discrete update.
void ExpectConserved(const ChannelMassBudget& budget, const char* what) {
  const double scale = std::fabs(budget.initial) + std::fabs(budget.inflow) +
                       std::fabs(budget.outflow) +
                       std::fabs(budget.reaction) +
                       std::fabs(budget.clamp_correction) + 1.0;
  EXPECT_LE(std::fabs(budget.Residual()), 1e-8 * scale) << what;
}

TEST(ChannelConservationTest, BothSchemesConserveMass) {
  const TransportScenario scenario = SmallScenario(5);
  const auto equations = TransportProcess(scenario.constituents);
  SimulationConfig config;
  config.num_species = 5;

  for (AdvectionScheme scheme :
       {AdvectionScheme::kUpwind, AdvectionScheme::kQuick}) {
    ChannelConfig channel;
    channel.scheme = scheme;
    channel.num_cells = 6;
    ASSERT_TRUE(ValidateChannel(channel, scenario.constituents, config).ok());
    // Explicit stepping must be inside the stability region.
    ASSERT_LT(channel.Courant(config.substeps), 1.0);

    const ChannelResult result = SimulateChannel(
        equations, scenario.true_parameters, scenario.dataset, 0, 120,
        scenario.constituents, config, channel);
    EXPECT_FALSE(result.report.aborted) << AdvectionSchemeName(scheme);
    ASSERT_EQ(result.budgets.size(), 5u);
    ASSERT_EQ(result.outlet.size(), 5u);
    EXPECT_EQ(result.final_state.num_species(), 5u);
    EXPECT_EQ(result.final_state.width(),
              static_cast<std::size_t>(channel.num_cells));
    for (std::size_t s = 0; s < result.budgets.size(); ++s) {
      ExpectConserved(result.budgets[s], AdvectionSchemeName(scheme));
    }
    for (const auto& series : result.outlet) {
      for (double v : series) EXPECT_TRUE(std::isfinite(v));
    }
  }
}

TEST(ChannelConservationTest, BudgetStaysExactAcrossWatchdogAbort) {
  // A deliberately explosive process: d/dt = exp(8 * M_NO3) saturates the
  // clamp within a few days and trips the watchdog. The reach aborts as a
  // unit; the committed-substep budget must still telescope exactly.
  const TransportScenario scenario = SmallScenario(1);
  const std::vector<e::ExprPtr> explosive = {
      e::Exp(e::Mul(e::Constant(8.0), e::Variable(0, "M_NO3")))};
  SimulationConfig config;
  config.num_species = 1;
  config.max_saturated_substeps = 4;

  for (AdvectionScheme scheme :
       {AdvectionScheme::kUpwind, AdvectionScheme::kQuick}) {
    ChannelConfig channel;
    channel.scheme = scheme;
    channel.num_cells = 4;
    const ChannelResult result = SimulateChannel(
        explosive, scenario.true_parameters, scenario.dataset, 0, 60,
        scenario.constituents, config, channel);
    EXPECT_TRUE(result.report.aborted) << AdvectionSchemeName(scheme);
    EXPECT_EQ(result.report.outcome, EvalOutcome::kClampSaturated);
    // The station report rule: every day of the window counts, the abort
    // day is recorded separately.
    EXPECT_EQ(result.report.days_simulated, 60u);
    EXPECT_LT(result.report.days_before_abort, 60u);
    ASSERT_EQ(result.budgets.size(), 1u);
    ExpectConserved(result.budgets[0], AdvectionSchemeName(scheme));
    // Post-abort outlet samples deterministically predict the penalty.
    ASSERT_FALSE(result.outlet[0].empty());
    EXPECT_EQ(result.outlet[0].back(), config.state_max);
  }
}

/// FNV-1a over the bit patterns of every outlet value, final cell, budget
/// term and report counter of one channel rollout.
std::uint64_t ChannelBits(const ChannelResult& result) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const auto& series : result.outlet) {
    for (const double v : series) mix(Bits(v));
  }
  const MassBalanceStore& cells = result.final_state;
  for (std::size_t s = 0; s < cells.num_species(); ++s) {
    for (std::size_t i = 0; i < cells.width(); ++i) mix(Bits(cells.at(s, i)));
  }
  for (const ChannelMassBudget& b : result.budgets) {
    for (const double v : {b.initial, b.final_mass, b.inflow, b.outflow,
                           b.reaction, b.clamp_correction}) {
      mix(Bits(v));
    }
  }
  const SimulationReport& r = result.report;
  for (const std::uint64_t v :
       {static_cast<std::uint64_t>(r.outcome),
        static_cast<std::uint64_t>(r.aborted),
        static_cast<std::uint64_t>(r.jit_fallback),
        static_cast<std::uint64_t>(r.substeps_used),
        static_cast<std::uint64_t>(r.days_simulated),
        static_cast<std::uint64_t>(r.days_before_abort),
        static_cast<std::uint64_t>(r.nonfinite_derivatives),
        static_cast<std::uint64_t>(r.clamp_saturations)}) {
    mix(v);
  }
  return hash;
}

TEST(ChannelConservationTest, OutletAndBudgetBitsArePinned) {
  // Every outlet value, final cell, budget term and report counter of a
  // channel rollout, pinned bit for bit for 1, 2 and 5 species under both
  // schemes: a change to how the cells are evaluated (the VM, its staging,
  // the calls per cell) must leave these hashes unchanged.
  struct Pin {
    int species;
    AdvectionScheme scheme;
    std::uint64_t bits;
  };
  const Pin pins[] = {
      {1, AdvectionScheme::kUpwind, 0x7fdb6253e522861bULL},
      {1, AdvectionScheme::kQuick, 0x4e32fd4174d49298ULL},
      {2, AdvectionScheme::kUpwind, 0x6bedbe42eaf20bb2ULL},
      {2, AdvectionScheme::kQuick, 0x54c2cef1e89379caULL},
      {5, AdvectionScheme::kUpwind, 0x5b84a906b1f4b4bfULL},
      {5, AdvectionScheme::kQuick, 0x1d11ccdde0af92f0ULL},
  };
  for (const Pin& pin : pins) {
    const TransportScenario scenario = SmallScenario(pin.species);
    SimulationConfig config;
    config.num_species = pin.species;
    ChannelConfig channel;
    channel.scheme = pin.scheme;
    channel.num_cells = 6;
    const ChannelResult result = SimulateChannel(
        TransportProcess(scenario.constituents), scenario.true_parameters,
        scenario.dataset, 0, 60, scenario.constituents, config, channel);
    EXPECT_EQ(ChannelBits(result), pin.bits)
        << pin.species << " species, " << AdvectionSchemeName(pin.scheme)
        << std::hex << ": got 0x" << ChannelBits(result);
  }
}

TEST(ChannelConservationTest, GeometryValidationIsTyped) {
  const ConstituentSet set = ConstituentSet::Transport(2);
  const SimulationConfig config;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    const char* what;
    ChannelConfig channel;
    ConfigErrorCode code;
  };
  std::vector<Case> cases;
  const auto add = [&](const char* what, ConfigErrorCode code, auto mutate) {
    Case c{what, ChannelConfig{}, code};
    mutate(c.channel);
    cases.push_back(c);
  };
  add("default", ConfigErrorCode::kNone, [](ChannelConfig&) {});
  add("no cells", ConfigErrorCode::kBadChannelConfig,
      [](ChannelConfig& c) { c.num_cells = 0; });
  add("zero dx", ConfigErrorCode::kBadChannelConfig,
      [](ChannelConfig& c) { c.dx = 0.0; });
  add("infinite dx", ConfigErrorCode::kBadChannelConfig,
      [&](ChannelConfig& c) { c.dx = inf; });
  add("NaN dx", ConfigErrorCode::kBadChannelConfig,
      [&](ChannelConfig& c) { c.dx = nan; });
  add("negative velocity", ConfigErrorCode::kBadChannelConfig,
      [](ChannelConfig& c) { c.velocity = -1.0; });
  add("infinite velocity", ConfigErrorCode::kBadChannelConfig,
      [&](ChannelConfig& c) { c.velocity = inf; });
  add("negative dispersion", ConfigErrorCode::kBadChannelConfig,
      [](ChannelConfig& c) { c.dispersion = -1.0; });
  add("infinite dispersion", ConfigErrorCode::kBadChannelConfig,
      [&](ChannelConfig& c) { c.dispersion = inf; });
  add("short inflow", ConfigErrorCode::kSpeciesCountMismatch,
      [](ChannelConfig& c) { c.inflow = {1.0}; });
  add("NaN inflow", ConfigErrorCode::kBadInitialState,
      [&](ChannelConfig& c) { c.inflow = {1.0, nan}; });
  add("infinite inflow", ConfigErrorCode::kBadInitialState,
      [&](ChannelConfig& c) { c.inflow = {inf, 0.5}; });
  add("finite inflow", ConfigErrorCode::kNone,
      [](ChannelConfig& c) { c.inflow = {1.0, 0.5}; });
  for (const Case& c : cases) {
    EXPECT_EQ(ValidateChannel(c.channel, set, config).code, c.code) << c.what;
  }
  EXPECT_STREQ(ConfigErrorCodeName(ConfigErrorCode::kBadChannelConfig),
               "bad_channel_config");
}

TEST(ChannelConservationTest, Rk4IsRejectedWithATypedCode) {
  // The mass budget telescopes per forward Euler substep; the channel
  // refuses RK4 rather than silently stepping Euler.
  SimulationConfig config;
  config.method = IntegrationMethod::kRk4;
  EXPECT_EQ(ValidateChannel(ChannelConfig{}, ConstituentSet::Transport(2),
                            config)
                .code,
            ConfigErrorCode::kBadChannelConfig);
}

TEST(ChannelConservationTest, BatchJitChannelMatchesVm) {
  if (!e::JitAvailable()) GTEST_SKIP() << "no C compiler";
  const TransportScenario scenario = SmallScenario(2);
  const auto equations = TransportProcess(scenario.constituents);
  e::JitCircuitBreaker breaker;
  e::BatchJitSession session(&breaker);
  SimulationConfig vm_config;
  vm_config.num_species = 2;
  SimulationConfig jit_config = vm_config;
  jit_config.compiled_backend = CompiledBackend::kBatchJit;
  jit_config.batch_jit_session = &session;
  ChannelConfig channel;
  channel.num_cells = 5;

  const ChannelResult vm =
      SimulateChannel(equations, scenario.true_parameters, scenario.dataset,
                      0, 60, scenario.constituents, vm_config, channel);
  const ChannelResult jit =
      SimulateChannel(equations, scenario.true_parameters, scenario.dataset,
                      0, 60, scenario.constituents, jit_config, channel);
  EXPECT_GE(session.stats().tu_compiles, 1u);
  EXPECT_FALSE(jit.report.jit_fallback);
  EXPECT_EQ(jit.report.outcome, vm.report.outcome);
  ASSERT_EQ(jit.outlet.size(), vm.outlet.size());
  for (std::size_t s = 0; s < vm.outlet.size(); ++s) {
    ASSERT_EQ(jit.outlet[s].size(), vm.outlet[s].size());
    for (std::size_t t = 0; t < vm.outlet[s].size(); ++t) {
      // The batch JIT has a ULP budget against the VM.
      EXPECT_NEAR(jit.outlet[s][t], vm.outlet[s][t],
                  1e-9 * std::abs(vm.outlet[s][t]) + 1e-12)
          << "species " << s << " day " << t;
    }
  }
}

// ------------------------------------------------------- fitness widths ----

TEST(TransportFitnessTest, StateAndParameterWidthsFollowRegistry) {
  const TransportScenario scenario = SmallScenario(5);
  const RiverFitness fitness = RiverFitness::ForTrainingWith(
      &scenario.dataset, scenario.constituents);
  EXPECT_EQ(fitness.num_states(), 5u);
  EXPECT_EQ(fitness.num_parameters(),
            static_cast<std::size_t>(kNumTransportParameters));
  EXPECT_EQ(fitness.num_cases(), scenario.dataset.train_end);

  const RiverDataset dataset = SmallDataset();
  const RiverFitness legacy = RiverFitness::ForTraining(&dataset);
  EXPECT_EQ(legacy.num_states(), 2u);
}

// --------------------------------------------- end-to-end GMR + resume ----

core::GmrConfig TinyGmrConfig() {
  core::GmrConfig config;
  config.tag3p.population_size = 12;
  config.tag3p.max_generations = 3;
  config.tag3p.local_search_steps = 1;
  config.tag3p.sigma_rampdown_generations = 2;
  config.tag3p.seed = 33;
  return config;
}

std::string FreshDir(const std::string& name) {
  const std::string path = testing::TempDir() + "/transport_test_" + name;
  std::error_code ignore;
  fs::remove_all(path, ignore);
  fs::create_directories(path);
  return path;
}

/// DescribeModel text + bitwise accuracy: a complete digest of one run.
std::string Digest(const core::GmrRunResult& result,
                   const ConstituentSet& constituents) {
  std::string digest = core::DescribeModel(result.best_equations,
                                           constituents);
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), "\ntrain=%llx test=%llx",
                static_cast<unsigned long long>(Bits(result.train_rmse)),
                static_cast<unsigned long long>(Bits(result.test_rmse)));
  return digest + buffer;
}

TEST(TransportEndToEndTest, FiveSpeciesGmrRunsAndResumesIdentically) {
  const TransportScenario scenario = SmallScenario(5);
  const core::RiverPriorKnowledge knowledge =
      core::BuildTransportPriorKnowledge(scenario.constituents);
  EXPECT_EQ(knowledge.priors.size(),
            static_cast<std::size_t>(kNumTransportParameters));

  const core::GmrConfig config = TinyGmrConfig();
  const core::GmrProblem problem{&scenario.dataset, &knowledge,
                                 &scenario.constituents};
  const std::string dir = FreshDir("resume5");

  auto run_segment = [&] {
    ckpt::CheckpointOptions options;
    options.dir = dir;
    options.every_steps = 1;
    options.retain = 64;
    ckpt::Checkpointer checkpointer(options);
    obs::RunContext context;
    context.checkpointer = &checkpointer;
    return core::RunGmr(config, problem, context);
  };

  const core::GmrRunResult full = run_segment();
  ASSERT_EQ(full.best_equations.size(), 5u);
  EXPECT_TRUE(std::isfinite(full.train_rmse));
  EXPECT_TRUE(std::isfinite(full.test_rmse));
  const std::string description =
      core::DescribeModel(full.best_equations, scenario.constituents);
  EXPECT_NE(description.find("dM_NO3/dt"), std::string::npos);
  EXPECT_NE(description.find("dM_SED/dt"), std::string::npos);

  // Rewind the snapshot store to a mid-run step, as if the process had
  // been killed there, and rerun: the continuation must reproduce the
  // uninterrupted result bit-identically.
  {
    ckpt::SnapshotStore store(dir, /*retain=*/64);
    ASSERT_GE(store.entries().size(), 2u);
    const std::uint64_t mid =
        store.entries()[(store.entries().size() - 1) / 2].step;
    ASSERT_TRUE(store.DropNewerThan(mid).ok());
  }
  const core::GmrRunResult resumed = run_segment();
  EXPECT_EQ(Digest(full, scenario.constituents),
            Digest(resumed, scenario.constituents));
}

}  // namespace
}  // namespace gmr::river
