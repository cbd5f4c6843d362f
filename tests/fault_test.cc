// Fault-containment tests: the GMR_FAULT injection harness, divergence
// watchdogs in the river simulator, exception-safe thread-pool batches,
// and the structured EvalOutcome taxonomy threaded through the evaluator.
// Labeled `fault` and `tsan` in ctest.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "expr/eval.h"
#include "gp/evaluator.h"
#include "river/parameters.h"
#include "river/simulate.h"
#include "river/variables.h"
#include "tag/generate.h"

namespace gmr {
namespace {

namespace e = gmr::expr;
namespace t = gmr::tag;

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

// ------------------------------------------------------------ spec layer ----

TEST(FaultInjectionTest, PointNamesRoundTrip) {
  EXPECT_STREQ(FaultPointName(FaultPoint::kTapeAlloc), "tape_alloc");
  EXPECT_STREQ(FaultPointName(FaultPoint::kDerivativeNan), "derivative_nan");
  EXPECT_STREQ(FaultPointName(FaultPoint::kPoolTask), "pool_task");
}

TEST(FaultInjectionTest, MalformedSpecsAreRejected) {
  std::string error;
  EXPECT_FALSE(SetFaultSpec("bogus_point:always", &error));
  EXPECT_NE(error.find("bogus_point"), std::string::npos);
  // Retired points are unknown names.
  EXPECT_FALSE(SetFaultSpec("jit_compile:always", &error));
  EXPECT_NE(error.find("jit_compile"), std::string::npos);
  EXPECT_FALSE(SetFaultSpec("batch_compile:always", &error));
  EXPECT_NE(error.find("batch_compile"), std::string::npos);
  EXPECT_FALSE(SetFaultSpec("tape_alloc:maybe", &error));
  EXPECT_FALSE(SetFaultSpec("tape_alloc", &error));
  EXPECT_FALSE(SetFaultSpec("tape_alloc:prob:1.5", &error));
  EXPECT_FALSE(SetFaultSpec("tape_alloc:prob:0.5:notanumber", &error));
  EXPECT_FALSE(SetFaultSpec("tape_alloc:first:xyz", &error));
  // A rejected spec leaves everything disarmed.
  EXPECT_FALSE(AnyFaultArmed());
  ClearFaults();
}

TEST(FaultInjectionTest, AlwaysNeverOnceModes) {
  {
    ScopedFault fault("derivative_nan:always,pool_task:never");
    EXPECT_TRUE(AnyFaultArmed());
    EXPECT_TRUE(FaultInjected(FaultPoint::kDerivativeNan));
    EXPECT_TRUE(FaultInjected(FaultPoint::kDerivativeNan));
    EXPECT_FALSE(FaultInjected(FaultPoint::kPoolTask));
    EXPECT_FALSE(FaultInjected(FaultPoint::kTapeAlloc));
  }
  EXPECT_FALSE(AnyFaultArmed());
  {
    ScopedFault fault("tape_alloc:once");
    EXPECT_TRUE(FaultInjected(FaultPoint::kTapeAlloc));
    EXPECT_FALSE(FaultInjected(FaultPoint::kTapeAlloc));
  }
}

TEST(FaultInjectionTest, FirstAndAfterThresholds) {
  {
    ScopedFault fault("derivative_nan:first:3");
    for (int call = 0; call < 8; ++call) {
      EXPECT_EQ(FaultInjected(FaultPoint::kDerivativeNan), call < 3)
          << "call " << call;
    }
  }
  {
    ScopedFault fault("derivative_nan:after:3");
    for (int call = 0; call < 8; ++call) {
      EXPECT_EQ(FaultInjected(FaultPoint::kDerivativeNan), call >= 3)
          << "call " << call;
    }
  }
}

TEST(FaultInjectionTest, ProbModeIsSeededAndDeterministic) {
  std::vector<bool> pattern;
  {
    ScopedFault fault("pool_task:prob:0.5:123");
    for (int call = 0; call < 200; ++call) {
      pattern.push_back(FaultInjected(FaultPoint::kPoolTask));
    }
  }
  const std::size_t fired =
      static_cast<std::size_t>(std::count(pattern.begin(), pattern.end(),
                                          true));
  EXPECT_GT(fired, 50u);
  EXPECT_LT(fired, 150u);
  // Re-arming the same spec replays the identical firing pattern.
  {
    ScopedFault fault("pool_task:prob:0.5:123");
    for (std::size_t call = 0; call < pattern.size(); ++call) {
      EXPECT_EQ(FaultInjected(FaultPoint::kPoolTask), pattern[call])
          << "call " << call;
    }
  }
  // A different seed yields a different pattern.
  {
    ScopedFault fault("pool_task:prob:0.5:124");
    std::vector<bool> other;
    for (std::size_t call = 0; call < pattern.size(); ++call) {
      other.push_back(FaultInjected(FaultPoint::kPoolTask));
    }
    EXPECT_NE(other, pattern);
  }
}

// ------------------------------------------------------------ thread pool ----

TEST(ThreadPoolFaultTest, ThrowingBodyIsContained) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 64;
  std::vector<std::atomic<int>> ran(kN);
  const std::vector<TaskFailure> failures =
      pool.ParallelFor(kN, [&ran](std::size_t i, int) {
        if (i == 3) throw std::runtime_error("boom 3");
        ran[i].fetch_add(1, std::memory_order_relaxed);
      });
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].index, 3u);
  EXPECT_EQ(failures[0].message, "boom 3");
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(ran[i].load(), i == 3 ? 0 : 1) << "index " << i;
  }
  // The pool stays fully usable after a contained failure.
  std::atomic<int> total{0};
  EXPECT_TRUE(pool.ParallelFor(10, [&total](std::size_t, int) {
                    total.fetch_add(1, std::memory_order_relaxed);
                  })
                  .empty());
  EXPECT_EQ(total.load(), 10);
}

TEST(ThreadPoolFaultTest, FailuresAreSortedByIndex) {
  ThreadPool pool(4);
  const std::vector<TaskFailure> failures =
      pool.ParallelFor(23, [](std::size_t i, int) {
        if (i % 5 == 0) throw std::runtime_error("boom");
      });
  ASSERT_EQ(failures.size(), 5u);
  const std::size_t expected[] = {0, 5, 10, 15, 20};
  for (std::size_t k = 0; k < failures.size(); ++k) {
    EXPECT_EQ(failures[k].index, expected[k]);
  }
}

TEST(ThreadPoolFaultTest, NonStdExceptionGetsGenericMessage) {
  const std::vector<TaskFailure> failures =
      ParallelFor(nullptr, 2, [](std::size_t i) {
        if (i == 1) throw 42;
      });
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].index, 1u);
  EXPECT_EQ(failures[0].message, "unknown exception");
}

TEST(ThreadPoolFaultTest, PoolTaskInjectionFiresInIndexOrderInline) {
  ScopedFault fault("pool_task:first:2");
  ThreadPool single(1);
  std::vector<std::size_t> ran;
  const std::vector<TaskFailure> failures =
      single.ParallelFor(5, [&ran](std::size_t i, int) { ran.push_back(i); });
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_EQ(failures[0].index, 0u);
  EXPECT_EQ(failures[1].index, 1u);
  EXPECT_EQ(failures[0].message, "fault injection: pool_task");
  EXPECT_EQ(ran, (std::vector<std::size_t>{2, 3, 4}));
}

TEST(ThreadPoolFaultTest, FreeHelperContainsThrowsWithoutPool) {
  std::vector<std::size_t> ran;
  const std::vector<TaskFailure> failures =
      ParallelFor(nullptr, 4, [&ran](std::size_t i) {
        if (i == 2) throw std::runtime_error("free boom");
        ran.push_back(i);
      });
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].index, 2u);
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 3}));
}

// --------------------------------------------------------------- simulator ----

river::RiverDataset TinyDataset(std::size_t days) {
  river::RiverDataset dataset;
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

std::vector<double> ZeroParams() {
  return std::vector<double>(river::kNumParameters, 0.0);
}

/// B_Phy series of a compiled two-species rollout over days [0, days) from
/// (5.0, 1.0) with zero parameters, under the legacy plankton preset.
std::vector<double> SimulatePlankton(
    const std::vector<e::ExprPtr>& equations,
    const river::RiverDataset& dataset, std::size_t days,
    const river::SimulationConfig& config,
    river::SimulationReport* report = nullptr) {
  return river::Simulate(equations, ZeroParams(), dataset, 0, days,
                         river::ConstituentSet::LegacyPlankton(), {5.0, 1.0},
                         config, /*compiled=*/true, report)
      .series[0];
}

TEST(SimulatorFaultTest, BenignRunReportsOk) {
  const river::RiverDataset dataset = TinyDataset(20);
  const std::vector<e::ExprPtr> equations{e::Constant(0.1), e::Constant(0.0)};
  river::SimulationReport report;
  const auto predicted =
      SimulatePlankton(equations, dataset, 20, river::SimulationConfig{},
                       &report);
  ASSERT_EQ(predicted.size(), 20u);
  EXPECT_EQ(report.outcome, EvalOutcome::kOk);
  EXPECT_FALSE(report.aborted);
  EXPECT_EQ(report.days_simulated, 20u);
  EXPECT_EQ(report.days_before_abort, 20u);
  EXPECT_EQ(report.substeps_used, 40u);  // 2 substeps/day
  EXPECT_EQ(report.nonfinite_derivatives, 0u);
  EXPECT_EQ(report.clamp_saturations, 0u);
}

TEST(SimulatorFaultTest, ClampIsSignAware) {
  const river::RiverDataset dataset = TinyDataset(10);
  river::SimulationConfig config;
  // A huge NEGATIVE derivative overflows to -inf: the population crashed,
  // so the state must pin to the floor, not teleport to the ceiling (the
  // pre-fix behavior).
  const std::vector<e::ExprPtr> crash{
      e::Mul(e::Constant(-1e308), e::Variable(river::kBPhy, "B")),
      e::Constant(0.0)};
  river::SimulationReport report;
  const auto predicted = SimulatePlankton(crash, dataset, 10, config, &report);
  EXPECT_DOUBLE_EQ(predicted.front(), config.state_min);
  // Floor-pinning is die-off, not divergence: no saturation events.
  EXPECT_EQ(report.clamp_saturations, 0u);
}

TEST(SimulatorFaultTest, NonFiniteDerivativeWatchdogAborts) {
  const river::RiverDataset dataset = TinyDataset(40);
  river::SimulationConfig config;  // max_nonfinite_derivatives = 8
  const std::vector<e::ExprPtr> divergent{
      e::Mul(e::Constant(1e308), e::Variable(river::kBPhy, "B")),
      e::Constant(0.0)};
  river::SimulationReport report;
  const auto predicted =
      SimulatePlankton(divergent, dataset, 40, config, &report);
  EXPECT_EQ(report.outcome, EvalOutcome::kNonFiniteDerivative);
  EXPECT_TRUE(report.aborted);
  EXPECT_EQ(report.nonfinite_derivatives, 8u);
  // The watchdog bounds the work: 8 substeps = 4 days, not 40.
  EXPECT_EQ(report.substeps_used, 8u);
  EXPECT_EQ(report.days_before_abort, 3u);
  // Every day after the abort deterministically predicts the penalty value.
  ASSERT_EQ(predicted.size(), 40u);
  for (std::size_t day = report.days_before_abort; day < 40; ++day) {
    EXPECT_DOUBLE_EQ(predicted[day], config.state_max) << "day " << day;
  }
}

TEST(SimulatorFaultTest, ClampSaturationWatchdogAborts) {
  const river::RiverDataset dataset = TinyDataset(40);
  river::SimulationConfig config;  // max_saturated_substeps = 64
  // Finite but explosive growth: the state pins at the ceiling every
  // substep without ever producing a non-finite derivative.
  const std::vector<e::ExprPtr> explosive{
      e::Mul(e::Constant(1e6), e::Variable(river::kBPhy, "B")),
      e::Constant(0.0)};
  river::SimulationReport report;
  const auto predicted =
      SimulatePlankton(explosive, dataset, 40, config, &report);
  EXPECT_EQ(report.outcome, EvalOutcome::kClampSaturated);
  EXPECT_TRUE(report.aborted);
  EXPECT_EQ(report.clamp_saturations, 64u);
  EXPECT_EQ(report.substeps_used, 64u);  // 32 days, not 40
  // The aborted rollout and the clamp produce the same prediction, so the
  // full-horizon RMSE is unchanged — only the work is cut short.
  for (double p : predicted) EXPECT_DOUBLE_EQ(p, config.state_max);
}

TEST(SimulatorFaultTest, SubstepBudgetAborts) {
  const river::RiverDataset dataset = TinyDataset(20);
  river::SimulationConfig config;
  config.substep_budget = 10;  // 5 days at 2 substeps/day
  const std::vector<e::ExprPtr> benign{e::Constant(0.0), e::Constant(0.0)};
  river::SimulationReport report;
  const auto predicted = SimulatePlankton(benign, dataset, 20, config, &report);
  EXPECT_EQ(report.outcome, EvalOutcome::kBudgetExceeded);
  EXPECT_TRUE(report.aborted);
  EXPECT_EQ(report.substeps_used, 10u);
  EXPECT_EQ(report.days_before_abort, 5u);
  for (std::size_t day = 0; day < 5; ++day) {
    EXPECT_DOUBLE_EQ(predicted[day], 5.0);
  }
  for (std::size_t day = 5; day < 20; ++day) {
    EXPECT_DOUBLE_EQ(predicted[day], config.state_max);
  }
}

TEST(SimulatorFaultTest, WatchdogsCanBeDisabled) {
  const river::RiverDataset dataset = TinyDataset(40);
  river::SimulationConfig config;
  config.max_nonfinite_derivatives = 0;
  config.max_saturated_substeps = 0;
  const std::vector<e::ExprPtr> divergent{
      e::Mul(e::Constant(1e308), e::Variable(river::kBPhy, "B")),
      e::Constant(0.0)};
  river::SimulationReport report;
  SimulatePlankton(divergent, dataset, 40, config, &report);
  EXPECT_FALSE(report.aborted);
  EXPECT_EQ(report.outcome, EvalOutcome::kOk);
  EXPECT_EQ(report.substeps_used, 80u);  // full 40 days x 2
  EXPECT_GE(report.nonfinite_derivatives, 8u);  // counted, just not fatal
}

TEST(SimulatorFaultTest, DerivativeNanInjectionTripsWatchdog) {
  ScopedFault fault("derivative_nan:always");
  const river::RiverDataset dataset = TinyDataset(20);
  const std::vector<e::ExprPtr> benign{e::Constant(0.0), e::Constant(0.0)};
  river::SimulationReport report;
  SimulatePlankton(benign, dataset, 20, river::SimulationConfig{}, &report);
  EXPECT_EQ(report.outcome, EvalOutcome::kNonFiniteDerivative);
  EXPECT_TRUE(report.aborted);
  EXPECT_EQ(report.nonfinite_derivatives, 8u);
}

TEST(SimulatorFaultTest, RiverEvaluationSurfacesOutcome) {
  const river::RiverDataset dataset = TinyDataset(40);
  const river::RiverFitness fitness = river::RiverFitness::ForTraining(
      &dataset, river::SimulationConfig{});
  const std::vector<e::ExprPtr> divergent{
      e::Mul(e::Constant(1e308), e::Variable(river::kBPhy, "B")),
      e::Constant(0.0)};
  auto eval = fitness.Begin(divergent, ZeroParams(), true);
  while (eval->Step()) {
  }
  EXPECT_EQ(eval->outcome(), EvalOutcome::kNonFiniteDerivative);
  EXPECT_TRUE(std::isfinite(eval->CurrentFitness()));
}

// ---------------------------------------------------------------- evaluator ----

// Same toy problem as gp_test/parallel_test: seed "x + 0", revisions
// "Exp* + R" and "Exp* * R", target concept 2x + 1.
t::Grammar ToyGrammar() {
  t::Grammar grammar;
  {
    std::vector<t::TagNodePtr> children;
    children.push_back(t::LeafNode(e::Variable(0, "x")));
    children.push_back(t::LeafNode(e::Constant(0.0)));
    grammar.AddAlphaTree(t::ElementaryTree(
        "seed", t::OperatorNode(t::kExpSymbol, e::NodeKind::kAdd,
                                std::move(children))));
  }
  for (e::NodeKind op : {e::NodeKind::kAdd, e::NodeKind::kMul}) {
    std::vector<t::TagNodePtr> children;
    children.push_back(t::FootNode(t::kExpSymbol));
    children.push_back(t::SlotNode("R"));
    grammar.AddBetaTree(t::ElementaryTree(
        std::string("beta") + e::KindName(op),
        t::OperatorNode(t::kExpSymbol, op, std::move(children))));
  }
  grammar.SetSlotSpec("R", t::SlotSpec{0.0, 1.0});
  return grammar;
}

/// Linear-target fitness whose evaluation throws when parameters[0] is the
/// poison marker 13.0 — the injection vector for task-failure containment.
class ThrowableFitness : public gp::SequentialFitness {
 public:
  explicit ThrowableFitness(std::size_t n) : n_(n) {}

  std::size_t num_cases() const override { return n_; }
  std::size_t num_parameters() const override { return 1; }

  std::unique_ptr<gp::SequentialEvaluation> Begin(
      const std::vector<e::ExprPtr>& equations,
      const std::vector<double>& parameters,
      bool /*use_compiled_backend*/) const override {
    class Eval : public gp::SequentialEvaluation {
     public:
      Eval(e::ExprPtr eq, bool poisoned, std::size_t n)
          : equation_(std::move(eq)), poisoned_(poisoned), n_(n) {}
      bool Step() override {
        if (poisoned_) throw std::runtime_error("poisoned candidate");
        const double x =
            n_ > 1 ? static_cast<double>(t_) / static_cast<double>(n_ - 1)
                   : 0.0;
        e::EvalContext ctx;
        ctx.variables = &x;
        ctx.num_variables = 1;
        const double err = e::EvalExpr(*equation_, ctx) - (2.0 * x + 1.0);
        sse_ += err * err;
        ++t_;
        return t_ < n_;
      }
      double CurrentFitness() const override {
        return t_ == 0 ? 0.0 : std::sqrt(sse_ / static_cast<double>(t_));
      }
      std::size_t steps_taken() const override { return t_; }

     private:
      e::ExprPtr equation_;
      bool poisoned_;
      std::size_t n_;
      std::size_t t_ = 0;
      double sse_ = 0.0;
    };
    const bool poisoned = !parameters.empty() && parameters[0] == 13.0;
    return std::make_unique<Eval>(equations[0], poisoned, n_);
  }

 private:
  std::size_t n_;
};

gp::Individual MakeIndividual(const t::Grammar& grammar, std::size_t target,
                              Rng& rng) {
  gp::Individual individual;
  individual.genotype = t::GrowRandom(grammar, 0, target, rng);
  individual.parameters = {1.0};
  return individual;
}

TEST(EvaluatorFaultTest, TaskFailurePoisonsOnlyItsOwnIndividual) {
  const t::Grammar grammar = ToyGrammar();
  const ThrowableFitness fitness(40);
  gp::SpeedupConfig config;
  config.tree_caching = true;
  config.short_circuiting = true;
  config.num_threads = 4;
  gp::FitnessEvaluator evaluator(&grammar, &fitness, config);
  ThreadPool pool(4);

  Rng rng(17);
  std::vector<gp::Individual> population;
  for (int i = 0; i < 12; ++i) {
    population.push_back(MakeIndividual(grammar, 3, rng));
  }
  population[2].parameters = {13.0};  // the poison marker

  std::vector<gp::Individual*> batch;
  for (gp::Individual& individual : population) batch.push_back(&individual);
  evaluator.EvaluateBatch(batch, &pool);

  EXPECT_DOUBLE_EQ(population[2].fitness, kPenaltyFitness);
  EXPECT_EQ(population[2].outcome, EvalOutcome::kTaskFailed);
  EXPECT_TRUE(population[2].fully_evaluated);
  for (std::size_t i = 0; i < population.size(); ++i) {
    if (i == 2) continue;
    EXPECT_TRUE(std::isfinite(population[i].fitness)) << "individual " << i;
    EXPECT_LT(population[i].fitness, kPenaltyFitness) << "individual " << i;
    EXPECT_EQ(population[i].outcome, EvalOutcome::kOk) << "individual " << i;
  }
  EXPECT_EQ(evaluator.stats().outcomes[static_cast<std::size_t>(
                EvalOutcome::kTaskFailed)],
            1u);
}

TEST(EvaluatorFaultTest, OneCandidateBatchContainsThrow) {
  const t::Grammar grammar = ToyGrammar();
  const ThrowableFitness fitness(40);
  gp::FitnessEvaluator evaluator(&grammar, &fitness, gp::SpeedupConfig{});
  Rng rng(23);
  gp::Individual poisoned = MakeIndividual(grammar, 3, rng);
  poisoned.parameters = {13.0};
  evaluator.EvaluateBatch({&poisoned}, nullptr);
  EXPECT_DOUBLE_EQ(poisoned.fitness, kPenaltyFitness);
  EXPECT_EQ(poisoned.outcome, EvalOutcome::kTaskFailed);
  EXPECT_EQ(evaluator.stats().outcomes[static_cast<std::size_t>(
                EvalOutcome::kTaskFailed)],
            1u);
}

TEST(EvaluatorFaultTest, NonFiniteParameterIsDomainViolation) {
  const t::Grammar grammar = ToyGrammar();
  const ThrowableFitness fitness(40);
  gp::FitnessEvaluator evaluator(&grammar, &fitness, gp::SpeedupConfig{});
  Rng rng(29);
  gp::Individual individual = MakeIndividual(grammar, 3, rng);
  individual.parameters = {std::numeric_limits<double>::quiet_NaN()};
  evaluator.EvaluateBatch({&individual}, nullptr);
  EXPECT_DOUBLE_EQ(individual.fitness, kPenaltyFitness);
  EXPECT_EQ(individual.outcome, EvalOutcome::kDomainViolation);
  EXPECT_EQ(evaluator.stats().outcomes[static_cast<std::size_t>(
                EvalOutcome::kDomainViolation)],
            1u);
}

TEST(EvalStatsFaultTest, MergeAddsOutcomeCounters) {
  gp::EvalStats a;
  a.outcomes[static_cast<std::size_t>(EvalOutcome::kOk)] = 3;
  a.outcomes[static_cast<std::size_t>(EvalOutcome::kTaskFailed)] = 1;
  gp::EvalStats b;
  b.outcomes[static_cast<std::size_t>(EvalOutcome::kOk)] = 7;
  b.outcomes[static_cast<std::size_t>(EvalOutcome::kClampSaturated)] = 2;
  a.Merge(b);
  EXPECT_EQ(a.outcomes[static_cast<std::size_t>(EvalOutcome::kOk)], 10u);
  EXPECT_EQ(a.outcomes[static_cast<std::size_t>(EvalOutcome::kTaskFailed)],
            1u);
  EXPECT_EQ(
      a.outcomes[static_cast<std::size_t>(EvalOutcome::kClampSaturated)], 2u);
}

}  // namespace
}  // namespace gmr
