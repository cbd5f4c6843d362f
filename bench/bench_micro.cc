// Micro-benchmarks (google-benchmark) of the hot paths behind the Figure 10
// speedups: expression evaluation through both backends, algebraic
// simplification, TAG expansion, hydrological routing, and the genetic
// operators — plus the divergence-watchdog containment cost/benefit, which
// is also summarized into BENCH_fault.json by the custom main.

#include <benchmark/benchmark.h>

#include "bench/harness.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/river_grammar.h"
#include "expr/batch_jit.h"
#include "expr/compile.h"
#include "expr/eval.h"
#include "expr/simplify.h"
#include "gp/operators.h"
#include "river/biology.h"
#include "river/chemistry.h"
#include "river/constituents.h"
#include "river/network.h"
#include "river/parameters.h"
#include "river/simulate.h"
#include "river/stepper.h"
#include "river/synthetic.h"
#include "river/variables.h"
#include "tag/generate.h"

namespace {

using namespace gmr;

std::vector<double> BenchVariables() {
  std::vector<double> vars(river::kNumVariables, 1.0);
  vars[river::kBPhy] = 10.0;
  vars[river::kBZoo] = 2.0;
  vars[river::kVlgt] = 20.0;
  vars[river::kVtmp] = 18.0;
  vars[river::kVn] = 2.0;
  vars[river::kVp] = 0.05;
  vars[river::kVsi] = 3.0;
  return vars;
}

void BM_EvalInterpreted(benchmark::State& state) {
  const auto equation = river::PhytoplanktonDerivative();
  const auto params = gp::PriorMeans(river::RiverParameterPriors());
  const auto vars = BenchVariables();
  expr::EvalContext ctx;
  ctx.variables = vars.data();
  ctx.num_variables = vars.size();
  ctx.parameters = params.data();
  ctx.num_parameters = params.size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr::EvalExpr(*equation, ctx));
  }
}
BENCHMARK(BM_EvalInterpreted);

void BM_EvalCompiled(benchmark::State& state) {
  const auto equation = river::PhytoplanktonDerivative();
  const auto program = expr::Compile(*equation);
  const auto params = gp::PriorMeans(river::RiverParameterPriors());
  const auto vars = BenchVariables();
  expr::EvalContext ctx;
  ctx.variables = vars.data();
  ctx.num_variables = vars.size();
  ctx.parameters = params.data();
  ctx.num_parameters = params.size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(program.Run(ctx));
  }
}
BENCHMARK(BM_EvalCompiled);

void BM_EvalJit(benchmark::State& state) {
  // True runtime compilation (cc + dlopen), the paper's actual RC
  // mechanism: a batch-JIT symbol called once per derivative, as the
  // rollouts call it. Skipped when no compiler is on the system.
  if (!expr::JitAvailable()) {
    state.SkipWithError("no C compiler");
    return;
  }
  const auto equation = river::PhytoplanktonDerivative();
  expr::JitCircuitBreaker breaker;
  expr::BatchJitSession session(&breaker);
  const auto fn = session.CompileBatch({equation.get()})[0];
  if (fn == nullptr) {
    state.SkipWithError("batch JIT compile failed");
    return;
  }
  const auto params = gp::PriorMeans(river::RiverParameterPriors());
  const auto vars = BenchVariables();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn(vars.data(), params.data()));
  }
}
BENCHMARK(BM_EvalJit);

void BM_Compile(benchmark::State& state) {
  const auto equation = river::PhytoplanktonDerivative();
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr::Compile(*equation));
  }
}
BENCHMARK(BM_Compile);

void BM_Simplify(benchmark::State& state) {
  const auto equation = river::PhytoplanktonDerivative();
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr::Simplify(equation));
  }
}
BENCHMARK(BM_Simplify);

void BM_TagExpand(benchmark::State& state) {
  const core::RiverPriorKnowledge knowledge =
      core::BuildRiverPriorKnowledge();
  Rng rng(3);
  const tag::DerivationPtr genotype = tag::GrowRandom(
      knowledge.grammar, knowledge.seed_alpha_index,
      static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tag::ExpandToExpressions(knowledge.grammar, *genotype));
  }
}
BENCHMARK(BM_TagExpand)->Arg(4)->Arg(16)->Arg(50);

void BM_GeneticOperators(benchmark::State& state) {
  const core::RiverPriorKnowledge knowledge =
      core::BuildRiverPriorKnowledge();
  Rng rng(5);
  gp::Individual a;
  a.genotype = tag::GrowRandom(knowledge.grammar, 0, 12, rng);
  a.parameters = gp::PriorMeans(knowledge.priors);
  gp::Individual b;
  b.genotype = tag::GrowRandom(knowledge.grammar, 0, 12, rng);
  b.parameters = a.parameters;
  const gp::SizeBounds bounds{2, 50};
  for (auto _ : state) {
    gp::Individual ca = a.Clone();
    gp::Individual cb = b.Clone();
    benchmark::DoNotOptimize(
        gp::Crossover(knowledge.grammar, bounds, 5, &ca, &cb, rng));
    gp::GaussianMutation(knowledge.priors, 1.0, &ca, rng);
  }
}
BENCHMARK(BM_GeneticOperators);

/// One simulated year of a whole process, interpreted (compiled:0) or
/// through the default compiled backend (compiled:1): the two-species
/// plankton process under Euler (transport:0), or the five-species
/// transport process under RK4 (transport:1), whose per-day cost is five
/// equations x four stages x two substeps.
/// Deterministic kernel operation counts of a station rollout's system
/// program, from the tape segments under the runner's layout
/// (states, then the ten drivers): instructions run once per rollout
/// (bind), once per day (hold) and once per derivative call (run), and the
/// instructions a live day executes. The interpreter runs no tape, so only
/// compiled runs report them.
void ReportTapeOps(benchmark::State& state,
                   const std::vector<expr::ExprPtr>& equations,
                   std::size_t num_parameters,
                   const river::SimulationConfig& config) {
  const expr::Tape tape = expr::Flatten(
      equations, river::RolloutLayout(equations.size(), num_parameters));
  const std::size_t hold = tape.run_begin - tape.hold_begin;
  const std::size_t run = tape.size() - tape.run_begin;
  const std::size_t stages =
      config.method == river::IntegrationMethod::kRk4 ? 4 : 1;
  state.counters["ops_bind"] = static_cast<double>(tape.hold_begin);
  state.counters["ops_hold"] = static_cast<double>(hold);
  state.counters["ops_run"] = static_cast<double>(run);
  state.counters["ops_per_day"] = static_cast<double>(
      hold + static_cast<std::size_t>(config.substeps) * stages * run);
}

void BM_SimulateYear(benchmark::State& state) {
  const bool transport = state.range(0) != 0;
  const bool compiled = state.range(1) != 0;
  river::SyntheticConfig config;
  config.years = 2;
  config.train_years = 1;
  if (!transport) {
    const river::RiverDataset dataset = river::GenerateNakdongLike(config);
    const auto equations = river::ManualProcess();
    const auto params = gp::PriorMeans(river::RiverParameterPriors());
    const river::ConstituentSet plankton =
        river::ConstituentSet::LegacyPlankton();
    const river::SimulationConfig simulation;
    for (auto _ : state) {
      benchmark::DoNotOptimize(river::Simulate(equations, params, dataset, 0,
                                               365, plankton, {5.0, 1.0},
                                               simulation, compiled));
    }
    if (compiled) ReportTapeOps(state, equations, params.size(), simulation);
    return;
  }
  const river::TransportScenario scenario =
      river::GenerateTransportScenario(config, 5);
  const auto equations = river::TransportProcess(scenario.constituents);
  river::SimulationConfig simulation;
  simulation.num_species = 5;
  simulation.method = river::IntegrationMethod::kRk4;
  const std::vector<double> initial = scenario.constituents.InitialStates();
  for (auto _ : state) {
    benchmark::DoNotOptimize(river::Simulate(
        equations, scenario.true_parameters, scenario.dataset, 0, 365,
        scenario.constituents, initial, simulation, compiled));
  }
  if (compiled) {
    ReportTapeOps(state, equations, scenario.true_parameters.size(),
                  simulation);
  }
}
BENCHMARK(BM_SimulateYear)
    ->ArgNames({"transport", "compiled"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

/// A structurally plausible but explosive candidate of the kind TAG3P
/// routinely generates: finite derivatives that pin B_Phy to the ceiling
/// every substep, so only the clamp-saturation watchdog can cut it short.
std::vector<expr::ExprPtr> DivergentProcess() {
  return {expr::Mul(expr::Constant(1e6),
                    expr::Variable(river::kBPhy, "B_Phy")),
          expr::Constant(0.0)};
}

river::SimulationConfig WatchdogConfig(bool watchdogs_on) {
  river::SimulationConfig config;
  if (!watchdogs_on) {
    config.max_nonfinite_derivatives = 0;
    config.max_saturated_substeps = 0;
  }
  return config;
}

void BM_SimulateDivergent(benchmark::State& state) {
  // Arg 0: watchdogs disabled (the pre-containment behavior — every
  // divergent candidate pays the full rollout). Arg 1: watchdogs on.
  river::SyntheticConfig synth;
  synth.years = 2;
  synth.train_years = 1;
  const river::RiverDataset dataset = river::GenerateNakdongLike(synth);
  const auto equations = DivergentProcess();
  const auto params = gp::PriorMeans(river::RiverParameterPriors());
  const river::SimulationConfig config = WatchdogConfig(state.range(0) != 0);
  const river::ConstituentSet plankton =
      river::ConstituentSet::LegacyPlankton();
  for (auto _ : state) {
    benchmark::DoNotOptimize(river::Simulate(equations, params, dataset, 0,
                                             365, plankton, {5.0, 1.0},
                                             config, true));
  }
}
BENCHMARK(BM_SimulateDivergent)->Arg(0)->Arg(1);

void BM_HydrologyRoute(benchmark::State& state) {
  const river::RiverNetwork network = river::RiverNetwork::Nakdong();
  const std::size_t days = static_cast<std::size_t>(state.range(0));
  river::HydrologicalProcess::Input input;
  input.attributes.resize(network.num_stations());
  input.rainfall.resize(network.num_stations());
  input.base_flow.assign(network.num_stations(), 0.0);
  for (std::size_t s = 0; s < network.num_stations(); ++s) {
    if (network.station(static_cast<int>(s)).is_virtual) continue;
    input.attributes[s].assign(10, std::vector<double>(days, 1.0));
    input.rainfall[s].assign(days, 1.0);
    input.base_flow[s] = 10.0;
  }
  const river::HydrologicalProcess hydrology(&network);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hydrology.Route(input));
  }
}
BENCHMARK(BM_HydrologyRoute)->Arg(365)->Arg(1825);

void BM_SyntheticGeneration(benchmark::State& state) {
  for (auto _ : state) {
    river::SyntheticConfig config;
    config.years = 2;
    config.train_years = 1;
    benchmark::DoNotOptimize(river::GenerateNakdongLike(config));
  }
}
BENCHMARK(BM_SyntheticGeneration);

/// Measures the divergent-candidate rollout with and without watchdogs and
/// writes the containment summary to BENCH_fault.json: substeps actually
/// integrated, where the abort happened, and the wall-clock per rollout.
void WriteFaultBench() {
  river::SyntheticConfig synth;
  synth.years = 2;
  synth.train_years = 1;
  const river::RiverDataset dataset = river::GenerateNakdongLike(synth);
  const auto equations = DivergentProcess();
  const auto params = gp::PriorMeans(river::RiverParameterPriors());

  const river::ConstituentSet plankton =
      river::ConstituentSet::LegacyPlankton();
  std::vector<bench::BenchRow> rows;
  for (const bool watchdogs_on : {false, true}) {
    const river::SimulationConfig config = WatchdogConfig(watchdogs_on);
    river::SimulationReport report;
    constexpr int kRepeats = 50;
    Timer timer;
    for (int r = 0; r < kRepeats; ++r) {
      river::Simulate(equations, params, dataset, 0, 365, plankton,
                      {5.0, 1.0}, config, true, &report);
    }
    const double seconds = timer.ElapsedSeconds() / kRepeats;
    bench::BenchRow row(watchdogs_on ? "watchdogs_on" : "watchdogs_off",
                        synth.seed,
                        bench::ConfigHasher()
                            .Add("watchdogs", watchdogs_on)
                            .Add("days", 365)
                            .Add("repeats", kRepeats)
                            .hash());
    row.Add("watchdogs", watchdogs_on ? 1.0 : 0.0);
    row.Add("substeps_used", static_cast<double>(report.substeps_used));
    row.Add("days_before_abort",
            static_cast<double>(report.days_before_abort));
    row.Add("aborted", report.aborted ? 1.0 : 0.0);
    row.Add("clamp_saturations",
            static_cast<double>(report.clamp_saturations));
    row.Add("seconds_per_rollout", seconds);
    rows.push_back(std::move(row));
  }
  bench::WriteBenchJson("BENCH_fault.json", "fault", 1, rows);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteFaultBench();
  return 0;
}
