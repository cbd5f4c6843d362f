// Micro-benchmarks of the static-analysis layer (interval evaluation,
// expression linting, grammar diagnostics, the reject-gate verdict) plus a
// population-level cost/benefit run summarized into BENCH_analysis.json:
// evaluating a fault-seeded population with the gate off vs on shows the
// reject rate and the integrator time the gate saves.

#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "analysis/activity.h"
#include "analysis/grammar_lint.h"
#include "analysis/interval.h"
#include "analysis/lint.h"
#include "analysis/sign.h"
#include "analysis/static_gate.h"
#include "analysis/units.h"
#include "bench/harness.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/river_grammar.h"
#include "gp/evaluator.h"
#include "gp/parameter_prior.h"
#include "river/biology.h"
#include "river/domains.h"
#include "river/parameters.h"
#include "river/simulate.h"
#include "river/synthetic.h"
#include "river/variables.h"
#include "tag/generate.h"

namespace {

using namespace gmr;

/// A candidate whose phenotype provably saturates the clamp:
/// dB_Phy/dt = 1e9 * B_Phy >= 1e7 over the whole state domain.
std::vector<expr::ExprPtr> DivergentEquations() {
  return {expr::Mul(expr::Constant(1e9),
                    expr::Variable(river::kBPhy, "B_Phy")),
          expr::Constant(0.0)};
}

analysis::LintOptions RiverLintOptions() {
  analysis::LintOptions options;
  options.num_states = 2;
  options.variable_names = river::VariableNames();
  for (int slot = 0; slot < river::kNumParameters; ++slot) {
    options.parameter_names.push_back(river::ParameterName(slot));
  }
  return options;
}

void BM_StaticAnalysisExpert(benchmark::State& state) {
  const auto equations = river::ManualProcess();
  const analysis::StaticGateConfig gate =
      river::MakeStaticGate(river::SimulationConfig{}, nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::AnalyzeCandidate(equations, gate));
  }
}
BENCHMARK(BM_StaticAnalysisExpert);

void BM_StaticAnalysisDivergent(benchmark::State& state) {
  const auto equations = DivergentEquations();
  const analysis::StaticGateConfig gate =
      river::MakeStaticGate(river::SimulationConfig{}, nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::AnalyzeCandidate(equations, gate));
  }
}
BENCHMARK(BM_StaticAnalysisDivergent);

void BM_LintEquations(benchmark::State& state) {
  const auto equations = river::ManualProcess();
  const analysis::DomainEnv env = river::LintDomains();
  const analysis::LintOptions options = RiverLintOptions();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::LintEquations(equations, env, options));
  }
}
BENCHMARK(BM_LintEquations);

void BM_GrammarLint(benchmark::State& state) {
  const core::RiverPriorKnowledge knowledge = core::BuildRiverPriorKnowledge();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::LintGrammar(knowledge.grammar));
  }
}
BENCHMARK(BM_GrammarLint);

void BM_UnitsPass(benchmark::State& state) {
  const auto equations = river::ManualProcess();
  const analysis::UnitsEnv env = river::RiverUnitsEnv();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::AnalyzeSystemUnits(equations, env));
  }
}
BENCHMARK(BM_UnitsPass);

void BM_SignPass(benchmark::State& state) {
  const auto equations = river::ManualProcess();
  const analysis::DomainEnv env = river::LintDomains();
  for (auto _ : state) {
    for (const expr::ExprPtr& eq : equations) {
      benchmark::DoNotOptimize(analysis::CheckMassBalance(*eq, env));
    }
  }
}
BENCHMARK(BM_SignPass);

void BM_ActivityPass(benchmark::State& state) {
  const auto equations = river::ManualProcess();
  const analysis::DomainEnv env = river::LintDomains();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::OutputClosureActivity(equations, river::kBPhy, env));
  }
}
BENCHMARK(BM_ActivityPass);

void BM_GrammarDimensions(benchmark::State& state) {
  const core::RiverPriorKnowledge knowledge = core::BuildRiverPriorKnowledge();
  const analysis::UnitsEnv env = river::RiverUnitsEnv();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::AnalyzeGrammarDimensions(knowledge.grammar, env));
  }
}
BENCHMARK(BM_GrammarDimensions);

/// Population-level gate cost/benefit: evaluate the same fault-seeded
/// population (clean random candidates plus provably divergent ones) with
/// the gate off and on, and report the wall time, the reject rate, and the
/// integrator work skipped.
void WriteAnalysisBench() {
  core::RiverPriorKnowledge knowledge = core::BuildRiverPriorKnowledge();
  river::SyntheticConfig synth;
  synth.years = 2;
  synth.train_years = 1;
  const river::RiverDataset dataset = river::GenerateNakdongLike(synth);
  const river::SimulationConfig sim;
  const river::RiverFitness fitness =
      river::RiverFitness::ForTraining(&dataset, sim);

  // Each divergent candidate is structurally distinct (different constant)
  // so the tree cache cannot collapse them, and saturates steadily rather
  // than instantly so the gate-off run pays the full watchdog containment
  // cost (JIT compile + ~max_saturated_substeps of integration each).
  constexpr int kClean = 48;
  constexpr int kDivergent = 16;
  std::vector<int> divergent_alphas;
  for (int i = 0; i < kDivergent; ++i) {
    std::vector<tag::TagNodePtr> system;
    system.push_back(tag::FromExpr(
        expr::Add(expr::Constant(25000.0 + i),
                  expr::Variable(river::kBPhy, "B_Phy")),
        tag::kExpSymbol));
    system.push_back(tag::FromExpr(expr::Constant(0.0), tag::kExpSymbol));
    divergent_alphas.push_back(knowledge.grammar.AddAlphaTree(
        tag::ElementaryTree("divergent" + std::to_string(i),
                            tag::SystemNode(std::move(system)))));
  }

  Rng rng(1234);
  std::vector<gp::Individual> population;
  for (int i = 0; i < kClean; ++i) {
    gp::Individual individual;
    individual.genotype =
        tag::GrowRandom(knowledge.grammar, 0, 6 + i % 8, rng);
    individual.parameters = gp::PriorMeans(knowledge.priors);
    population.push_back(std::move(individual));
  }
  for (int alpha : divergent_alphas) {
    gp::Individual individual;
    individual.genotype =
        tag::NewSeedDerivation(knowledge.grammar, alpha, rng);
    individual.parameters = gp::PriorMeans(knowledge.priors);
    population.push_back(std::move(individual));
  }

  std::vector<bench::BenchRow> rows;
  for (const bool gate_on : {false, true}) {
    gp::SpeedupConfig config;
    config.tree_caching = true;
    config.short_circuiting = true;
    if (gate_on) config.static_gate = river::MakeStaticGate(sim, &dataset);
    gp::FitnessEvaluator evaluator(&knowledge.grammar, &fitness, config);
    Timer timer;
    for (gp::Individual& individual : population) {
      gp::Individual copy = individual.Clone();
      evaluator.EvaluateBatch({&copy}, nullptr);
    }
    const double seconds = timer.ElapsedSeconds();
    const gp::EvalStats& stats = evaluator.stats();
    bench::BenchRow row(gate_on ? "gate_on" : "gate_off", /*run_seed=*/1234,
                        bench::ConfigHasher()
                            .Add("gate", gate_on)
                            .Add("tree_caching", config.tree_caching)
                            .Add("short_circuiting", config.short_circuiting)
                            .hash());
    row.Add("gate", gate_on ? 1.0 : 0.0);
    row.Add("population", static_cast<double>(population.size()));
    row.Add("seconds", seconds);
    row.Add("static_rejects", static_cast<double>(stats.static_rejects));
    row.Add("reject_rate", static_cast<double>(stats.static_rejects) /
                               static_cast<double>(population.size()));
    row.Add("time_steps_evaluated",
            static_cast<double>(stats.time_steps_evaluated));
    row.Add("verdict_cache_lookups",
            static_cast<double>(stats.verdict_cache_lookups));
    row.Add("verdict_cache_hits",
            static_cast<double>(stats.verdict_cache_hits));
    for (std::size_t r = 1; r < analysis::kNumGateRules; ++r) {
      row.Add(std::string("gate_rule.") +
                  analysis::GateRuleName(static_cast<analysis::GateRule>(r)),
              static_cast<double>(stats.gate_rule_rejects[r]));
    }
    rows.push_back(std::move(row));
  }

  // Per-pass gate throughput: AnalyzeCandidate calls per second on the
  // expert process as each opt-in pass is stacked onto the interval base.
  {
    constexpr int kReps = 2000;
    const auto equations = river::ManualProcess();
    struct PassConfig {
      const char* name;
      bool units;
      bool sign;
    };
    for (const PassConfig pass : {PassConfig{"interval", false, false},
                                  PassConfig{"interval+units", true, false},
                                  PassConfig{"interval+sign", false, true},
                                  PassConfig{"all", true, true}}) {
      analysis::StaticGateConfig gate =
          river::MakeStaticGate(sim, &dataset);
      gate.check_units = pass.units;
      if (pass.units) gate.units = river::RiverUnitsEnv();
      gate.check_sign = pass.sign;
      Timer timer;
      for (int i = 0; i < kReps; ++i) {
        benchmark::DoNotOptimize(analysis::AnalyzeCandidate(equations, gate));
      }
      const double seconds = timer.ElapsedSeconds();
      bench::BenchRow row(std::string("gate_pass_") + pass.name,
                          /*run_seed=*/1234,
                          bench::ConfigHasher()
                              .Add("units", pass.units)
                              .Add("sign", pass.sign)
                              .Add("reps", kReps)
                              .hash());
      row.Add("reps", static_cast<double>(kReps));
      row.Add("seconds", seconds);
      row.Add("candidates_per_sec",
              seconds > 0.0 ? static_cast<double>(kReps) / seconds : 0.0);
      rows.push_back(std::move(row));
    }
  }

  // Grammar-level dimension pruning rate: the builtin river grammar prunes
  // nothing (its extender contexts are polymorphic); a copy extended with
  // deliberately dimension-inconsistent betas prunes exactly those.
  {
    core::RiverPriorKnowledge pristine = core::BuildRiverPriorKnowledge();
    const analysis::UnitsEnv env = river::RiverUnitsEnv();
    Timer timer;
    const std::vector<int> pruned_builtin =
        analysis::PruneDimensionInconsistentBetas(&pristine.grammar, env);
    const double builtin_seconds = timer.ElapsedSeconds();

    core::RiverPriorKnowledge seeded = core::BuildRiverPriorKnowledge();
    // Root the defect betas at an alpha-resident label by giving the seeded
    // grammar an extra alpha with a dimension-pinned label, then attach
    // betas whose operand subtree mismatches internally (Θ + L).
    seeded.grammar.AddAlphaTree(tag::ElementaryTree(
        "pinned", tag::FromExpr(
                      expr::Add(expr::Variable(river::kBPhy, "B_Phy"),
                                expr::Variable(river::kVn, "V_n")),
                      "Pinned")));
    constexpr int kBadBetas = 4;
    for (int i = 0; i < kBadBetas; ++i) {
      std::vector<tag::TagNodePtr> children;
      children.push_back(tag::FootNode("Pinned"));
      children.push_back(
          tag::FromExpr(expr::Add(expr::Variable(river::kVtmp, "V_tmp"),
                                  expr::Variable(river::kVsd, "V_sd")),
                        ""));
      seeded.grammar.AddBetaTree(tag::ElementaryTree(
          "bad" + std::to_string(i),
          tag::OperatorNode("Pinned", expr::NodeKind::kAdd,
                            std::move(children))));
    }
    const std::size_t total = seeded.grammar.num_beta_trees();
    const std::vector<int> pruned_seeded =
        analysis::PruneDimensionInconsistentBetas(&seeded.grammar, env);

    bench::BenchRow row("grammar_pruning", /*run_seed=*/1234,
                        bench::ConfigHasher()
                            .Add("bad_betas", kBadBetas)
                            .hash());
    row.Add("builtin_betas",
            static_cast<double>(pristine.grammar.num_beta_trees()));
    row.Add("builtin_pruned", static_cast<double>(pruned_builtin.size()));
    row.Add("builtin_seconds", builtin_seconds);
    row.Add("seeded_betas", static_cast<double>(total));
    row.Add("seeded_pruned", static_cast<double>(pruned_seeded.size()));
    row.Add("pruning_rate", total > 0
                                ? static_cast<double>(pruned_seeded.size()) /
                                      static_cast<double>(total)
                                : 0.0);
    rows.push_back(std::move(row));
  }

  bench::WriteBenchJson("BENCH_analysis.json", "analysis", 1, rows);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteAnalysisBench();
  return 0;
}
