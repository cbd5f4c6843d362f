#include "core/gmr.h"

#include "common/metrics.h"
#include "expr/print.h"
#include "expr/simplify.h"
#include "obs/manifest.h"

namespace gmr::core {

AccuracyReport EvaluateAccuracy(const std::vector<expr::ExprPtr>& equations,
                                const std::vector<double>& parameters,
                                const river::RiverDataset& dataset,
                                const river::SimulationConfig& simulation) {
  return EvaluateAccuracy(
      equations, parameters, dataset, simulation,
      river::ConstituentSet::LegacyPlankton(
          dataset.initial_bphy, dataset.initial_bzoo,
          dataset.test_initial_bphy, dataset.test_initial_bzoo));
}

AccuracyReport EvaluateAccuracy(const std::vector<expr::ExprPtr>& equations,
                                const std::vector<double>& parameters,
                                const river::RiverDataset& dataset,
                                const river::SimulationConfig& simulation,
                                const river::ConstituentSet& constituents) {
  river::SimulationConfig config = simulation;
  config.num_species = static_cast<int>(constituents.size());
  const int primary = constituents.PrimaryObserved();
  const int mapped = constituents.at(static_cast<std::size_t>(primary))
                         .observed_series;
  const std::vector<double>& observed =
      dataset.ObservedSeries(mapped >= 0 ? mapped : 0);
  const std::size_t p = static_cast<std::size_t>(primary);

  AccuracyReport report;
  const std::vector<double> train_pred =
      river::Simulate(equations, parameters, dataset, 0, dataset.train_end,
                      constituents, constituents.InitialStates(), config,
                      /*compiled=*/true)
          .series[p];
  const std::vector<double> train_obs(
      observed.begin(),
      observed.begin() + static_cast<std::ptrdiff_t>(dataset.train_end));
  report.train_rmse = Rmse(train_pred, train_obs);
  report.train_mae = Mae(train_pred, train_obs);

  const std::vector<double> test_pred =
      river::Simulate(equations, parameters, dataset, dataset.train_end,
                      dataset.num_days, constituents,
                      constituents.TestInitialStates(), config,
                      /*compiled=*/true)
          .series[p];
  const std::vector<double> test_obs(
      observed.begin() + static_cast<std::ptrdiff_t>(dataset.train_end),
      observed.end());
  report.test_rmse = Rmse(test_pred, test_obs);
  report.test_mae = Mae(test_pred, test_obs);
  return report;
}

GmrRunResult RunGmr(const GmrConfig& config, const GmrProblem& problem,
                    const obs::RunContext& context) {
  const river::RiverDataset& dataset = *problem.dataset;
  const RiverPriorKnowledge& knowledge = *problem.knowledge;
  const river::RiverFitness fitness =
      problem.constituents == nullptr
          ? river::RiverFitness::ForTraining(&dataset, config.simulation)
          : river::RiverFitness::ForTrainingWith(
                &dataset, *problem.constituents, config.simulation);

  obs::TelemetrySink* sink = obs::ResolveSink(context.sink);
  if (sink->enabled()) {
    // The GMR manifest wraps the search; the nested TAG3P engine emits its
    // own "tag3p" manifest with the full search config snapshot.
    obs::RunManifest manifest =
        obs::MakeRunManifest("gmr", config.tag3p.seed);
    manifest.config_fields = {
        {"train_days", static_cast<double>(dataset.train_end)},
        {"num_days", static_cast<double>(dataset.num_days)},
        {"num_species", static_cast<double>(fitness.num_states())},
    };
    manifest.num_threads = context.pool != nullptr
                               ? context.pool->num_threads()
                               : config.tag3p.speedups.num_threads;
    obs::EmitManifest(sink, manifest);
  }

  gp::Tag3pConfig tag3p = config.tag3p;
  tag3p.seed_alpha_index = knowledge.seed_alpha_index;
  gp::Tag3pProblem search_problem{&knowledge.grammar, &fitness,
                                  knowledge.priors};
  gp::Tag3pEngine engine(search_problem, tag3p, context);

  GmrRunResult result;
  result.search = engine.Run();
  result.best = result.search.best.Clone();

  result.best_equations =
      tag::ExpandToExpressions(knowledge.grammar, *result.best.genotype);
  for (auto& eq : result.best_equations) eq = expr::Simplify(eq);

  const AccuracyReport report =
      problem.constituents == nullptr
          ? EvaluateAccuracy(result.best_equations, result.best.parameters,
                             dataset, config.simulation)
          : EvaluateAccuracy(result.best_equations, result.best.parameters,
                             dataset, config.simulation,
                             *problem.constituents);
  result.train_rmse = report.train_rmse;
  result.train_mae = report.train_mae;
  result.test_rmse = report.test_rmse;
  result.test_mae = report.test_mae;

  if (sink->enabled()) {
    obs::TraceEvent event("run_result");
    event.Label("driver", "gmr")
        .Field("best_fitness", result.best.fitness)
        .Field("train_rmse", result.train_rmse)
        .Field("train_mae", result.train_mae)
        .Field("test_rmse", result.test_rmse)
        .Field("test_mae", result.test_mae);
    sink->Emit(std::move(event));
    sink->Flush();
  }
  return result;
}

GmrRunResult RunGmr(const river::RiverDataset& dataset,
                    const RiverPriorKnowledge& knowledge,
                    const GmrConfig& config) {
  return RunGmr(config, GmrProblem{&dataset, &knowledge},
                obs::RunContext{});
}

std::string DescribeModel(const std::vector<expr::ExprPtr>& equations) {
  std::string out;
  const char* names[] = {"dB_Phy/dt", "dB_Zoo/dt"};
  for (std::size_t i = 0; i < equations.size(); ++i) {
    out += i < 2 ? names[i] : "eq";
    out += " = ";
    out += expr::ToString(*equations[i]);
    out += '\n';
  }
  return out;
}

std::string DescribeModel(const std::vector<expr::ExprPtr>& equations,
                          const river::ConstituentSet& constituents) {
  std::string out;
  for (std::size_t i = 0; i < equations.size(); ++i) {
    out += i < constituents.size()
               ? "d" + constituents.at(i).name + "/dt"
               : "eq";
    out += " = ";
    out += expr::ToString(*equations[i]);
    out += '\n';
  }
  return out;
}

}  // namespace gmr::core
