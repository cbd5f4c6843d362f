// Full river water-quality case study (paper Sections II & IV): generate a
// multi-year synthetic Nakdong-like dataset, run genetic model revision at a
// configurable budget, report train/test forecasting accuracy against the
// expert MANUAL process, print the revised equations, and export the dataset
// plus the forecast series as CSV for external plotting.
//
// Usage: river_forecast [--ckpt DIR [--resume]]
//                        [years] [population] [generations] [runs] [seed]
//   defaults:            4       200          100            3      7
//
// With --ckpt DIR each GMR run snapshots its full search state into
// DIR/run<k> after every generation; add --resume to continue a killed
// invocation from the latest durable snapshot instead of starting over
// (the continuation is bit-identical to the uninterrupted run).

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "ckpt/checkpoint.h"
#include "common/csv.h"
#include "common/cli.h"
#include "core/gmr.h"
#include "core/model_io.h"
#include "core/revision_report.h"
#include "core/river_grammar.h"
#include "expr/print.h"
#include "river/biology.h"
#include "river/parameters.h"
#include "river/simulate.h"
#include "river/synthetic.h"

int main(int argc, char** argv) {
  using namespace gmr;
  std::string ckpt_dir;
  bool resume = false;
  int arg = 1;
  while (arg < argc && argv[arg][0] == '-') {
    const std::string flag = argv[arg];
    if (flag == "--ckpt" && arg + 1 < argc) {
      ckpt_dir = argv[++arg];
    } else if (flag == "--resume") {
      resume = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
    ++arg;
  }
  // Positional count `index` after the flags, or `fallback` when absent;
  // a value that is not a positive integer exits 2.
  const auto count = [&](int index, const char* name, int fallback) {
    return argc > arg + index ? ParseUnsignedOrExit("river_forecast", name,
                                                    argv[arg + index], 1)
                              : fallback;
  };
  const int years = count(0, "years", 4);
  const int population = count(1, "population", 200);
  const int generations = count(2, "generations", 100);
  const int runs = count(3, "runs", 3);
  const std::uint64_t seed = argc > arg + 4
                                 ? ParseUnsignedOrExit<std::uint64_t>(
                                       "river_forecast", "seed", argv[arg + 4])
                                 : 7;
  if (resume && ckpt_dir.empty()) {
    std::fprintf(stderr, "--resume requires --ckpt DIR\n");
    return 2;
  }

  // --- Data ---------------------------------------------------------------
  river::SyntheticConfig data_config;
  data_config.years = years;
  data_config.train_years = std::max(1, years * 3 / 4);
  data_config.seed = seed;
  const river::RiverDataset dataset = river::GenerateNakdongLike(data_config);
  std::printf(
      "dataset: %d years (%zu train days / %zu test days), 9 stations "
      "routed through the Nakdong network\n",
      years, dataset.train_end, dataset.NumTestDays());

  // --- Expert baseline ----------------------------------------------------
  const core::RiverPriorKnowledge knowledge = core::BuildRiverPriorKnowledge();
  const std::vector<double> prior_means = gp::PriorMeans(knowledge.priors);
  const core::AccuracyReport manual = core::EvaluateAccuracy(
      river::ManualProcess(), prior_means, dataset,
      river::SimulationConfig{});
  std::printf("\nMANUAL expert process:  train RMSE %8.3f | test RMSE %8.3f\n",
              manual.train_rmse, manual.test_rmse);

  // --- Genetic model revision ----------------------------------------------
  core::GmrRunResult best;
  best.test_rmse = 1e300;
  for (int run = 0; run < runs; ++run) {
    core::GmrConfig config;
    config.tag3p.population_size = population;
    config.tag3p.max_generations = generations;
    config.tag3p.sigma_rampdown_generations = generations / 5;
    config.tag3p.local_search_steps = 3;
    config.tag3p.seed = 100 + static_cast<std::uint64_t>(run);
    obs::RunContext context;
    std::unique_ptr<ckpt::Checkpointer> checkpointer;
    if (!ckpt_dir.empty()) {
      ckpt::CheckpointOptions options;
      options.dir = ckpt_dir + "/run" + std::to_string(run);
      if (!resume) {  // fresh start: discard any stale snapshot chain
        std::error_code ec;
        std::filesystem::remove_all(options.dir, ec);
      }
      checkpointer = std::make_unique<ckpt::Checkpointer>(options);
      context.checkpointer = checkpointer.get();
      if (resume && checkpointer->Load() != nullptr) {
        std::printf("GMR run %d: resuming from generation %llu\n", run,
                    static_cast<unsigned long long>(
                        checkpointer->Load()->step));
      }
    }
    const core::GmrProblem problem{&dataset, &knowledge};
    core::GmrRunResult result = core::RunGmr(config, problem, context);
    std::printf(
        "GMR run %d:              train RMSE %8.3f | test RMSE %8.3f "
        "(%zu simulated evals, cache hit %.0f%%)\n",
        run, result.train_rmse, result.test_rmse,
        result.search.eval_stats.individuals_evaluated,
        100.0 * result.search.eval_stats.CacheHitRate());
    if (result.test_rmse < best.test_rmse) best = std::move(result);
  }

  std::printf(
      "\nbest revised process:   train RMSE %8.3f | test RMSE %8.3f "
      "(%.0f%% better than MANUAL on test)\n",
      best.train_rmse, best.test_rmse,
      100.0 * (1.0 - best.test_rmse / manual.test_rmse));
  std::printf("\nrevised equations:\n%s",
              core::DescribeModel(best.best_equations).c_str());
  std::printf("\napplied revisions (derivation tree):\n%s",
              core::SummarizeRevisions(knowledge.grammar, *best.best.genotype)
                  .ToString()
                  .c_str());

  std::printf("\ncalibrated constants:\n");
  for (int slot = 0; slot < river::kNumParameters; ++slot) {
    std::printf("  %-8s %12.6g   (prior mean %g)\n",
                river::ParameterName(slot),
                best.best.parameters[static_cast<std::size_t>(slot)],
                knowledge.priors[static_cast<std::size_t>(slot)].mean);
  }

  // --- Export -------------------------------------------------------------
  const std::vector<double> forecast =
      river::Simulate(best.best_equations, best.best.parameters, dataset, 0,
                      dataset.num_days,
                      river::ConstituentSet::LegacyPlankton(
                          dataset.initial_bphy, dataset.initial_bzoo,
                          dataset.test_initial_bphy, dataset.test_initial_bzoo),
                      {dataset.initial_bphy, dataset.initial_bzoo},
                      river::SimulationConfig{}, /*compiled=*/true)
          .series[0];
  CsvTable table = dataset.ToCsv();
  table.column_names.push_back("chla_forecast");
  for (std::size_t t = 0; t < table.rows.size(); ++t) {
    table.rows[t].push_back(forecast[t]);
  }
  const std::string out = "river_forecast.csv";
  if (WriteCsv(out, table)) {
    std::printf("\nwrote %s (drivers + observations + free-run forecast)\n",
                out.c_str());
  }

  // Persist the revised model for later reuse (core/model_io.h).
  core::SavedModel saved;
  saved.equations = best.best_equations;
  saved.parameters = best.best.parameters;
  std::vector<std::string> parameter_names;
  for (int slot = 0; slot < river::kNumParameters; ++slot) {
    parameter_names.push_back(river::ParameterName(slot));
  }
  if (core::SaveModel("river_model.txt", saved, parameter_names)) {
    std::printf("wrote river_model.txt (revised equations + constants)\n");
  }
  return 0;
}
