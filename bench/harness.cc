#include "bench/harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "baselines/arimax.h"
#include "baselines/lstm.h"
#include "calibrate/methods.h"
#include "common/cli.h"
#include "gggp/gggp.h"
#include "river/biology.h"
#include "river/parameters.h"
#include "river/simulate.h"
#include "river/variables.h"

namespace gmr::bench {

BenchOptions BenchOptions::Parse(int argc, char** argv) {
  BenchOptions options;
  const char* tool = argc > 0 ? argv[0] : "bench";
  if (const char* env = std::getenv("GMR_BENCH_THREADS")) {
    options.threads = ParseUnsignedOrExit(tool, "GMR_BENCH_THREADS", env, 1);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      const char* value = i + 1 < argc ? argv[++i] : nullptr;
      options.threads = ParseUnsignedOrExit(tool, "--threads", value, 1);
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      options.trace_path = argv[++i];
    }
  }
  return options;
}

ConfigHasher& ConfigHasher::Add(const char* key, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%s=%.17g;", key, value);
  for (const char* p = buffer; *p != '\0'; ++p) {
    hash_ ^= static_cast<unsigned char>(*p);
    hash_ *= 1099511628211ull;
  }
  return *this;
}

std::uint64_t HashGmrConfig(const core::GmrConfig& config) {
  const gp::Tag3pConfig& t = config.tag3p;
  const gp::SpeedupConfig& s = t.speedups;
  ConfigHasher hasher;
  hasher.Add("population_size", t.population_size)
      .Add("max_generations", t.max_generations)
      .Add("elite_size", t.elite_size)
      .Add("tournament_size", t.tournament_size)
      .Add("min_size", t.bounds.min_size)
      .Add("max_size", t.bounds.max_size)
      .Add("p_crossover", t.p_crossover)
      .Add("p_subtree_mutation", t.p_subtree_mutation)
      .Add("p_gaussian_mutation", t.p_gaussian_mutation)
      .Add("crossover_retries", t.crossover_retries)
      .Add("local_search_steps", t.local_search_steps)
      .Add("local_search_parameter_tweak", t.local_search_parameter_tweak)
      .Add("elite_polish_steps", t.elite_polish_steps)
      .Add("sigma_rampdown_generations", t.sigma_rampdown_generations)
      .Add("sigma_final_scale", t.sigma_final_scale)
      .Add("seed_alpha_index", t.seed_alpha_index)
      .Add("tree_caching", s.tree_caching)
      .Add("short_circuiting", s.short_circuiting)
      .Add("es_threshold", s.es_threshold)
      .Add("runtime_compilation", s.runtime_compilation)
      .Add("simplify_before_eval", s.simplify_before_eval);
  return hasher.hash();
}

void WriteBenchJson(const std::string& path, const std::string& name,
                    int threads, const std::vector<BenchRow>& rows) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(file,
               "{\n  \"bench\": \"%s\",\n  \"schema_version\": 2,\n"
               "  \"threads\": %d,\n",
               name.c_str(), threads);
  std::fprintf(file, "  \"rows\": [\n");
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const BenchRow& row = rows[r];
    std::fprintf(file,
                 "    {\"method\": \"%s\", \"seed\": %llu, "
                 "\"config_hash\": \"%016llx\", \"stats\": {",
                 row.method.c_str(),
                 static_cast<unsigned long long>(row.seed),
                 static_cast<unsigned long long>(row.config_hash));
    for (std::size_t i = 0; i < row.stats.size(); ++i) {
      const auto& [key, value] = row.stats[i];
      std::fprintf(file, "%s\"%s\": %.9g", i == 0 ? "" : ", ", key.c_str(),
                   value);
    }
    std::fprintf(file, "}}%s\n", r + 1 < rows.size() ? "," : "");
  }
  std::fprintf(file, "  ]\n}\n");
  std::fclose(file);
  std::printf("wrote %s\n", path.c_str());
}

Scale Scale::FromEnvironment() {
  Scale scale;
  const char* env = std::getenv("GMR_BENCH_SCALE");
  if (env != nullptr && std::strcmp(env, "full") == 0) {
    scale.data_years = 13;
    scale.train_years = 10;
    scale.local_search_steps = 5;
    scale.runs = 20;
    scale.gggp_runs = 8;
    scale.calibration_budget = 20000;
    scale.lstm_epochs = 300;
    scale.lstm_hidden_cap_all = 64;
  }
  return scale;
}

river::RiverDataset MakeDataset(const Scale& scale) {
  river::SyntheticConfig config;
  config.years = scale.data_years;
  config.train_years = scale.train_years;
  config.seed = scale.data_seed;
  return river::GenerateNakdongLike(config);
}

core::GmrConfig MakeGmrConfig(const Scale& scale, std::uint64_t seed) {
  core::GmrConfig config;
  config.tag3p.population_size = scale.population;
  config.tag3p.max_generations = scale.generations;
  config.tag3p.local_search_steps = scale.local_search_steps;
  config.tag3p.sigma_rampdown_generations =
      std::max(1, scale.generations / 5);
  config.tag3p.seed = seed;
  return config;
}

void PrintTableV(const std::vector<AccuracyRow>& rows) {
  double best_test_rmse = std::numeric_limits<double>::infinity();
  double best_test_mae = std::numeric_limits<double>::infinity();
  for (const AccuracyRow& row : rows) {
    best_test_rmse = std::min(best_test_rmse, row.report.test_rmse);
    best_test_mae = std::min(best_test_mae, row.report.test_mae);
  }

  std::printf("%-18s %-12s %14s %14s %14s %14s\n", "Method class", "Method",
              "Train RMSE", "Train MAE", "Test RMSE", "Test MAE");
  std::printf("%s\n", std::string(92, '-').c_str());
  for (const AccuracyRow& row : rows) {
    const bool best_rmse = row.report.test_rmse == best_test_rmse;
    const bool best_mae = row.report.test_mae == best_test_mae;
    char rmse_buf[32];
    char mae_buf[32];
    std::snprintf(rmse_buf, sizeof(rmse_buf), "%.3f%s", row.report.test_rmse,
                  best_rmse ? " *" : "");
    std::snprintf(mae_buf, sizeof(mae_buf), "%.3f%s", row.report.test_mae,
                  best_mae ? " *" : "");
    std::printf("%-18s %-12s %14.3f %14.3f %14s %14s\n",
                row.method_class.c_str(), row.method.c_str(),
                row.report.train_rmse, row.report.train_mae, rmse_buf,
                mae_buf);
  }

  // Figure 1: best vs second-best deltas.
  std::vector<double> rmses;
  std::vector<double> maes;
  for (const AccuracyRow& row : rows) {
    rmses.push_back(row.report.test_rmse);
    maes.push_back(row.report.test_mae);
  }
  std::sort(rmses.begin(), rmses.end());
  std::sort(maes.begin(), maes.end());
  if (rmses.size() >= 2) {
    std::printf(
        "\n[Figure 1] best test RMSE %.3f vs second best %.3f (%.0f%% "
        "lower)\n",
        rmses[0], rmses[1], 100.0 * (1.0 - rmses[0] / rmses[1]));
    std::printf(
        "[Figure 1] best test MAE  %.3f vs second best %.3f (%.0f%% "
        "lower)\n",
        maes[0], maes[1], 100.0 * (1.0 - maes[0] / maes[1]));
  }
}

AccuracyRow RunManualMethod(const river::RiverDataset& dataset) {
  AccuracyRow row;
  row.method_class = "Knowledge-driven";
  row.method = "MANUAL";
  row.report = core::EvaluateAccuracy(
      river::ManualProcess(), gp::PriorMeans(river::RiverParameterPriors()),
      dataset, river::SimulationConfig{});
  return row;
}

std::vector<AccuracyRow> RunCalibrationMethods(
    const river::RiverDataset& dataset, const Scale& scale) {
  const auto priors = river::RiverParameterPriors();
  const auto manual = river::ManualProcess();
  const river::RiverFitness fitness =
      river::RiverFitness::ForTraining(&dataset);
  calibrate::Objective objective = [&](const std::vector<double>& params) {
    auto eval = fitness.Begin(manual, params, /*compiled=*/true);
    while (eval->Step()) {
    }
    return eval->CurrentFitness();
  };
  const calibrate::BoxBounds bounds = calibrate::BoundsFromPriors(priors);
  const std::vector<double> initial = gp::PriorMeans(priors);

  std::vector<AccuracyRow> rows;
  for (const auto& calibrator : calibrate::AllCalibrators()) {
    calibrate::CalibrationConfig config;
    config.budget = scale.calibration_budget;
    config.seed = 1000 + rows.size();
    const calibrate::CalibrationResult result = calibrate::Run(
        *calibrator, config,
        calibrate::CalibrationProblem{.objective = objective,
                                      .bounds = bounds,
                                      .initial = initial,
                                      .active = {},
                                      .gradient = {}});
    AccuracyRow row;
    row.method_class = "Model calibration";
    row.method = calibrator->name();
    row.report = core::EvaluateAccuracy(manual, result.best_parameters,
                                        dataset, river::SimulationConfig{});
    rows.push_back(std::move(row));
  }
  return rows;
}

namespace {

/// The data-driven baselines forecast at the cadence the biomass is
/// actually measured (weekly at S1): predicting a linearly interpolated
/// daily series one day ahead is degenerate (the interpolant is locally
/// linear), so both ARIMAX and the RNN operate on the sampled series —
/// current-sample features predict the next sample's biomass. Process
/// models, by contrast, free-run the whole period.
struct SampledSeries {
  std::vector<double> y;
  std::vector<std::vector<double>> features;
  std::size_t train_count = 0;
};

SampledSeries MakeSampledSeries(const river::RiverDataset& dataset,
                                bool all_stations) {
  SampledSeries sampled;
  const auto& days = dataset.bphy_sample_days;
  sampled.y.reserve(days.size());
  for (std::size_t day : days) {
    sampled.y.push_back(dataset.observed_bphy[day]);
    if (day < dataset.train_end) ++sampled.train_count;
  }
  auto add_series = [&](const std::vector<double>& daily) {
    std::vector<double> at_samples;
    at_samples.reserve(days.size());
    for (std::size_t day : days) at_samples.push_back(daily[day]);
    sampled.features.push_back(std::move(at_samples));
  };
  if (all_stations && !dataset.station_drivers.empty()) {
    for (const auto& station : dataset.station_drivers) {
      for (const auto& series : station) add_series(series);
    }
  } else {
    for (int slot : river::ObservedVariableSlots()) {
      add_series(dataset.drivers[static_cast<std::size_t>(slot)]);
    }
  }
  return sampled;
}

}  // namespace

std::vector<AccuracyRow> RunArimaxMethods(
    const river::RiverDataset& dataset) {
  std::vector<AccuracyRow> rows;
  for (bool all : {false, true}) {
    const SampledSeries sampled = MakeSampledSeries(dataset, all);
    const baselines::ArimaxResult result =
        baselines::FitArimax(sampled.y, sampled.features,
                             sampled.train_count, baselines::ArimaxConfig{});
    AccuracyRow row;
    row.method_class = "Data-driven";
    row.method = all ? "ARIMAX-ALL" : "ARIMAX-S1";
    row.report.train_rmse = result.train_rmse;
    row.report.train_mae = result.train_mae;
    row.report.test_rmse = result.test_rmse;
    row.report.test_mae = result.test_mae;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<AccuracyRow> RunRnnMethods(const river::RiverDataset& dataset,
                                       const Scale& scale) {
  std::vector<AccuracyRow> rows;
  for (bool all : {false, true}) {
    const SampledSeries sampled = MakeSampledSeries(dataset, all);
    baselines::LstmConfig config;
    config.epochs = scale.lstm_epochs;
    config.seed = 17;
    config.window = 26;  // Half a year of weekly samples per BPTT window.
    if (all) config.hidden_cap = scale.lstm_hidden_cap_all;
    const baselines::LstmResult result = baselines::TrainAndEvaluateLstm(
        sampled.features, sampled.y, sampled.train_count, config);
    AccuracyRow row;
    row.method_class = "Data-driven";
    row.method = all ? "RNN-ALL" : "RNN-S1";
    // The paper reports the best model by test RMSE over training.
    row.report.train_rmse = result.train_rmse;
    row.report.train_mae = result.train_mae;
    row.report.test_rmse = result.best_test_rmse;
    row.report.test_mae = result.best_test_mae;
    rows.push_back(std::move(row));
  }
  return rows;
}

AccuracyRow RunGggpMethod(const river::RiverDataset& dataset,
                          const Scale& scale) {
  const river::RiverFitness fitness =
      river::RiverFitness::ForTraining(&dataset);
  gggp::GggpConfig config;
  // "GGGP ... used a population of 1200 individuals to use the same number
  // of fitness evaluations" — 6x GMR's population (no local search).
  config.population_size = scale.population * 6;
  config.max_generations = scale.generations;
  config.sigma_rampdown_generations = std::max(1, scale.generations / 5);
  config.speedups.runtime_compilation = true;
  config.speedups.short_circuiting = true;
  config.speedups.tree_caching = false;

  const gggp::CfgGrammar grammar = gggp::RiverCfgGrammar();
  const gp::ParameterPriors priors = river::RiverParameterPriors();
  const gggp::GggpProblem problem{river::ManualProcess(), &grammar, &priors,
                                  &fitness};

  AccuracyRow row;
  row.method_class = "Model revision";
  row.method = "GGGP";
  double best_test = std::numeric_limits<double>::infinity();
  for (int run = 0; run < scale.gggp_runs; ++run) {
    config.seed = 500 + static_cast<std::uint64_t>(run);
    const gggp::GggpResult result = gggp::RunGggp(config, problem);
    const core::AccuracyReport report = core::EvaluateAccuracy(
        result.best.equations, result.best.parameters, dataset,
        river::SimulationConfig{});
    if (report.test_rmse < best_test) {
      best_test = report.test_rmse;
      row.report = report;
    }
  }
  return row;
}

GmrOutcome RunGmrMethod(const river::RiverDataset& dataset,
                        const Scale& scale) {
  const core::RiverPriorKnowledge knowledge =
      core::BuildRiverPriorKnowledge();
  GmrOutcome outcome;
  outcome.row.method_class = "Model revision";
  outcome.row.method = "GMR";
  double best_test = std::numeric_limits<double>::infinity();
  const core::GmrProblem problem{&dataset, &knowledge};
  for (int run = 0; run < scale.runs; ++run) {
    const core::GmrConfig config =
        MakeGmrConfig(scale, 900 + static_cast<std::uint64_t>(run));
    core::GmrRunResult result = core::RunGmr(config, problem);
    if (result.test_rmse < best_test) {
      best_test = result.test_rmse;
      outcome.row.report.train_rmse = result.train_rmse;
      outcome.row.report.train_mae = result.train_mae;
      outcome.row.report.test_rmse = result.test_rmse;
      outcome.row.report.test_mae = result.test_mae;
    }
    outcome.runs.push_back(std::move(result));
  }
  return outcome;
}

}  // namespace gmr::bench
