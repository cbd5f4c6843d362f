#include "gggp/gggp.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>

#include "ckpt/checkpoint.h"
#include "ckpt/serialize.h"
#include "common/check.h"
#include "common/parse.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/manifest.h"
#include "river/parameters.h"
#include "river/variables.h"

namespace gmr::gggp {
namespace {

std::vector<std::string> GggpFingerprint(const GggpConfig& config,
                                         std::size_t num_species) {
  return ckpt::MakeFingerprint({
      {"seed", std::to_string(config.seed)},
      {"population_size", std::to_string(config.population_size)},
      {"max_generations", std::to_string(config.max_generations)},
      {"elite_size", std::to_string(config.elite_size)},
      // State-vector width of the problem: resumes across different
      // constituent registries are refused.
      {"num_species", std::to_string(num_species)},
  });
}

void SaveGggpCheckpoint(ckpt::Checkpointer* checkpointer,
                        const GggpConfig& config, int generation,
                        const std::vector<GggpIndividual>& population,
                        const gp::FitnessEvaluator& evaluator, const Rng& rng,
                        const GggpResult& result,
                        std::size_t num_species) {
  ckpt::Snapshot snapshot;
  snapshot.driver = "gggp";
  snapshot.step = static_cast<std::uint64_t>(generation);
  snapshot.AddSection("fingerprint")->lines =
      GggpFingerprint(config, num_species);
  snapshot.AddSection("rng")->lines = {
      ckpt::SerializeRngState(rng.SaveState())};
  ckpt::Section* pop = snapshot.AddSection("population");
  for (const GggpIndividual& individual : population) {
    pop->lines.push_back("i " + ckpt::HexDouble(individual.fitness) + " " +
                         std::to_string(individual.equations.size()));
    for (const expr::ExprPtr& equation : individual.equations) {
      pop->lines.push_back(ckpt::SerializeExpr(*equation));
    }
    pop->lines.push_back(ckpt::SerializeDoubles(individual.parameters));
  }
  evaluator.SaveState(&snapshot);
  snapshot.AddSection("history")->lines = {
      ckpt::SerializeDoubles(result.best_fitness_history)};
  checkpointer->Save(std::move(snapshot));
}

/// Restores a snapshot written by SaveGggpCheckpoint; false on any parse or
/// validation failure, with nothing touched (the caller then starts fresh).
/// Every individual must carry one equation per seed equation and one
/// parameter per prior, as breeding assumes.
bool RestoreGggpCheckpoint(const ckpt::Snapshot& snapshot,
                           const GggpConfig& config,
                           const GggpProblem& problem,
                           std::vector<GggpIndividual>* population,
                           gp::FitnessEvaluator* evaluator, Rng* rng,
                           GggpResult* result, int* start_generation) {
  const ckpt::Section* rng_section = snapshot.FindSection("rng");
  RngState rng_state;
  if (rng_section == nullptr || rng_section->lines.size() != 1 ||
      !ckpt::ParseRngState(rng_section->lines[0], &rng_state)) {
    return false;
  }

  const ckpt::Section* pop_section = snapshot.FindSection("population");
  if (pop_section == nullptr) return false;
  std::vector<GggpIndividual> restored;
  restored.reserve(static_cast<std::size_t>(config.population_size));
  std::size_t i = 0;
  while (i < pop_section->lines.size()) {
    const std::vector<std::string> head =
        ckpt::TokenizeSExpr(pop_section->lines[i]);
    GggpIndividual individual;
    std::size_t num_equations = 0;
    if (head.size() != 3 || head[0] != "i" ||
        !ckpt::ParseHexDouble(head[1], &individual.fitness) ||
        !ParseUnsigned(head[2], &num_equations) ||
        num_equations != problem.seed_equations.size() ||
        num_equations >= pop_section->lines.size() - i - 1) {
      return false;
    }
    ++i;
    for (std::size_t eq = 0; eq < num_equations; ++eq, ++i) {
      std::string error;
      expr::ExprPtr equation =
          ckpt::ParseExprLine(pop_section->lines[i], &error);
      if (equation == nullptr) return false;
      individual.equations.push_back(std::move(equation));
    }
    if (!ckpt::ParseDoubles(pop_section->lines[i], &individual.parameters) ||
        individual.parameters.size() != problem.priors->size()) {
      return false;
    }
    ++i;
    restored.push_back(std::move(individual));
  }
  if (restored.size() != static_cast<std::size_t>(config.population_size)) {
    return false;
  }

  const ckpt::Section* history_section = snapshot.FindSection("history");
  std::vector<double> history;
  if (history_section == nullptr || history_section->lines.size() != 1 ||
      !ckpt::ParseDoubles(history_section->lines[0], &history)) {
    return false;
  }

  // The evaluator commits last: it restores only when its own sections
  // parse, and nothing after it can fail.
  if (!evaluator->RestoreState(snapshot)) return false;
  rng->RestoreState(rng_state);
  *population = std::move(restored);
  result->best_fitness_history = std::move(history);
  *start_generation = static_cast<int>(snapshot.step) + 1;
  return true;
}

const GggpIndividual& Tournament(const std::vector<GggpIndividual>& population,
                                 int size, Rng& rng) {
  const GggpIndividual* best = nullptr;
  for (int i = 0; i < size; ++i) {
    const GggpIndividual& candidate = population[rng.PickIndex(population)];
    if (best == nullptr || candidate.fitness < best->fitness) {
      best = &candidate;
    }
  }
  return *best;
}

}  // namespace

CfgGrammar RiverCfgGrammar() {
  CfgGrammar grammar;
  for (int slot = 0; slot < river::kNumVariables; ++slot) {
    grammar.variable_slots.push_back(slot);
    grammar.variable_names.push_back(river::VariableName(slot));
  }
  for (int slot = 0; slot < river::kNumParameters; ++slot) {
    grammar.parameter_slots.push_back(slot);
    grammar.parameter_names.push_back(river::ParameterName(slot));
  }
  grammar.binary_ops = {expr::NodeKind::kAdd, expr::NodeKind::kSub,
                        expr::NodeKind::kMul, expr::NodeKind::kDiv};
  grammar.unary_ops = {expr::NodeKind::kLog, expr::NodeKind::kExp};
  return grammar;
}

GggpResult RunGggp(const GggpConfig& config, const GggpProblem& problem,
                   const obs::RunContext& context) {
  const std::vector<expr::ExprPtr>& seed_equations = problem.seed_equations;
  const CfgGrammar& grammar = *problem.grammar;
  const gp::ParameterPriors& priors = *problem.priors;
  const gp::SequentialFitness& fitness = *problem.fitness;
  GMR_CHECK(!seed_equations.empty());
  Rng own_rng(config.seed);
  Rng& rng = context.rng != nullptr ? *context.rng : own_rng;
  obs::TelemetrySink* sink = obs::ResolveSink(context.sink);
  // No grammar: GGGP scores its equations as bred, through the phenotype
  // entry points only.
  gp::FitnessEvaluator evaluator(nullptr, &fitness, config.speedups);
  evaluator.set_telemetry_sink(sink);
  obs::PoolLease pool_lease =
      obs::LeasePool(context, config.speedups.num_threads);
  ThreadPool* const pool = pool_lease.pool();
  const std::vector<double> means = gp::PriorMeans(priors);

  GggpResult result;
  std::vector<GggpIndividual> population;
  int start_generation = 0;
  bool resumed = false;
  if (context.checkpointer != nullptr) {
    const ckpt::Snapshot* snapshot =
        context.checkpointer->ResumeFor(
            "gggp", GggpFingerprint(config, fitness.num_states()));
    if (snapshot != nullptr &&
        RestoreGggpCheckpoint(*snapshot, config, problem, &population,
                              &evaluator, &rng, &result, &start_generation)) {
      resumed = true;
    }
  }

  // A resumed trace already contains the first segment's manifest.
  if (!resumed && sink->enabled()) {
    obs::RunManifest manifest = obs::MakeRunManifest("gggp", config.seed);
    manifest.config_fields = {
        {"population_size", static_cast<double>(config.population_size)},
        {"max_generations", static_cast<double>(config.max_generations)},
        {"elite_size", static_cast<double>(config.elite_size)},
        {"tournament_size", static_cast<double>(config.tournament_size)},
        {"p_crossover", config.p_crossover},
        {"p_subtree_mutation", config.p_subtree_mutation},
        {"p_gaussian_mutation", config.p_gaussian_mutation},
        {"grow_depth", static_cast<double>(config.grow_depth)},
        {"tree_caching", config.speedups.tree_caching ? 1.0 : 0.0},
        {"short_circuiting",
         config.speedups.short_circuiting ? 1.0 : 0.0},
        {"runtime_compilation",
         config.speedups.runtime_compilation ? 1.0 : 0.0},
    };
    manifest.num_threads = pool != nullptr ? pool->num_threads() : 1;
    obs::EmitManifest(sink, manifest);
  }

  // Scores population[indices] as one evaluator batch.
  auto evaluate = [&](const std::vector<std::size_t>& indices) {
    std::vector<std::vector<expr::ExprPtr>> equations;
    std::vector<std::vector<double>> parameters;
    equations.reserve(indices.size());
    parameters.reserve(indices.size());
    for (std::size_t index : indices) {
      equations.push_back(population[index].equations);
      parameters.push_back(population[index].parameters);
    }
    const std::vector<gp::Verdict> verdicts =
        evaluator.EvaluateBatch(equations, parameters, pool);
    for (std::size_t k = 0; k < indices.size(); ++k) {
      population[indices[k]].fitness = verdicts[k].fitness;
    }
  };

  auto mutate_structure = [&](GggpIndividual* individual) {
    const std::size_t eq = rng.PickIndex(individual->equations);
    expr::ExprPtr& tree = individual->equations[eq];
    const std::size_t index =
        static_cast<std::size_t>(rng.UniformInt(tree->NodeCount()));
    const expr::ExprPtr grown =
        GrowRandomExpr(grammar, config.grow_depth, rng);
    expr::ExprPtr candidate = ReplaceNodeAt(tree, index, grown);
    if (candidate->NodeCount() <= config.max_equation_nodes) {
      tree = std::move(candidate);
    }
  };

  // Initial population: the input process with progressively more random
  // structural edits (index 0 is the unmodified expert process).
  if (!resumed) {
    population.reserve(static_cast<std::size_t>(config.population_size));
    while (population.size() <
           static_cast<std::size_t>(config.population_size)) {
      GggpIndividual individual;
      individual.equations = seed_equations;
      individual.parameters = means;
      const int edits = static_cast<int>(population.size() % 4);
      for (int e = 0; e < edits; ++e) mutate_structure(&individual);
      population.push_back(std::move(individual));
    }
    std::vector<std::size_t> everyone(population.size());
    for (std::size_t i = 0; i < everyone.size(); ++i) everyone[i] = i;
    evaluate(everyone);
  }

  for (int generation = start_generation;
       generation < config.max_generations; ++generation) {
    const int k = config.sigma_rampdown_generations;
    const int rampdown_start = config.max_generations - k;
    double sigma_scale = 1.0;
    if (k > 0 && generation >= rampdown_start) {
      const double progress = static_cast<double>(generation - rampdown_start) /
                              static_cast<double>(k);
      sigma_scale = 1.0 + (config.sigma_final_scale - 1.0) * progress;
    }

    std::sort(population.begin(), population.end(),
              [](const GggpIndividual& a, const GggpIndividual& b) {
                return a.fitness < b.fitness;
              });
    result.best_fitness_history.push_back(population.front().fitness);

    std::vector<GggpIndividual> next(
        population.begin(),
        population.begin() + std::min<std::size_t>(
                                 static_cast<std::size_t>(config.elite_size),
                                 population.size()));
    // Breeding is sequential (it owns the RNG); modified offspring are
    // batch-evaluated afterwards. Selection only reads the previous
    // generation, so deferring evaluation changes nothing it sees.
    std::vector<std::size_t> pending;  // indices into `next` needing eval
    while (next.size() < population.size()) {
      const double dice = rng.Uniform();
      if (dice < config.p_crossover) {
        GggpIndividual a = Tournament(population, config.tournament_size, rng);
        const GggpIndividual& b =
            Tournament(population, config.tournament_size, rng);
        // Subtree crossover within the same equation index.
        const std::size_t eq = rng.PickIndex(a.equations);
        const expr::ExprPtr& donor = b.equations[eq];
        const std::size_t from =
            static_cast<std::size_t>(rng.UniformInt(donor->NodeCount()));
        const std::size_t to = static_cast<std::size_t>(
            rng.UniformInt(a.equations[eq]->NodeCount()));
        expr::ExprPtr sub = std::shared_ptr<const expr::Expr>(
            donor, &NodeAt(*donor, from));
        expr::ExprPtr candidate = ReplaceNodeAt(a.equations[eq], to, sub);
        if (candidate->NodeCount() <= config.max_equation_nodes) {
          a.equations[eq] = std::move(candidate);
          pending.push_back(next.size());
        }
        next.push_back(std::move(a));
      } else if (dice < config.p_crossover + config.p_subtree_mutation) {
        GggpIndividual child =
            Tournament(population, config.tournament_size, rng);
        mutate_structure(&child);
        pending.push_back(next.size());
        next.push_back(std::move(child));
      } else if (dice < config.p_crossover + config.p_subtree_mutation +
                            config.p_gaussian_mutation) {
        GggpIndividual child =
            Tournament(population, config.tournament_size, rng);
        for (std::size_t i = 0; i < priors.size(); ++i) {
          child.parameters[i] = rng.TruncatedGaussian(
              child.parameters[i], priors[i].InitialSigma() * sigma_scale,
              priors[i].lo, priors[i].hi);
        }
        for (auto& eq : child.equations) {
          eq = JitterConstants(eq, sigma_scale, rng);
        }
        pending.push_back(next.size());
        next.push_back(std::move(child));
      } else {
        next.push_back(Tournament(population, config.tournament_size, rng));
      }
    }
    population = std::move(next);
    evaluate(pending);
    // The generation's curve point covers the population it just scored,
    // as TAG3P's does, so the last point is the run's best.
    if (sink->enabled()) {
      double best = population.front().fitness;
      double sum = 0.0;
      for (const GggpIndividual& individual : population) {
        best = std::min(best, individual.fitness);
        sum += individual.fitness;
      }
      obs::TraceEvent event("generation");
      event.Field("gen", static_cast<double>(generation))
          .Field("best_fitness", best)
          .Field("mean_fitness",
                 sum / static_cast<double>(population.size()));
      sink->Emit(std::move(event));
    }

    // Batch barrier: drain buffered trace events, then checkpoint on the
    // configured cadence.
    sink->Flush();
    if (context.checkpointer != nullptr &&
        context.checkpointer->ShouldSnapshot(
            static_cast<std::uint64_t>(generation))) {
      SaveGggpCheckpoint(context.checkpointer, config, generation, population,
                         evaluator, rng, result, fitness.num_states());
    }
  }

  std::sort(population.begin(), population.end(),
            [](const GggpIndividual& a, const GggpIndividual& b) {
              return a.fitness < b.fitness;
            });
  result.best = population.front();
  result.best_fitness_history.push_back(result.best.fitness);
  result.eval_stats = evaluator.stats();
  return result;
}

GggpResult RunGggp(const std::vector<expr::ExprPtr>& seed_equations,
                   const CfgGrammar& grammar,
                   const gp::ParameterPriors& priors,
                   const gp::SequentialFitness& fitness,
                   const GggpConfig& config) {
  GggpProblem problem;
  problem.seed_equations = seed_equations;
  problem.grammar = &grammar;
  problem.priors = &priors;
  problem.fitness = &fitness;
  return RunGggp(config, problem, obs::RunContext{});
}

}  // namespace gmr::gggp
