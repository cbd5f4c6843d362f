#include "gggp/gggp.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
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

void AtomicFetchMin(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value < current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

/// Shared evaluation with optional short-circuiting against the best fully
/// evaluated fitness so far (same scheme as Algorithm 1; GGGP gets the same
/// speedups as GMR for a fair comparison, including parallel batches with
/// the frontier discipline from SpeedupConfig::frontier_mode).
class Evaluator {
 public:
  Evaluator(const gp::SequentialFitness* fitness,
            const gp::SpeedupConfig& config, obs::TelemetrySink* sink)
      : fitness_(fitness), config_(config), sink_(obs::ResolveSink(sink)) {}

  /// Pure evaluation against a caller-supplied frontier; sets *fully to
  /// whether the run went to completion (vs. short-circuited). Safe to call
  /// from several threads at once.
  double EvaluateAgainst(const GggpIndividual& individual, double frontier,
                         bool* fully) const {
    const std::size_t num_cases = fitness_->num_cases();
    auto eval = fitness_->Begin(individual.equations, individual.parameters,
                                config_.runtime_compilation);
    *fully = true;
    double fitness = 0.0;
    std::size_t i = 0;
    while (i < num_cases) {
      const bool more = eval->Step();
      fitness = eval->CurrentFitness();
      ++i;
      if (config_.short_circuiting && frontier < 1e299 && i < num_cases &&
          fitness > frontier * config_.es_threshold) {
        const double estimate = config_.extrapolate(fitness, i, num_cases);
        if (estimate > frontier) {
          *fully = false;
          return estimate;
        }
      }
      if (!more) break;
    }
    return fitness;
  }

  /// Serial path: a one-element batch, so the frontier advances
  /// immediately (the pre-parallel behavior).
  double Evaluate(const GggpIndividual& individual) {
    ++evaluations_;
    bool fully = false;
    const double fitness = EvaluateAgainst(
        individual, best_prev_full_.load(std::memory_order_relaxed), &fully);
    if (fully) AtomicFetchMin(&best_prev_full_, fitness);
    return fitness;
  }

  /// Assigns `individual->fitness` for the whole batch, fanned out across
  /// `pool`. Under kFrozenFrontier every item cuts against the same
  /// snapshot and the batch minimum folds in afterwards, so the assigned
  /// values are identical for any thread count.
  void EvaluateBatch(ThreadPool* pool,
                     const std::vector<GggpIndividual*>& batch) {
    if (batch.empty()) return;
    const bool shared =
        config_.frontier_mode == gp::FrontierMode::kShared;
    const double snapshot = best_prev_full_.load(std::memory_order_relaxed);
    std::vector<double> full_fitness(
        batch.size(), std::numeric_limits<double>::infinity());
    const std::vector<TaskFailure> failures =
        ParallelFor(pool, batch.size(), [&](std::size_t i) {
          const double frontier =
              shared ? best_prev_full_.load(std::memory_order_relaxed)
                     : snapshot;
          bool fully = false;
          const double fitness = EvaluateAgainst(*batch[i], frontier, &fully);
          batch[i]->fitness = fitness;
          if (fully) {
            if (shared) {
              AtomicFetchMin(&best_prev_full_, fitness);
            } else {
              full_fitness[i] = fitness;
            }
          }
        });
    // Barrier conversion, mirroring gp::FitnessEvaluator: a throwing task
    // penalizes only its own individual and never enters the frontier.
    for (const TaskFailure& failure : failures) {
      batch[failure.index]->fitness = kPenaltyFitness;
      full_fitness[failure.index] = std::numeric_limits<double>::infinity();
    }
    evaluations_ += batch.size();
    for (double fitness : full_fitness) {
      AtomicFetchMin(&best_prev_full_, fitness);
    }
    if (sink_->enabled()) {
      // Coordinator-only emission at the batch barrier (the same contract
      // as gp::FitnessEvaluator): deterministic order and, under
      // kFrozenFrontier, deterministic field values for any thread count.
      obs::TraceEvent event("eval_batch");
      event.Field("n", static_cast<double>(batch.size()))
          .Field("individuals", static_cast<double>(batch.size()))
          .Field("task_failures", static_cast<double>(failures.size()))
          .Field("frontier",
                 best_prev_full_.load(std::memory_order_relaxed));
      sink_->Emit(std::move(event));
    }
  }

  std::size_t evaluations() const { return evaluations_; }

  /// Checkpoint hooks (coordinator-only, between batches).
  double best_prev_full() const {
    return best_prev_full_.load(std::memory_order_relaxed);
  }
  void Restore(double frontier, std::size_t evaluations) {
    best_prev_full_.store(frontier, std::memory_order_relaxed);
    evaluations_ = evaluations;
  }

 private:
  const gp::SequentialFitness* fitness_;
  gp::SpeedupConfig config_;
  obs::TelemetrySink* sink_;
  std::atomic<double> best_prev_full_{1e300};
  std::size_t evaluations_ = 0;
};

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
                        const Evaluator& evaluator, const Rng& rng,
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
  ckpt::Section* ev = snapshot.AddSection("evaluator");
  ev->lines.push_back("frontier " +
                      ckpt::HexDouble(evaluator.best_prev_full()));
  ev->lines.push_back("evaluations " +
                      std::to_string(evaluator.evaluations()));
  snapshot.AddSection("history")->lines = {
      ckpt::SerializeDoubles(result.best_fitness_history)};
  checkpointer->Save(std::move(snapshot));
}

bool RestoreGggpCheckpoint(const ckpt::Snapshot& snapshot,
                           const GggpConfig& config,
                           std::vector<GggpIndividual>* population,
                           Evaluator* evaluator, Rng* rng, GggpResult* result,
                           int* start_generation) {
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
    if (!ckpt::ParseDoubles(pop_section->lines[i], &individual.parameters)) {
      return false;
    }
    ++i;
    restored.push_back(std::move(individual));
  }
  if (restored.size() != static_cast<std::size_t>(config.population_size)) {
    return false;
  }

  const ckpt::Section* ev_section = snapshot.FindSection("evaluator");
  double frontier;
  std::size_t evaluations;
  if (ev_section == nullptr || ev_section->lines.size() != 2 ||
      ev_section->lines[0].compare(0, 9, "frontier ") != 0 ||
      !ckpt::ParseHexDouble(ev_section->lines[0].substr(9), &frontier)) {
    return false;
  }
  {
    const std::string& line = ev_section->lines[1];
    if (line.compare(0, 12, "evaluations ") != 0 ||
        !ParseUnsigned(std::string_view(line).substr(12), &evaluations)) {
      return false;
    }
  }

  const ckpt::Section* history_section = snapshot.FindSection("history");
  std::vector<double> history;
  if (history_section == nullptr || history_section->lines.size() != 1 ||
      !ckpt::ParseDoubles(history_section->lines[0], &history)) {
    return false;
  }

  rng->RestoreState(rng_state);
  evaluator->Restore(frontier, evaluations);
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
  Evaluator evaluator(&fitness, config.speedups, sink);
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
        RestoreGggpCheckpoint(*snapshot, config, &population, &evaluator,
                              &rng, &result, &start_generation)) {
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
        {"short_circuiting",
         config.speedups.short_circuiting ? 1.0 : 0.0},
        {"runtime_compilation",
         config.speedups.runtime_compilation ? 1.0 : 0.0},
    };
    manifest.num_threads = pool != nullptr ? pool->num_threads() : 1;
    obs::EmitManifest(sink, manifest);
  }

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
    std::vector<GggpIndividual*> batch;
    batch.reserve(population.size());
    for (GggpIndividual& individual : population) {
      batch.push_back(&individual);
    }
    evaluator.EvaluateBatch(pool, batch);
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
    if (sink->enabled()) {
      double sum = 0.0;
      for (const GggpIndividual& individual : population) {
        sum += individual.fitness;
      }
      obs::TraceEvent event("generation");
      event.Field("gen", static_cast<double>(generation))
          .Field("best_fitness", population.front().fitness)
          .Field("mean_fitness",
                 sum / static_cast<double>(population.size()));
      sink->Emit(std::move(event));
    }

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
    {
      std::vector<GggpIndividual*> batch;
      batch.reserve(pending.size());
      for (std::size_t index : pending) batch.push_back(&population[index]);
      evaluator.EvaluateBatch(pool, batch);
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
  result.evaluations = evaluator.evaluations();
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
