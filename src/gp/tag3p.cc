#include "gp/tag3p.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "ckpt/checkpoint.h"
#include "ckpt/serialize.h"
#include "common/check.h"
#include "common/parse.h"
#include "common/timer.h"
#include "obs/manifest.h"

namespace gmr::gp {
namespace {

std::string EncodeGenStats(const GenerationStats& stats) {
  return std::to_string(stats.generation) + " " +
         ckpt::HexDouble(stats.best_fitness) + " " +
         ckpt::HexDouble(stats.mean_fitness) + " " +
         ckpt::HexDouble(stats.best_size) + " " +
         ckpt::HexDouble(stats.seconds);
}

bool DecodeGenStats(const std::string& line, GenerationStats* stats) {
  const std::vector<std::string> t = ckpt::TokenizeSExpr(line);
  std::size_t generation;
  GenerationStats g;
  if (t.size() != 5 || !ParseUnsigned(t[0], &generation) ||
      !ckpt::ParseHexDouble(t[1], &g.best_fitness) ||
      !ckpt::ParseHexDouble(t[2], &g.mean_fitness) ||
      !ckpt::ParseHexDouble(t[3], &g.best_size) ||
      !ckpt::ParseHexDouble(t[4], &g.seconds)) {
    return false;
  }
  g.generation = static_cast<int>(generation);
  *stats = g;
  return true;
}

}  // namespace

Tag3pEngine::Tag3pEngine(const Tag3pProblem& problem, Tag3pConfig config,
                         const obs::RunContext& context)
    : grammar_(problem.grammar),
      priors_(problem.priors),
      gradient_(problem.gradient),
      config_(config),
      evaluator_(problem.grammar, problem.fitness, config.speedups),
      own_rng_(config.seed),
      rng_(context.rng != nullptr ? *context.rng : own_rng_),
      pool_lease_(obs::LeasePool(context, config.speedups.num_threads)),
      sink_(obs::ResolveSink(context.sink)),
      checkpointer_(context.checkpointer) {
  GMR_CHECK(grammar_ != nullptr);
  GMR_CHECK_GT(config_.population_size, 0);
  GMR_CHECK_GE(config_.elite_size, 0);
  GMR_CHECK_LE(config_.elite_size, config_.population_size);
  GMR_CHECK_GT(config_.tournament_size, 0);
  GMR_CHECK_EQ(priors_.size(), problem.fitness->num_parameters());
  evaluator_.set_telemetry_sink(sink_);
}

Tag3pEngine::Tag3pEngine(const tag::Grammar* grammar,
                         const SequentialFitness* fitness,
                         ParameterPriors priors, Tag3pConfig config)
    : Tag3pEngine(Tag3pProblem{grammar, fitness, std::move(priors)}, config,
                  obs::RunContext{}) {}

std::vector<Individual> Tag3pEngine::InitializePopulation() {
  std::vector<Individual> population;
  population.reserve(static_cast<std::size_t>(config_.population_size));
  const std::vector<double> means = PriorMeans(priors_);
  while (population.size() <
         static_cast<std::size_t>(config_.population_size)) {
    // "TAG3P selects an individual size between MINSIZE and MAXSIZE ...
    // picks up beta-trees and their adjoining addresses at random, and
    // performs adjoining."
    const std::size_t target = static_cast<std::size_t>(rng_.UniformInt(
        static_cast<int>(config_.bounds.min_size),
        static_cast<int>(config_.bounds.max_size)));
    Individual individual;
    individual.genotype = tag::GrowRandom(
        *grammar_, config_.seed_alpha_index, target, rng_);
    // "In the beginning, parameters are set to the expected value."
    individual.parameters = means;
    population.push_back(std::move(individual));
  }
  return population;
}

const Individual& Tag3pEngine::TournamentSelect(
    const std::vector<Individual>& population) {
  const Individual* best = nullptr;
  for (int i = 0; i < config_.tournament_size; ++i) {
    const Individual& candidate =
        population[rng_.PickIndex(population)];
    if (best == nullptr || candidate.fitness < best->fitness) {
      best = &candidate;
    }
  }
  return *best;
}

double Tag3pEngine::SigmaScale(int generation) const {
  const int k = config_.sigma_rampdown_generations;
  const int start = config_.max_generations - k;
  if (k <= 0 || generation < start) return 1.0;
  const double progress = static_cast<double>(generation - start) /
                          static_cast<double>(std::max(k, 1));
  return 1.0 + (config_.sigma_final_scale - 1.0) * progress;
}

void Tag3pEngine::LocalSearch(Individual* individual, Rng& rng,
                              FitnessEvaluator::BatchContext* context) {
  // Stochastic hill climbing: insertion/deletion (and optionally a
  // single-parameter tweak) with equal probability, "adopting the change if
  // it improves the fitness" (Section III-D). Runs on a worker thread with
  // the offspring's own RNG stream, so searches of different offspring are
  // independent and the outcome does not depend on the thread count.
  const int num_moves = config_.local_search_parameter_tweak ? 4 : 2;
  for (int step = 0; step < config_.local_search_steps; ++step) {
    Individual candidate = individual->Clone();
    bool applied = false;
    switch (rng.UniformInt(0, num_moves - 1)) {
      case 0:
        applied =
            PointInsertion(*grammar_, config_.bounds, &candidate, rng);
        break;
      case 1:
        applied = PointDeletion(config_.bounds, &candidate, rng);
        break;
      case 2:
        applied = LexemeTweak(&candidate, rng);
        break;
      default:
        applied = priors_.empty() ? LexemeTweak(&candidate, rng)
                                  : ParameterTweak(priors_, &candidate, rng);
        break;
    }
    if (!applied) continue;
    context->Evaluate(&candidate);
    if (candidate.fitness < individual->fitness) {
      *individual = std::move(candidate);
    }
  }
}

bool Tag3pEngine::GradientStep(const std::vector<expr::ExprPtr>& equations,
                               Individual* incumbent, double* trust,
                               FitnessEvaluator::BatchContext* context) {
  double value = 0.0;
  std::vector<double> grad;
  GradientFitness::GradientStats grad_stats;
  const bool trustworthy = gradient_->EvaluateGradient(
      equations, incumbent->parameters, &value, &grad, &grad_stats);
  context->NoteGradientWork(1, grad_stats.tape_nodes, 0);
  if (!trustworthy || grad.size() != incumbent->parameters.size()) {
    return false;  // no usable descent direction (tape fault, NaN adjoint)
  }
  double grad_max = 0.0;
  for (const double g : grad) grad_max = std::max(grad_max, std::abs(g));
  if (grad_max == 0.0) return false;  // flat (e.g. fully aborted rollout)
  // Only a step's last candidate can be accepted. A rejected one scores no
  // better than the incumbent, itself at or above the frontier, so the
  // step's frozen frontier cuts each candidate as a per-candidate fold would.
  for (int halve = 0; halve < 6; ++halve) {
    Individual candidate = incumbent->Clone();
    bool moved = false;
    for (std::size_t i = 0; i < candidate.parameters.size(); ++i) {
      const double span = priors_[i].hi - priors_[i].lo;
      double p = candidate.parameters[i] -
                 *trust * 0.1 * span * (grad[i] / grad_max);
      p = std::min(std::max(p, priors_[i].lo), priors_[i].hi);
      moved = moved || p != candidate.parameters[i];
      candidate.parameters[i] = p;
    }
    if (moved) {
      context->Evaluate(&candidate);
      context->NoteGradientWork(0, 0, 1);
      if (candidate.fitness < incumbent->fitness) {
        *incumbent = std::move(candidate);
        *trust = std::min(1.0, *trust * 2.0);
        return true;
      }
    }
    *trust *= 0.5;
  }
  return false;
}

void Tag3pEngine::LocalSearchBatch(std::vector<Individual>* population,
                                   const std::vector<std::size_t>& indices) {
  if (config_.local_search_steps <= 0 || indices.empty()) return;
  // Seeds are drawn sequentially from the engine RNG before the fan-out so
  // the streams — and therefore the search trajectories — are identical
  // for any thread count.
  std::vector<std::uint64_t> seeds(indices.size());
  for (std::uint64_t& seed : seeds) seed = rng_.NextUint64();
  const std::vector<TaskFailure> failures = evaluator_.RunBatch(
      pool_lease_.pool(), indices.size(),
      [this, population, &indices, &seeds](
          std::size_t k, FitnessEvaluator::BatchContext* context) {
        Rng local_rng(seeds[k]);
        LocalSearch(&(*population)[indices[k]], local_rng, context);
      });
  // A local-search task that threw is contained: the individual keeps the
  // fitness it already earned in the evaluation batch and only misses this
  // generation's hill climbing. Any individual the failure left unevaluated
  // (it never had a fitness) is penalized so sorting stays well-defined.
  for (const TaskFailure& failure : failures) {
    Individual& individual = (*population)[indices[failure.index]];
    if (!individual.IsEvaluated()) {
      individual.fitness = kPenaltyFitness;
      individual.fully_evaluated = true;
      individual.outcome = EvalOutcome::kTaskFailed;
    }
  }
}

Tag3pResult Tag3pEngine::Run() {
  Tag3pResult result;
  std::vector<Individual> population;
  int start_generation = 0;
  bool resumed = false;
  if (checkpointer_ != nullptr) {
    const ckpt::Snapshot* snapshot =
        checkpointer_->ResumeFor("tag3p", CheckpointFingerprint());
    if (snapshot != nullptr &&
        RestoreCheckpoint(*snapshot, &population, &result,
                          &start_generation)) {
      resumed = true;
    }
  }

  // The manifest was already written (and made durable) by the first
  // segment of a resumed run; re-emitting it would duplicate it in the
  // continued trace.
  if (!resumed && sink_->enabled()) {
    obs::RunManifest manifest = obs::MakeRunManifest("tag3p", config_.seed);
    manifest.config_fields = {
        {"population_size", static_cast<double>(config_.population_size)},
        {"max_generations", static_cast<double>(config_.max_generations)},
        {"elite_size", static_cast<double>(config_.elite_size)},
        {"tournament_size", static_cast<double>(config_.tournament_size)},
        {"p_crossover", config_.p_crossover},
        {"p_subtree_mutation", config_.p_subtree_mutation},
        {"p_gaussian_mutation", config_.p_gaussian_mutation},
        {"local_search_steps",
         static_cast<double>(config_.local_search_steps)},
        {"elite_polish_steps",
         static_cast<double>(config_.elite_polish_steps)},
        {"tree_caching", config_.speedups.tree_caching ? 1.0 : 0.0},
        {"short_circuiting", config_.speedups.short_circuiting ? 1.0 : 0.0},
        {"runtime_compilation",
         config_.speedups.runtime_compilation ? 1.0 : 0.0},
    };
    // Thread count is environment, not config: the trajectory (and the
    // deterministic trace classes) must not depend on it, so it must not
    // break byte-comparability.
    manifest.num_threads = pool_lease_.pool() != nullptr
                               ? pool_lease_.pool()->num_threads()
                               : 1;
    obs::EmitManifest(sink_, manifest);
  }

  if (!resumed) {
    population = InitializePopulation();
    std::vector<Individual*> batch;
    batch.reserve(population.size());
    for (Individual& individual : population) batch.push_back(&individual);
    evaluator_.EvaluateBatch(batch, pool_lease_.pool());
  }

  for (int generation = start_generation;
       generation < config_.max_generations; ++generation) {
    Timer gen_timer;
    const double sigma_scale = SigmaScale(generation);

    // Sort ascending by fitness so elites are at the front.
    std::sort(population.begin(), population.end(),
              [](const Individual& a, const Individual& b) {
                return a.fitness < b.fitness;
              });

    std::vector<Individual> next;
    next.reserve(population.size());
    for (int e = 0; e < config_.elite_size; ++e) {
      next.push_back(population[static_cast<std::size_t>(e)].Clone());
    }

    // Breeding stays sequential (it owns the engine RNG); the offspring of
    // successful operator applications are evaluated and locally searched
    // afterwards as batches. Selection reads only the previous generation,
    // so deferring evaluation does not change what breeding sees.
    std::vector<std::size_t> bred;  // indices into `next` needing eval + LS
    while (next.size() < population.size()) {
      const double dice = rng_.Uniform();
      if (dice < config_.p_crossover && population.size() >= 2) {
        Individual a = TournamentSelect(population).Clone();
        Individual b = TournamentSelect(population).Clone();
        const bool crossed =
            Crossover(*grammar_, config_.bounds, config_.crossover_retries,
                      &a, &b, rng_);
        if (crossed) bred.push_back(next.size());
        next.push_back(std::move(a));
        if (next.size() < population.size()) {
          if (crossed) bred.push_back(next.size());
          next.push_back(std::move(b));
        }
      } else if (dice < config_.p_crossover + config_.p_subtree_mutation) {
        Individual child = TournamentSelect(population).Clone();
        if (SubtreeMutation(*grammar_, config_.bounds, &child, rng_)) {
          bred.push_back(next.size());
        }
        next.push_back(std::move(child));
      } else if (dice < config_.p_crossover + config_.p_subtree_mutation +
                            config_.p_gaussian_mutation) {
        Individual child = TournamentSelect(population).Clone();
        GaussianMutation(priors_, sigma_scale, &child, rng_);
        bred.push_back(next.size());
        next.push_back(std::move(child));
      } else {
        // Replication.
        next.push_back(TournamentSelect(population).Clone());
      }
    }
    population = std::move(next);

    {
      // Fresh offspring (whose copied parent fitness is stale) plus any
      // individual left unevaluated defensively — one batch.
      std::vector<Individual*> batch;
      batch.reserve(bred.size());
      for (std::size_t index : bred) batch.push_back(&population[index]);
      for (std::size_t i = 0; i < population.size(); ++i) {
        if (!population[i].IsEvaluated() &&
            std::find(bred.begin(), bred.end(), i) == bred.end()) {
          batch.push_back(&population[i]);
        }
      }
      evaluator_.EvaluateBatch(batch, pool_lease_.pool());
    }

    LocalSearchBatch(&population, bred);

    // Memetic elite polish: fine-tune the constants of the generation's
    // best individual by hill climbing (see Tag3pConfig::elite_polish_steps).
    if (config_.elite_polish_steps > 0) {
      Individual* incumbent = &population.front();
      for (Individual& individual : population) {
        if (individual.fitness < incumbent->fitness) incumbent = &individual;
      }
      for (int step = 0; step < config_.elite_polish_steps; ++step) {
        Individual candidate = incumbent->Clone();
        const bool tweak_lexeme = priors_.empty() || rng_.Bernoulli(0.5);
        const bool applied = tweak_lexeme
                                 ? LexemeTweak(&candidate, rng_)
                                 : ParameterTweak(priors_, &candidate, rng_);
        if (!applied) continue;
        evaluator_.EvaluateBatch({&candidate}, pool_lease_.pool());
        if (candidate.fitness < incumbent->fitness) {
          *incumbent = std::move(candidate);
        }
      }
    }

    // Gradient-informed constant polish (see
    // Tag3pConfig::elite_gradient_steps): projected steepest descent with
    // step halving on the elite's parameters, driven by the exact
    // reverse-mode rollout gradient. RNG-free; acceptance only on strict
    // improvement. Each descent step is a one-item evaluator batch, so
    // cache, frontier and statistics keep the barrier's discipline.
    if (config_.elite_gradient_steps > 0 && gradient_ != nullptr &&
        !priors_.empty()) {
      Individual* incumbent = &population.front();
      for (Individual& individual : population) {
        if (individual.fitness < incumbent->fitness) incumbent = &individual;
      }
      // The polish only moves parameters, never the genotype, so the
      // phenotype is fixed for the whole descent.
      const std::vector<expr::ExprPtr> equations =
          evaluator_.Phenotype(*incumbent);
      double trust = 1.0;
      bool accepted = true;
      for (int step = 0; step < config_.elite_gradient_steps && accepted;
           ++step) {
        accepted = false;  // stays false when the step's task throws
        evaluator_.RunBatch(
            pool_lease_.pool(), 1,
            [&](std::size_t, FitnessEvaluator::BatchContext* context) {
              accepted = GradientStep(equations, incumbent, &trust, context);
            });
      }
    }

    GenerationStats stats;
    stats.generation = generation;
    const Individual* best = &population.front();
    double sum = 0.0;
    for (const Individual& individual : population) {
      sum += individual.fitness;
      if (individual.fitness < best->fitness) best = &individual;
    }
    stats.best_fitness = best->fitness;
    stats.mean_fitness = sum / static_cast<double>(population.size());
    stats.best_size = static_cast<double>(best->Size());
    stats.seconds = gen_timer.ElapsedSeconds();
    result.history.push_back(stats);
    if (sink_->enabled()) {
      obs::TraceEvent event("generation");
      event.Field("gen", static_cast<double>(stats.generation))
          .Field("best_fitness", stats.best_fitness)
          .Field("mean_fitness", stats.mean_fitness)
          .Field("best_size", stats.best_size)
          .Timing("seconds", stats.seconds);
      sink_->Emit(std::move(event));
    }
    if (generation_callback_) generation_callback_(stats);

    // Generation end is the batch barrier: drain the trace sink's buffered
    // tail (an abnormal termination then loses at most the current
    // generation's events, which the resume re-emits) and checkpoint on
    // the configured cadence.
    sink_->Flush();
    if (checkpointer_ != nullptr &&
        checkpointer_->ShouldSnapshot(
            static_cast<std::uint64_t>(generation))) {
      SaveCheckpoint(generation, population, result);
    }
  }

  std::sort(population.begin(), population.end(),
            [](const Individual& a, const Individual& b) {
              return a.fitness < b.fitness;
            });
  result.best = population.front().Clone();
  result.eval_stats = evaluator_.stats();
  return result;
}

std::vector<std::string> Tag3pEngine::CheckpointFingerprint() const {
  return ckpt::MakeFingerprint({
      {"seed", std::to_string(config_.seed)},
      {"population_size", std::to_string(config_.population_size)},
      {"max_generations", std::to_string(config_.max_generations)},
      {"elite_size", std::to_string(config_.elite_size)},
      {"local_search_steps", std::to_string(config_.local_search_steps)},
      {"elite_polish_steps", std::to_string(config_.elite_polish_steps)},
      {"elite_gradient_steps",
       std::to_string(config_.elite_gradient_steps)},
      // State-vector width of the problem: a resume against a checkpoint
      // written for a different constituent registry is refused.
      {"num_species", std::to_string(evaluator_.fitness()->num_states())},
  });
}

void Tag3pEngine::SaveCheckpoint(int generation,
                                 const std::vector<Individual>& population,
                                 const Tag3pResult& result) {
  ckpt::Snapshot snapshot;
  snapshot.driver = "tag3p";
  snapshot.step = static_cast<std::uint64_t>(generation);
  snapshot.AddSection("fingerprint")->lines = CheckpointFingerprint();
  snapshot.AddSection("rng")->lines = {
      ckpt::SerializeRngState(rng_.SaveState())};

  ckpt::Section* pop = snapshot.AddSection("population");
  pop->lines.reserve(population.size() * 3);
  for (const Individual& individual : population) {
    pop->lines.push_back(
        "i " + EncodeVerdict(Verdict{individual.fitness,
                                     individual.fully_evaluated,
                                     individual.outcome}));
    pop->lines.push_back(ckpt::SerializeDerivation(*individual.genotype));
    pop->lines.push_back(ckpt::SerializeDoubles(individual.parameters));
  }

  evaluator_.SaveState(&snapshot);

  ckpt::Section* history = snapshot.AddSection("history");
  for (const GenerationStats& stats : result.history) {
    history->lines.push_back(EncodeGenStats(stats));
  }

  checkpointer_->Save(std::move(snapshot));
}

bool Tag3pEngine::RestoreCheckpoint(const ckpt::Snapshot& snapshot,
                                    std::vector<Individual>* population,
                                    Tag3pResult* result,
                                    int* start_generation) {
  // Parse everything into locals first: a torn/garbled section must leave
  // the engine untouched so the caller can fall back to a fresh start.
  const ckpt::Section* rng_section = snapshot.FindSection("rng");
  RngState rng_state;
  if (rng_section == nullptr || rng_section->lines.size() != 1 ||
      !ckpt::ParseRngState(rng_section->lines[0], &rng_state)) {
    return false;
  }

  const ckpt::Section* pop_section = snapshot.FindSection("population");
  if (pop_section == nullptr || pop_section->lines.size() % 3 != 0 ||
      pop_section->lines.size() / 3 !=
          static_cast<std::size_t>(config_.population_size)) {
    return false;
  }
  std::vector<Individual> restored;
  restored.reserve(pop_section->lines.size() / 3);
  for (std::size_t i = 0; i < pop_section->lines.size(); i += 3) {
    const std::vector<std::string> head =
        ckpt::TokenizeSExpr(pop_section->lines[i]);
    Verdict verdict;
    if (head.size() != 4 || head[0] != "i" ||
        !DecodeVerdict(head, 1, &verdict)) {
      return false;
    }
    Individual individual;
    individual.fitness = verdict.fitness;
    individual.fully_evaluated = verdict.fully_evaluated;
    individual.outcome = verdict.outcome;
    std::string error;
    individual.genotype =
        ckpt::ParseDerivationLine(pop_section->lines[i + 1], &error);
    if (individual.genotype == nullptr ||
        !tag::Validate(*grammar_, *individual.genotype, &error)) {
      return false;
    }
    // Breeding indexes the parameter vector by prior, so a vector of any
    // other length is malformed, however well-formed its line.
    if (!ckpt::ParseDoubles(pop_section->lines[i + 2],
                            &individual.parameters) ||
        individual.parameters.size() != priors_.size()) {
      return false;
    }
    restored.push_back(std::move(individual));
  }

  const ckpt::Section* history_section = snapshot.FindSection("history");
  if (history_section == nullptr) return false;
  std::vector<GenerationStats> history;
  history.reserve(history_section->lines.size());
  for (const std::string& line : history_section->lines) {
    GenerationStats gen_stats;
    if (!DecodeGenStats(line, &gen_stats)) return false;
    history.push_back(gen_stats);
  }

  // The evaluator commits last: it restores only when its own sections
  // parse, and nothing after it can fail.
  if (!evaluator_.RestoreState(snapshot)) return false;
  rng_.RestoreState(rng_state);
  *population = std::move(restored);
  result->history = std::move(history);
  *start_generation = static_cast<int>(snapshot.step) + 1;
  return true;
}

Tag3pResult RunTag3p(const Tag3pConfig& config, const Tag3pProblem& problem,
                     const obs::RunContext& context) {
  Tag3pEngine engine(problem, config, context);
  return engine.Run();
}

}  // namespace gmr::gp
