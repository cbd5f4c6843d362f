#ifndef GMR_GP_TAG3P_H_
#define GMR_GP_TAG3P_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "gp/evaluator.h"
#include "gp/fitness.h"
#include "gp/individual.h"
#include "gp/operators.h"
#include "gp/parameter_prior.h"
#include "obs/run_context.h"
#include "tag/grammar.h"

namespace gmr::ckpt {
struct Snapshot;
}  // namespace gmr::ckpt

namespace gmr::gp {

/// Configuration of the TAG3P search (paper Appendix B defaults).
struct Tag3pConfig {
  int population_size = 200;
  int max_generations = 100;
  int elite_size = 2;
  int tournament_size = 5;
  SizeBounds bounds{2, 50};

  /// Operator probabilities; replication takes the remainder.
  double p_crossover = 0.3;
  double p_subtree_mutation = 0.3;
  double p_gaussian_mutation = 0.3;

  int crossover_retries = 5;

  /// Stochastic hill-climbing local search steps applied to each offspring
  /// produced by crossover/mutation (0 disables local search).
  int local_search_steps = 5;

  /// Includes the single-parameter and single-lexeme tweak moves in local
  /// search alongside insertion/deletion (see ParameterTweak/LexemeTweak in
  /// operators.h — extensions over the paper's local search).
  bool local_search_parameter_tweak = true;

  /// Memetic elite polish (extension, see DESIGN.md): hill-climbing steps
  /// of parameter/lexeme tweaks applied to the generation's best individual
  /// after reproduction. This gives a lineage that discovered the right
  /// structure a fast lane for tuning its constants instead of waiting for
  /// Gaussian drift. 0 disables.
  int elite_polish_steps = 25;

  /// Gradient-informed elite constant polish (extension, DESIGN.md §4l):
  /// projected steepest-descent steps (with step halving) on the elite's
  /// parameter vector, driven by the problem's exact reverse-mode gradient
  /// (Tag3pProblem::gradient). RNG-free — candidate construction and
  /// acceptance draw no random numbers — so runs stay deterministic under
  /// kFrozenFrontier; watchdog-aborted rollouts carry the deterministic
  /// penalty gradient (never NaN) and simply fail to improve. 0 (the
  /// default) disables, leaving legacy runs bit-identical. Ignored when
  /// the problem has no gradient side-channel.
  int elite_gradient_steps = 0;

  /// Gaussian-mutation sigma "ramped down linearly in the final k
  /// generations".
  int sigma_rampdown_generations = 20;
  double sigma_final_scale = 0.1;

  /// Index of the seed alpha tree the population is grown from.
  int seed_alpha_index = 0;

  SpeedupConfig speedups;
  std::uint64_t seed = 1;
};

/// What the TAG3P search runs against — the domain side of the unified
/// `Run(config, problem, context)` driver API. The grammar and fitness are
/// borrowed (must outlive the run); the priors are owned by the problem.
struct Tag3pProblem {
  const tag::Grammar* grammar = nullptr;
  const SequentialFitness* fitness = nullptr;
  ParameterPriors priors;
  /// Optional gradient side-channel of `fitness` (borrowed; e.g.
  /// grad::RiverGradientFitness over the same window). Enables
  /// Tag3pConfig::elite_gradient_steps; null keeps the search purely
  /// derivative-free.
  const GradientFitness* gradient = nullptr;
};

/// Per-generation search telemetry.
struct GenerationStats {
  int generation = 0;
  double best_fitness = 0.0;
  double mean_fitness = 0.0;
  double best_size = 0.0;
  double seconds = 0.0;
};

/// Search outcome.
struct Tag3pResult {
  Individual best;
  std::vector<GenerationStats> history;
  EvalStats eval_stats;
};

/// The TAG3P engine (Figure 5): evolves a population of derivation trees
/// with tournament selection, elitism, the four genetic operators, and
/// optional hill-climbing local search, under the four speedup techniques
/// (TC, ES, RC, and PE — parallel evaluation across a fixed thread pool).
/// The engine is domain-agnostic — the problem enters via the grammar
/// (plausible processes & revisions), the parameter priors, and the
/// sequential fitness.
///
/// Parallel structure per generation: breeding (all RNG draws) stays
/// sequential on the coordinator, then offspring fitness evaluation fans
/// out as one batch, then local search fans out with one deterministically
/// pre-seeded RNG stream per offspring. In kFrozenFrontier mode the whole
/// trajectory is bit-identical for any `speedups.num_threads`.
class Tag3pEngine {
 public:
  /// Unified-API constructor: resources (pool, telemetry sink, RNG) come
  /// from the context; null entries fall back to config-derived defaults
  /// (see obs::RunContext). The context's pointees must outlive the engine.
  Tag3pEngine(const Tag3pProblem& problem, Tag3pConfig config,
              const obs::RunContext& context);

  /// Standalone constructor: default context (owned pool/RNG, tracing off).
  Tag3pEngine(const tag::Grammar* grammar, const SequentialFitness* fitness,
              ParameterPriors priors, Tag3pConfig config);

  /// Runs the full loop and returns the best individual found.
  Tag3pResult Run();

  /// Optional per-generation observer (e.g. for progress printing).
  using GenerationCallback = std::function<void(const GenerationStats&)>;
  void set_generation_callback(GenerationCallback callback) {
    generation_callback_ = std::move(callback);
  }

  /// The evaluator, exposing cache/short-circuit statistics.
  const FitnessEvaluator& evaluator() const { return evaluator_; }

 private:
  std::vector<Individual> InitializePopulation();
  const Individual& TournamentSelect(const std::vector<Individual>& population);
  /// One individual's stochastic hill climb, evaluating through `context`
  /// (worker-safe) and drawing from `rng` (the individual's own stream).
  void LocalSearch(Individual* individual, Rng& rng,
                   FitnessEvaluator::BatchContext* context);
  /// One gradient descent step on `incumbent`'s parameters through
  /// `context`: an adjoint gradient, then up to six halving trial steps
  /// from `*trust`. True when a trial improved (and replaced) the incumbent.
  bool GradientStep(const std::vector<expr::ExprPtr>& equations,
                    Individual* incumbent, double* trust,
                    FitnessEvaluator::BatchContext* context);
  /// Fans the local searches of `population[indices]` out across the pool.
  void LocalSearchBatch(std::vector<Individual>* population,
                        const std::vector<std::size_t>& indices);
  double SigmaScale(int generation) const;

  /// Config identity lines a snapshot must match to be resumable.
  std::vector<std::string> CheckpointFingerprint() const;
  /// Snapshots the full engine state at the end of `generation`.
  void SaveCheckpoint(int generation,
                      const std::vector<Individual>& population,
                      const Tag3pResult& result);
  /// Restores state from a snapshot; false on any parse/validation failure
  /// (the caller then starts fresh — a bad snapshot never aborts a run).
  bool RestoreCheckpoint(const ckpt::Snapshot& snapshot,
                         std::vector<Individual>* population,
                         Tag3pResult* result, int* start_generation);

  const tag::Grammar* grammar_;
  ParameterPriors priors_;
  const GradientFitness* gradient_;  ///< Borrowed; null = no polish.
  Tag3pConfig config_;
  FitnessEvaluator evaluator_;
  Rng own_rng_;  ///< Used unless the context supplies an external stream.
  Rng& rng_;
  /// Shared pool from the context, or an owned one derived from
  /// `speedups.num_threads` (null pool() means serial).
  obs::PoolLease pool_lease_;
  obs::TelemetrySink* sink_;
  ckpt::Checkpointer* checkpointer_;  ///< Null = checkpointing off.
  GenerationCallback generation_callback_;
};

/// Unified driver entry point: one TAG3P search over `problem` under
/// `config`, drawing shared resources from `context`.
Tag3pResult RunTag3p(const Tag3pConfig& config, const Tag3pProblem& problem,
                     const obs::RunContext& context = {});

}  // namespace gmr::gp

#endif  // GMR_GP_TAG3P_H_
