#ifndef GMR_GGGP_GGGP_H_
#define GMR_GGGP_GGGP_H_

#include <cstdint>
#include <vector>

#include "gggp/cfg.h"
#include "gp/evaluator.h"
#include "gp/fitness.h"
#include "gp/parameter_prior.h"
#include "obs/run_context.h"

namespace gmr::gggp {

/// A GGGP individual: one expression tree per process equation plus the
/// constant-parameter vector.
struct GggpIndividual {
  std::vector<expr::ExprPtr> equations;
  std::vector<double> parameters;
  double fitness = 1e300;
};

/// GGGP search configuration (paper Appendix B: same settings as GMR, but
/// a 1200 population because GGGP has no local search and should spend the
/// same number of fitness evaluations).
struct GggpConfig {
  int population_size = 1200;
  int max_generations = 100;
  int elite_size = 2;
  int tournament_size = 5;
  double p_crossover = 0.3;
  double p_subtree_mutation = 0.3;
  double p_gaussian_mutation = 0.3;
  /// Maximum depth of freshly grown subtrees.
  int grow_depth = 4;
  /// Upper bound on equation size (nodes) to keep bloat in check.
  std::size_t max_equation_nodes = 400;
  int sigma_rampdown_generations = 20;
  double sigma_final_scale = 0.1;
  std::uint64_t seed = 1;
  /// Evaluation speedups, applied by the same gp::FitnessEvaluator as GMR's
  /// (tree caching, short-circuiting, runtime compilation, parallel
  /// evaluation, static gate). `simplify_before_eval` has no effect here:
  /// GGGP scores its equations as bred, since simplifying can turn a NaN
  /// into a finite value (`x - x` at x = inf) and so change a fitness.
  gp::SpeedupConfig speedups;
};

struct GggpResult {
  GggpIndividual best;
  std::vector<double> best_fitness_history;
  gp::EvalStats eval_stats;
};

/// The domain side of a GGGP run (unified driver API): the expert process
/// the population is seeded with, plus the grammar/priors/fitness it
/// evolves under. Pointees are borrowed and must outlive the run.
struct GggpProblem {
  std::vector<expr::ExprPtr> seed_equations;
  const CfgGrammar* grammar = nullptr;
  const gp::ParameterPriors* priors = nullptr;
  const gp::SequentialFitness* fitness = nullptr;
};

/// Runs grammar-guided GP model revision: the population is seeded with the
/// input process (`problem.seed_equations`) and evolves both structure (via
/// CFG-constrained crossover/mutation) and parameters (Gaussian mutation
/// under the priors). Shared resources (pool, telemetry, RNG) come from
/// `context`; a default context reproduces the standalone behavior.
GggpResult RunGggp(const GggpConfig& config, const GggpProblem& problem,
                   const obs::RunContext& context = {});

/// Standalone entry point (default RunContext).
GggpResult RunGggp(const std::vector<expr::ExprPtr>& seed_equations,
                   const CfgGrammar& grammar,
                   const gp::ParameterPriors& priors,
                   const gp::SequentialFitness& fitness,
                   const GggpConfig& config);

/// The river CFG: all Table II variables, the model state, all Table III
/// parameters, and the full operator set.
CfgGrammar RiverCfgGrammar();

}  // namespace gmr::gggp

#endif  // GMR_GGGP_GGGP_H_
