#ifndef GMR_GP_EVALUATOR_H_
#define GMR_GP_EVALUATOR_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/striped_map.h"
#include "common/thread_pool.h"
#include "gp/fitness.h"
#include "gp/individual.h"
#include "obs/telemetry.h"
#include "tag/grammar.h"

namespace gmr::ckpt {
struct Snapshot;
}  // namespace gmr::ckpt

namespace gmr::gp {

/// Aggregate evaluation statistics, the measurements behind Figures 10
/// and 11. Plain counters: worker threads accumulate into per-lane local
/// instances that are Merge()d into the evaluator's totals at each batch
/// barrier, so the hot path never touches shared cache lines.
struct EvalStats {
  std::size_t individuals_evaluated = 0;  ///< Calls that ran the simulation.
  std::size_t cache_hits = 0;
  std::size_t cache_lookups = 0;
  std::size_t full_evaluations = 0;
  std::size_t short_circuited = 0;
  /// Candidates the static gate rejected before any integration (also
  /// counted in outcomes[kStaticReject]; surfaced separately so harness
  /// JSON can report a reject rate without decoding the outcome array).
  std::size_t static_rejects = 0;
  std::size_t time_steps_evaluated = 0;
  /// Elapsed coordinator time: the wall clock is sampled once per batch (a
  /// cache hit never pays a clock read), so this is what a user waits for.
  double wall_seconds = 0.0;
  /// Summed per-lane busy time across all worker lanes; exceeds
  /// wall_seconds under parallel evaluation (the old `eval_seconds`
  /// conflated the two).
  double cpu_seconds = 0.0;
  /// Time spent preparing candidates for evaluation rather than evaluating
  /// them: SequentialFitness::Begin (which hosts the per-candidate compile
  /// under the RC backends) and the generation-level PrepareBatch compile
  /// pass. Previously folded silently into cpu_seconds; kept as a separate
  /// bucket so compile cost is attributable. Lane-side Begin time is also
  /// part of cpu_seconds; the coordinator-side PrepareBatch pass is also
  /// part of wall_seconds.
  double compile_seconds = 0.0;
  /// Containment telemetry: computed evaluations by EvalOutcome (cache hits
  /// are not re-counted; index with static_cast<std::size_t>(outcome)).
  std::size_t outcomes[kNumEvalOutcomes] = {};
  /// Static-gate verdict-cache traffic. Separate from the tree-cache
  /// counters above: verdict keys are structure-only, so one verdict
  /// serves every in-domain parameter vector of the same phenotype.
  std::size_t verdict_cache_lookups = 0;
  std::size_t verdict_cache_hits = 0;
  /// Static-gate rejections by analysis rule (index with
  /// static_cast<std::size_t>(analysis::GateRule); slot 0 = kNone stays
  /// zero). Sums to static_rejects.
  std::size_t gate_rule_rejects[analysis::kNumGateRules] = {};
  /// Gradient side-channel telemetry (elite constant polish): adjoint
  /// gradient evaluations, the register-tape instructions they reversed
  /// (summed per evaluation), and line-search (descent candidate)
  /// evaluations spent polishing.
  std::size_t gradient_evaluations = 0;
  std::size_t tape_nodes = 0;
  std::size_t linesearch_steps = 0;

  /// Adds every counter of `other` into this (associative and commutative,
  /// so per-thread partial stats can fold in any order).
  void Merge(const EvalStats& other);

  double CacheHitRate() const {
    return cache_lookups == 0
               ? 0.0
               : static_cast<double>(cache_hits) /
                     static_cast<double>(cache_lookups);
  }
};

/// The verdict of one evaluation: what a candidate scored and how. Also the
/// tree cache's value type, so a cache hit replays the whole verdict.
struct Verdict {
  double fitness = 0.0;
  /// True when `fitness` came from a full (non-short-circuited) evaluation.
  bool fully_evaluated = false;
  /// Why the evaluation produced this fitness (containment telemetry).
  EvalOutcome outcome = EvalOutcome::kOk;
};

/// A verdict as checkpoint text: the fitness's hex bits, 0 or 1 for
/// fully_evaluated, and the outcome's number, space-separated.
std::string EncodeVerdict(const Verdict& verdict);

/// Parses the three tokens EncodeVerdict wrote, starting at `tokens[at]`.
bool DecodeVerdict(const std::vector<std::string>& tokens, std::size_t at,
                   Verdict* verdict);

/// Scores candidates against a SequentialFitness, applying the enabled
/// speedup techniques: tree caching (with algebraic simplification),
/// evaluation short-circuiting (Algorithm 1), runtime compilation, and
/// parallel evaluation. Tracks bestPrevFull — the best fitness seen from
/// *full* evaluations — which gates the short-circuit test.
///
/// A candidate is a phenotype — equations plus a parameter vector — and one
/// body scores it (BatchContext::Evaluate). The `Individual` entry points
/// are adapters that expand the TAG genotype first (inside the lane) and
/// write the verdict back; GGGP, whose genotype is already its equations,
/// scores phenotypes directly.
///
/// Thread model: both `EvaluateBatch` overloads, `RunBatch`, `SaveState`
/// and `RestoreState` are coordinator-only; worker threads evaluate
/// exclusively through a per-lane `BatchContext`. The tree cache is a
/// striped hash map shared by all lanes. Every evaluation of a batch cuts
/// against the frontier frozen at the batch start, and the batch's
/// full-evaluation minimum folds in at the barrier, so each fitness is a
/// pure function of (phenotype, parameters, frozen frontier) and results
/// are bit-identical for any thread count. The barrier is also the only
/// place the run's EvalStats grow, and it emits each batch's delta as one
/// `eval_batch` event, so a trace sums to the statistics exactly.
class FitnessEvaluator {
 public:
  /// `grammar` expands Individual genotypes; it may be null when the caller
  /// only scores phenotypes.
  FitnessEvaluator(const tag::Grammar* grammar,
                   const SequentialFitness* fitness, SpeedupConfig config);

  /// Per-lane evaluation handle within one batch. Holds the frozen
  /// frontier snapshot, the lane's partial statistics, and the lane's best
  /// full-evaluation fitness; created at the batch start on the coordinator
  /// and used by exactly one thread until the barrier absorbs it.
  class BatchContext {
   public:
    BatchContext() = default;

    /// Scores one phenotype: domain check, static gate, tree cache, then
    /// Algorithm 1 against the batch's frozen frontier, charging this
    /// lane's statistics. Safe to call concurrently with other lanes'
    /// contexts.
    Verdict Evaluate(const std::vector<expr::ExprPtr>& equations,
                     const std::vector<double>& parameters);

    /// Evaluates `individual` in place: expands its genotype in this lane,
    /// scores the phenotype, and sets fitness, fully_evaluated and outcome.
    void Evaluate(Individual* individual);

    /// Charges gradient side-channel work (elite constant polish) to this
    /// lane: adjoint gradient evaluations, the tape instructions they
    /// reversed, and line-search candidates.
    void NoteGradientWork(std::size_t gradient_evals, std::size_t tape_nodes,
                          std::size_t linesearch_steps) {
      stats_.gradient_evaluations += gradient_evals;
      stats_.tape_nodes += tape_nodes;
      stats_.linesearch_steps += linesearch_steps;
    }

   private:
    friend class FitnessEvaluator;
    FitnessEvaluator* owner_ = nullptr;
    double frozen_frontier_ = std::numeric_limits<double>::infinity();
    double local_min_full_ = std::numeric_limits<double>::infinity();
    EvalStats stats_;
  };

  /// Evaluates the batch in place, fanning out across `pool` (inline when
  /// null or single-threaded — the same code path, so results match). The
  /// wall clock is sampled once for the whole batch. A one-candidate batch
  /// is the serial path: the frontier advances right after it.
  ///
  /// Fault containment: an evaluation task that throws poisons only its own
  /// individual — at the batch barrier it is assigned kPenaltyFitness with
  /// outcome kTaskFailed; every other individual is unaffected.
  void EvaluateBatch(const std::vector<Individual*>& batch, ThreadPool* pool);

  /// Scores a batch of phenotypes — candidate i is `equations[i]` under
  /// `parameters[i]` — exactly as the Individual batch does (same frontier,
  /// cache, gate, statistics, containment and eval_batch event). Returns
  /// the verdicts in batch order.
  std::vector<Verdict> EvaluateBatch(
      const std::vector<std::vector<expr::ExprPtr>>& equations,
      const std::vector<std::vector<double>>& parameters, ThreadPool* pool);

  /// Generalized batch runner for callers that evaluate several candidates
  /// per item (e.g. local search): body(item, ctx) runs for every item in
  /// [0, n) with a per-lane context; frontier and statistics fold at the
  /// barrier, which counts each body that threw as one kTaskFailed outcome.
  /// A one-item batch runs inline on the caller. Returns the items whose
  /// body threw (contained, sorted by index; the caller decides how to
  /// penalize them). Coordinator-only.
  std::vector<TaskFailure> RunBatch(
      ThreadPool* pool, std::size_t n,
      const std::function<void(std::size_t, BatchContext*)>& body);

  /// Evaluates without consulting or polluting the cache and without
  /// short-circuiting; used for final reporting of best models.
  double EvaluateFull(const Individual& individual) const;

  /// Expands and (optionally) simplifies the individual's equations — its
  /// phenotype. Requires the grammar.
  std::vector<expr::ExprPtr> Phenotype(const Individual& individual) const;

  const EvalStats& stats() const { return stats_; }

  /// Attaches a telemetry sink: every RunBatch barrier then emits one
  /// "eval_batch" event from the coordinator (workers never emit, so event
  /// order is deterministic regardless of thread count). Null restores the
  /// NullSink; the evaluator does not own the sink.
  void set_telemetry_sink(obs::TelemetrySink* sink) {
    sink_ = obs::ResolveSink(sink);
  }

  const SpeedupConfig& config() const { return config_; }

  /// The problem this evaluator scores against (borrowed).
  const SequentialFitness* fitness() const { return fitness_; }

  /// Current short-circuiting frontier (exposed for tests and benches).
  double best_prev_full() const { return best_prev_full_; }

  /// Adds the evaluator's checkpoint state to `snapshot`: an `evaluator`
  /// section (the frontier and the run's EvalStats) and a `cache` section
  /// (the tree cache sorted by key, so the bytes are stable). The cache is
  /// part of the determinism contract — eval_batch events report
  /// cache_hits as a deterministic field — so a resumed run must see the
  /// exact cache the interrupted run had. Coordinator-only, between
  /// batches.
  void SaveState(ckpt::Snapshot* snapshot) const;

  /// Restores what SaveState wrote: the frontier, the statistics (totals
  /// then keep accumulating across segments) and the tree cache. False,
  /// with the evaluator untouched, when a section is missing or malformed.
  /// Coordinator-only, between batches.
  bool RestoreState(const ckpt::Snapshot& snapshot);

  /// Entries in the shared tree cache.
  std::size_t cache_size() const { return cache_.size(); }

  /// Entries in the static-verdict cache (0 unless the gate is enabled).
  std::size_t verdict_cache_size() const { return verdict_cache_.size(); }

 private:
  /// 64-bit key combining the structural hashes of the (simplified)
  /// equations with the parameter bits. Collisions are possible in
  /// principle but negligible in practice (documented trade-off; the
  /// paper's cache has the same property).
  std::uint64_t CacheKey(const std::vector<expr::ExprPtr>& equations,
                         const std::vector<double>& parameters) const;

  /// Runs Algorithm 1 (or a plain full pass when ES is off) against the
  /// given frontier, charging `stats`. Pure with respect to shared state.
  Verdict RunEvaluation(const std::vector<expr::ExprPtr>& equations,
                        const std::vector<double>& parameters,
                        double best_prev_full, EvalStats* stats) const;

  /// O(tree) static gate check, memoized by structure-only hash in
  /// verdict_cache_ (the cached byte is the rejecting analysis rule, kNone
  /// for accepted structures). Sound only when the candidate's parameters
  /// lie inside the gate's domain boxes (the caller pre-checks
  /// ParametersInDomain). Charges verdict-cache traffic to `stats`.
  analysis::GateRule StaticallyRejected(
      const std::vector<expr::ExprPtr>& equations, EvalStats* stats);

  /// The batch core of both EvaluateBatch overloads: one RunBatch whose
  /// coordinator pass is the generation-level compile of every phenotype,
  /// scoring candidate i from `equations_of(i)` and `parameters_of(i)`
  /// inside its lane; failed tasks become kTaskFailed verdicts.
  std::vector<Verdict> ScoreBatch(
      std::size_t n,
      const std::function<std::vector<expr::ExprPtr>(std::size_t)>&
          equations_of,
      const std::function<const std::vector<double>&(std::size_t)>&
          parameters_of,
      ThreadPool* pool);

  /// RunBatch with a coordinator pass: `prepare` (when set) runs before
  /// the fan-out, inside the batch's wall sample and charged to its
  /// compile_seconds.
  std::vector<TaskFailure> RunBatch(
      ThreadPool* pool, std::size_t n,
      const std::function<void(std::size_t, BatchContext*)>& body,
      const std::function<void()>& prepare);

  /// Emits the per-batch "eval_batch" event (coordinator-only).
  void EmitBatchEvent(std::size_t n, const EvalStats& batch_stats) const;

  const tag::Grammar* grammar_;
  const SequentialFitness* fitness_;
  SpeedupConfig config_;
  EvalStats stats_;
  obs::TelemetrySink* sink_ = obs::NullTelemetrySink();
  /// Written only at the barrier (and by RestoreState); lanes read their
  /// context's frozen copy.
  double best_prev_full_ = std::numeric_limits<double>::infinity();
  /// Memoized verdicts keyed by CacheKey. The fully_evaluated bit is
  /// stored, not inferred from the frontier: the frontier keeps falling,
  /// so a full evaluation cached at or below it later sits above it, where
  /// a frontier-based inference would take it for a short-circuited
  /// estimate. The outcome is stored so a hit reproduces the containment
  /// telemetry of the original evaluation.
  StripedMap<std::uint64_t, Verdict> cache_;
  /// Structure-hash -> rejecting rule byte (analysis::GateRule) for the
  /// static gate. Separate from cache_: verdicts are parameter-independent
  /// (valid for every in-domain parameter vector), so they survive
  /// parameter mutation.
  StripedMap<std::uint64_t, std::uint8_t> verdict_cache_;
};

}  // namespace gmr::gp

#endif  // GMR_GP_EVALUATOR_H_
