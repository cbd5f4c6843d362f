#include "gp/evaluator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "ckpt/serialize.h"
#include "ckpt/snapshot.h"
#include "common/check.h"
#include "common/parse.h"
#include "common/timer.h"
#include "expr/simplify.h"

namespace gmr::gp {
namespace {

std::uint64_t MixHash(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t DoubleBits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Lock stripes of each of the evaluator's shared caches.
constexpr std::size_t kCacheStripes = 16;

void Assign(const Verdict& verdict, Individual* individual) {
  individual->fitness = verdict.fitness;
  individual->fully_evaluated = verdict.fully_evaluated;
  individual->outcome = verdict.outcome;
}

/// EvalStats as one line: decimal counters, bit-exact hex seconds, then the
/// outcome histogram. Order matches the struct declaration.
std::string EncodeEvalStats(const EvalStats& stats) {
  std::string out = std::to_string(stats.individuals_evaluated);
  out += " " + std::to_string(stats.cache_hits);
  out += " " + std::to_string(stats.cache_lookups);
  out += " " + std::to_string(stats.full_evaluations);
  out += " " + std::to_string(stats.short_circuited);
  out += " " + std::to_string(stats.static_rejects);
  out += " " + std::to_string(stats.time_steps_evaluated);
  out += " " + ckpt::HexDouble(stats.wall_seconds);
  out += " " + ckpt::HexDouble(stats.cpu_seconds);
  out += " " + ckpt::HexDouble(stats.compile_seconds);
  for (std::size_t i = 0; i < kNumEvalOutcomes; ++i) {
    out += " " + std::to_string(stats.outcomes[i]);
  }
  out += " " + std::to_string(stats.verdict_cache_lookups);
  out += " " + std::to_string(stats.verdict_cache_hits);
  for (std::size_t i = 0; i < analysis::kNumGateRules; ++i) {
    out += " " + std::to_string(stats.gate_rule_rejects[i]);
  }
  out += " " + std::to_string(stats.gradient_evaluations);
  out += " " + std::to_string(stats.tape_nodes);
  out += " " + std::to_string(stats.linesearch_steps);
  return out;
}

bool DecodeEvalStats(const std::string& line, EvalStats* stats) {
  const std::vector<std::string> t = ckpt::TokenizeSExpr(line);
  if (t.size() != 10 + kNumEvalOutcomes + 2 + analysis::kNumGateRules + 3) {
    return false;
  }
  EvalStats s;
  if (!ParseUnsigned(t[0], &s.individuals_evaluated) ||
      !ParseUnsigned(t[1], &s.cache_hits) ||
      !ParseUnsigned(t[2], &s.cache_lookups) ||
      !ParseUnsigned(t[3], &s.full_evaluations) ||
      !ParseUnsigned(t[4], &s.short_circuited) ||
      !ParseUnsigned(t[5], &s.static_rejects) ||
      !ParseUnsigned(t[6], &s.time_steps_evaluated) ||
      !ckpt::ParseHexDouble(t[7], &s.wall_seconds) ||
      !ckpt::ParseHexDouble(t[8], &s.cpu_seconds) ||
      !ckpt::ParseHexDouble(t[9], &s.compile_seconds)) {
    return false;
  }
  for (std::size_t i = 0; i < kNumEvalOutcomes; ++i) {
    if (!ParseUnsigned(t[10 + i], &s.outcomes[i])) return false;
  }
  std::size_t at = 10 + kNumEvalOutcomes;
  if (!ParseUnsigned(t[at++], &s.verdict_cache_lookups) ||
      !ParseUnsigned(t[at++], &s.verdict_cache_hits)) {
    return false;
  }
  for (std::size_t i = 0; i < analysis::kNumGateRules; ++i) {
    if (!ParseUnsigned(t[at++], &s.gate_rule_rejects[i])) return false;
  }
  if (!ParseUnsigned(t[at++], &s.gradient_evaluations) ||
      !ParseUnsigned(t[at++], &s.tape_nodes) ||
      !ParseUnsigned(t[at++], &s.linesearch_steps)) {
    return false;
  }
  *stats = s;
  return true;
}

}  // namespace

double ExtrapolateIdentity(double fitness, std::size_t /*steps*/,
                           std::size_t /*total_steps*/) {
  return fitness;
}

double ExtrapolateGrowth(double fitness, std::size_t steps,
                         std::size_t total_steps) {
  if (steps == 0) return fitness;
  const double ratio = static_cast<double>(total_steps) /
                       static_cast<double>(steps);
  return fitness * std::pow(ratio, 0.25);
}

void EvalStats::Merge(const EvalStats& other) {
  individuals_evaluated += other.individuals_evaluated;
  cache_hits += other.cache_hits;
  cache_lookups += other.cache_lookups;
  full_evaluations += other.full_evaluations;
  short_circuited += other.short_circuited;
  static_rejects += other.static_rejects;
  time_steps_evaluated += other.time_steps_evaluated;
  wall_seconds += other.wall_seconds;
  cpu_seconds += other.cpu_seconds;
  compile_seconds += other.compile_seconds;
  for (std::size_t i = 0; i < kNumEvalOutcomes; ++i) {
    outcomes[i] += other.outcomes[i];
  }
  verdict_cache_lookups += other.verdict_cache_lookups;
  verdict_cache_hits += other.verdict_cache_hits;
  for (std::size_t i = 0; i < analysis::kNumGateRules; ++i) {
    gate_rule_rejects[i] += other.gate_rule_rejects[i];
  }
  gradient_evaluations += other.gradient_evaluations;
  tape_nodes += other.tape_nodes;
  linesearch_steps += other.linesearch_steps;
}

std::string EncodeVerdict(const Verdict& verdict) {
  return ckpt::HexDouble(verdict.fitness) +
         (verdict.fully_evaluated ? " 1 " : " 0 ") +
         std::to_string(static_cast<int>(verdict.outcome));
}

bool DecodeVerdict(const std::vector<std::string>& tokens, std::size_t at,
                   Verdict* verdict) {
  Verdict v;
  std::size_t outcome = 0;
  if (tokens.size() < at + 3 ||
      !ckpt::ParseHexDouble(tokens[at], &v.fitness) ||
      (tokens[at + 1] != "0" && tokens[at + 1] != "1") ||
      !ParseUnsigned(tokens[at + 2], &outcome) ||
      outcome >= kNumEvalOutcomes) {
    return false;
  }
  v.fully_evaluated = tokens[at + 1] == "1";
  v.outcome = static_cast<EvalOutcome>(outcome);
  *verdict = v;
  return true;
}

FitnessEvaluator::FitnessEvaluator(const tag::Grammar* grammar,
                                   const SequentialFitness* fitness,
                                   SpeedupConfig config)
    : grammar_(grammar),
      fitness_(fitness),
      config_(config),
      cache_(kCacheStripes),
      verdict_cache_(kCacheStripes) {
  GMR_CHECK(fitness_ != nullptr);
}

std::vector<expr::ExprPtr> FitnessEvaluator::Phenotype(
    const Individual& individual) const {
  GMR_CHECK(grammar_ != nullptr);
  std::vector<expr::ExprPtr> equations =
      tag::ExpandToExpressions(*grammar_, *individual.genotype);
  if (config_.simplify_before_eval) {
    for (auto& eq : equations) eq = expr::Simplify(eq);
  }
  return equations;
}

std::uint64_t FitnessEvaluator::CacheKey(
    const std::vector<expr::ExprPtr>& equations,
    const std::vector<double>& parameters) const {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  for (const auto& eq : equations) h = MixHash(h, eq->StructuralHash());
  for (double p : parameters) h = MixHash(h, DoubleBits(p));
  return h;
}

Verdict FitnessEvaluator::RunEvaluation(
    const std::vector<expr::ExprPtr>& equations,
    const std::vector<double>& parameters, double best_prev_full,
    EvalStats* stats) const {
  const std::size_t num_cases = fitness_->num_cases();
  // Begin() hosts the per-candidate compile work under the RC backends
  // (bytecode flattening, JIT invocation or compile-cache probe); charge it
  // to the compile bucket so evaluation time stays pure stepping.
  Timer begin_timer;
  std::unique_ptr<SequentialEvaluation> eval =
      fitness_->Begin(equations, parameters, config_.runtime_compilation);
  stats->compile_seconds += begin_timer.ElapsedSeconds();

  // Algorithm 1: Evaluation Short-Circuiting. With ES disabled the loop
  // degenerates to a plain full pass.
  double fitness = 0.0;
  std::size_t i = 0;
  while (i < num_cases) {
    const bool more = eval->Step();
    fitness = eval->CurrentFitness();
    ++i;
    if (config_.short_circuiting && std::isfinite(best_prev_full) &&
        i < num_cases) {
      if (fitness > best_prev_full * config_.es_threshold) {
        const double est_fitness =
            config_.extrapolate(fitness, i, num_cases);
        if (est_fitness > best_prev_full) {
          stats->time_steps_evaluated += i;
          ++stats->short_circuited;
          // Short circuiting.
          return Verdict{est_fitness, false, eval->outcome()};
        }
      }
    }
    if (!more) break;
  }
  stats->time_steps_evaluated += i;
  ++stats->full_evaluations;
  return Verdict{fitness, true, eval->outcome()};  // Full evaluation.
}

Verdict FitnessEvaluator::BatchContext::Evaluate(
    const std::vector<expr::ExprPtr>& equations,
    const std::vector<double>& parameters) {
  GMR_CHECK(owner_ != nullptr);
  const SpeedupConfig& config = owner_->config_;
  // Domain pre-check: a non-finite parameter vector cannot produce a
  // meaningful simulation, so it is penalized before any simulation work.
  // The penalty is a pure function of the candidate and never enters the
  // frontier, so caching/short-circuiting stay exact.
  for (double p : parameters) {
    if (!std::isfinite(p)) {
      ++stats_.outcomes[static_cast<std::size_t>(
          EvalOutcome::kDomainViolation)];
      ++stats_.individuals_evaluated;
      return Verdict{kPenaltyFitness, true, EvalOutcome::kDomainViolation};
    }
  }

  // Static reject gate: an O(tree) interval check that turns a provably
  // divergent rollout into an immediate deterministic penalty. The
  // structure-keyed verdict is only sound for parameters inside the gate's
  // domain boxes, hence the ParametersInDomain guard (Gaussian mutation
  // clamps parameters to the prior boxes, so the guard normally holds).
  // Rejects bypass the tree cache and never touch the ES frontier, so
  // gate-on is bit-identical to gate-off on populations the gate passes.
  if (config.static_gate.enabled &&
      analysis::ParametersInDomain(parameters, config.static_gate.domains)) {
    const analysis::GateRule rule =
        owner_->StaticallyRejected(equations, &stats_);
    if (rule != analysis::GateRule::kNone) {
      ++stats_.static_rejects;
      ++stats_.gate_rule_rejects[static_cast<std::size_t>(rule)];
      ++stats_.individuals_evaluated;
      ++stats_.outcomes[static_cast<std::size_t>(EvalOutcome::kStaticReject)];
      return Verdict{kPenaltyFitness, true, EvalOutcome::kStaticReject};
    }
  }

  std::uint64_t key = 0;
  if (config.tree_caching) {
    ++stats_.cache_lookups;
    key = owner_->CacheKey(equations, parameters);
    Verdict cached;
    if (owner_->cache_.Lookup(key, &cached)) {
      ++stats_.cache_hits;
      return cached;
    }
  }
  const Verdict verdict =
      owner_->RunEvaluation(equations, parameters, frozen_frontier_, &stats_);
  // Hold a full evaluation's improvement in the lane until the barrier.
  if (verdict.fully_evaluated && verdict.fitness < local_min_full_) {
    local_min_full_ = verdict.fitness;
  }
  if (config.tree_caching) owner_->cache_.Insert(key, verdict);
  ++stats_.individuals_evaluated;
  ++stats_.outcomes[static_cast<std::size_t>(verdict.outcome)];
  return verdict;
}

void FitnessEvaluator::BatchContext::Evaluate(Individual* individual) {
  GMR_CHECK(owner_ != nullptr);
  Assign(Evaluate(owner_->Phenotype(*individual), individual->parameters),
         individual);
}

analysis::GateRule FitnessEvaluator::StaticallyRejected(
    const std::vector<expr::ExprPtr>& equations, EvalStats* stats) {
  // Structure-only key (no parameter bits): the verdict holds for every
  // in-domain parameter vector. Distinct seed from CacheKey so the two
  // cache key spaces cannot collide systematically.
  std::uint64_t key = 0x452821e638d01377ULL;
  for (const auto& eq : equations) key = MixHash(key, eq->StructuralHash());
  ++stats->verdict_cache_lookups;
  std::uint8_t rule_byte = 0;
  if (verdict_cache_.Lookup(key, &rule_byte)) {
    ++stats->verdict_cache_hits;
    return static_cast<analysis::GateRule>(rule_byte);
  }
  const analysis::GateRule rule =
      analysis::AnalyzeCandidate(equations, config_.static_gate).rule;
  verdict_cache_.Insert(key, static_cast<std::uint8_t>(rule));
  return rule;
}

std::vector<TaskFailure> FitnessEvaluator::RunBatch(
    ThreadPool* pool, std::size_t n,
    const std::function<void(std::size_t, BatchContext*)>& body) {
  return RunBatch(pool, n, body, nullptr);
}

std::vector<TaskFailure> FitnessEvaluator::RunBatch(
    ThreadPool* pool, std::size_t n,
    const std::function<void(std::size_t, BatchContext*)>& body,
    const std::function<void()>& prepare) {
  if (n == 0) return {};
  // One wall-clock sample per batch: cache hits inside the batch no longer
  // pay a clock read each (they dominated wall_seconds noise at high hit
  // rates).
  Timer timer;
  EvalStats batch_stats;
  if (prepare) {
    prepare();
    batch_stats.compile_seconds = timer.ElapsedSeconds();
  }
  // A one-item batch runs inline: waking the pool buys it nothing.
  const int lanes = pool != nullptr && n > 1 ? pool->num_threads() : 1;
  std::vector<BatchContext> contexts(static_cast<std::size_t>(lanes));
  for (BatchContext& context : contexts) {
    context.owner_ = this;
    context.frozen_frontier_ = best_prev_full_;
  }
  // Each lane charges its own busy time to its local stats (cpu_seconds);
  // the wall clock stays a single coordinator sample per batch.
  const auto timed_body = [&body, &contexts](std::size_t i, int lane) {
    BatchContext* context = &contexts[static_cast<std::size_t>(lane)];
    Timer lane_timer;
    body(i, context);
    context->stats_.cpu_seconds += lane_timer.ElapsedSeconds();
  };
  std::vector<TaskFailure> failures;
  if (lanes == 1) {
    // The free ParallelFor runs inline in index order with the same
    // exception containment (and fault-injection point) as the pool path.
    failures = gmr::ParallelFor(
        nullptr, n, [&timed_body](std::size_t i) { timed_body(i, 0); });
  } else {
    failures = pool->ParallelFor(n, timed_body);
  }
  // The barrier: fold the lanes into this batch's delta, which is both the
  // eval_batch event and the only update of the run totals.
  for (const BatchContext& context : contexts) {
    batch_stats.Merge(context.stats_);
    best_prev_full_ = std::min(best_prev_full_, context.local_min_full_);
  }
  batch_stats.outcomes[static_cast<std::size_t>(EvalOutcome::kTaskFailed)] +=
      failures.size();
  batch_stats.wall_seconds = timer.ElapsedSeconds();
  stats_.Merge(batch_stats);
  if (sink_->enabled()) EmitBatchEvent(n, batch_stats);
  return failures;
}

void FitnessEvaluator::EmitBatchEvent(std::size_t n,
                                      const EvalStats& batch_stats) const {
  obs::TraceEvent event("eval_batch");
  event.Field("n", static_cast<double>(n))
      .Field("num_species", static_cast<double>(fitness_->num_states()))
      .Field("individuals",
             static_cast<double>(batch_stats.individuals_evaluated))
      .Field("cache_lookups", static_cast<double>(batch_stats.cache_lookups))
      .Field("cache_hits", static_cast<double>(batch_stats.cache_hits))
      .Field("full_evaluations",
             static_cast<double>(batch_stats.full_evaluations))
      .Field("short_circuited",
             static_cast<double>(batch_stats.short_circuited))
      .Field("static_rejects",
             static_cast<double>(batch_stats.static_rejects))
      .Field("time_steps",
             static_cast<double>(batch_stats.time_steps_evaluated))
      .Field("frontier", best_prev_full());
  for (std::size_t i = 0; i < kNumEvalOutcomes; ++i) {
    event.Field(std::string("outcomes.") +
                    EvalOutcomeName(static_cast<EvalOutcome>(i)),
                static_cast<double>(batch_stats.outcomes[i]));
  }
  event.Field("verdict_cache_lookups",
              static_cast<double>(batch_stats.verdict_cache_lookups))
      .Field("verdict_cache_hits",
             static_cast<double>(batch_stats.verdict_cache_hits));
  for (std::size_t i = 1; i < analysis::kNumGateRules; ++i) {
    event.Field(std::string("gate_rule.") +
                    analysis::GateRuleName(static_cast<analysis::GateRule>(i)),
                static_cast<double>(batch_stats.gate_rule_rejects[i]));
  }
  event
      .Field("gradient_evaluations",
             static_cast<double>(batch_stats.gradient_evaluations))
      .Field("tape_nodes", static_cast<double>(batch_stats.tape_nodes))
      .Field("linesearch_steps",
             static_cast<double>(batch_stats.linesearch_steps));
  event.Timing("wall_s", batch_stats.wall_seconds)
      .Timing("cpu_s", batch_stats.cpu_seconds)
      .Timing("compile_s", batch_stats.compile_seconds);
  sink_->Emit(std::move(event));
}

std::vector<Verdict> FitnessEvaluator::ScoreBatch(
    std::size_t n,
    const std::function<std::vector<expr::ExprPtr>(std::size_t)>&
        equations_of,
    const std::function<const std::vector<double>&(std::size_t)>&
        parameters_of,
    ThreadPool* pool) {
  // Generation-level compile pass (e.g. the batched JIT backend): one
  // translation unit for every unique equation of the batch, compiled on
  // the coordinator before fan-out so worker lanes only probe the compile
  // cache. Pure warm-up — skipping it cannot change any fitness value. A
  // one-candidate batch skips it: its Begin compiles the same TU on a miss.
  std::function<void()> prepare;
  if (n > 1 && config_.runtime_compilation &&
      fitness_->WantsBatchPreparation()) {
    prepare = [this, n, &equations_of] {
      std::vector<std::vector<expr::ExprPtr>> phenotypes;
      phenotypes.reserve(n);
      for (std::size_t i = 0; i < n; ++i) phenotypes.push_back(equations_of(i));
      fitness_->PrepareBatch(phenotypes);
    };
  }
  // A candidate whose task throws keeps this penalty verdict, so each
  // failure poisons only its own candidate; the penalty never enters the
  // frontier or the cache.
  std::vector<Verdict> verdicts(
      n, Verdict{kPenaltyFitness, true, EvalOutcome::kTaskFailed});
  RunBatch(
      pool, n,
      [&verdicts, &equations_of, &parameters_of](std::size_t i,
                                                 BatchContext* context) {
        verdicts[i] = context->Evaluate(equations_of(i), parameters_of(i));
      },
      prepare);
  return verdicts;
}

void FitnessEvaluator::EvaluateBatch(const std::vector<Individual*>& batch,
                                     ThreadPool* pool) {
  const std::vector<Verdict> verdicts = ScoreBatch(
      batch.size(),
      [this, &batch](std::size_t i) { return Phenotype(*batch[i]); },
      [&batch](std::size_t i) -> const std::vector<double>& {
        return batch[i]->parameters;
      },
      pool);
  for (std::size_t i = 0; i < batch.size(); ++i) Assign(verdicts[i], batch[i]);
}

std::vector<Verdict> FitnessEvaluator::EvaluateBatch(
    const std::vector<std::vector<expr::ExprPtr>>& equations,
    const std::vector<std::vector<double>>& parameters, ThreadPool* pool) {
  GMR_CHECK_EQ(equations.size(), parameters.size());
  return ScoreBatch(
      equations.size(),
      [&equations](std::size_t i) { return equations[i]; },
      [&parameters](std::size_t i) -> const std::vector<double>& {
        return parameters[i];
      },
      pool);
}

double FitnessEvaluator::EvaluateFull(const Individual& individual) const {
  std::vector<expr::ExprPtr> equations = Phenotype(individual);
  std::unique_ptr<SequentialEvaluation> eval = fitness_->Begin(
      equations, individual.parameters, config_.runtime_compilation);
  while (eval->Step()) {
  }
  return eval->CurrentFitness();
}

void FitnessEvaluator::SaveState(ckpt::Snapshot* snapshot) const {
  ckpt::Section* ev = snapshot->AddSection("evaluator");
  ev->lines.push_back("frontier " + ckpt::HexDouble(best_prev_full()));
  ev->lines.push_back("stats " + EncodeEvalStats(stats_));

  std::vector<std::pair<std::uint64_t, Verdict>> entries;
  entries.reserve(cache_.size());
  cache_.ForEach([&entries](const std::uint64_t& key, const Verdict& verdict) {
    entries.emplace_back(key, verdict);
  });
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  ckpt::Section* cache = snapshot->AddSection("cache");
  cache->lines.reserve(entries.size());
  for (const auto& [key, verdict] : entries) {
    cache->lines.push_back(ckpt::HexUint64(key) + " " + EncodeVerdict(verdict));
  }
}

bool FitnessEvaluator::RestoreState(const ckpt::Snapshot& snapshot) {
  // Parse both sections before touching anything, so a torn section leaves
  // the evaluator as it was.
  const ckpt::Section* ev = snapshot.FindSection("evaluator");
  double frontier;
  EvalStats stats;
  if (ev == nullptr || ev->lines.size() != 2 ||
      ev->lines[0].compare(0, 9, "frontier ") != 0 ||
      !ckpt::ParseHexDouble(ev->lines[0].substr(9), &frontier) ||
      ev->lines[1].compare(0, 6, "stats ") != 0 ||
      !DecodeEvalStats(ev->lines[1].substr(6), &stats)) {
    return false;
  }
  const ckpt::Section* cache = snapshot.FindSection("cache");
  if (cache == nullptr) return false;
  std::vector<std::pair<std::uint64_t, Verdict>> entries;
  entries.reserve(cache->lines.size());
  for (const std::string& line : cache->lines) {
    const std::vector<std::string> fields = ckpt::TokenizeSExpr(line);
    std::uint64_t key;
    Verdict verdict;
    if (fields.size() != 4 || !ckpt::ParseHexUint64(fields[0], &key) ||
        !DecodeVerdict(fields, 1, &verdict)) {
      return false;
    }
    entries.emplace_back(key, verdict);
  }

  best_prev_full_ = frontier;
  stats_ = stats;
  cache_.Clear();
  for (const auto& [key, verdict] : entries) cache_.Insert(key, verdict);
  return true;
}

}  // namespace gmr::gp
