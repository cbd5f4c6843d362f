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

/// The value a lane sees for `key`: the cache as it stood at the batch
/// start, else what the lane's running item computed earlier; null on a
/// miss.
template <class Value>
const Value* Find(const std::unordered_map<std::uint64_t, Value>& cache,
                  const std::vector<std::pair<std::uint64_t, Value>>& own,
                  std::uint64_t key) {
  const auto it = cache.find(key);
  if (it != cache.end()) return &it->second;
  for (const auto& entry : own) {
    if (entry.first == key) return &entry.second;
  }
  return nullptr;
}

/// A cache's entries sorted by key, so its checkpoint bytes are stable.
template <class Value>
std::vector<std::pair<std::uint64_t, Value>> SortedByKey(
    const std::unordered_map<std::uint64_t, Value>& cache) {
  std::vector<std::pair<std::uint64_t, Value>> entries(cache.begin(),
                                                        cache.end());
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return entries;
}

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
    : grammar_(grammar), fitness_(fitness), config_(config) {
  GMR_CHECK(fitness_ != nullptr);
  if (grammar_ == nullptr) return;
  // Children come before their parents, so each entry's walk stops at its
  // children's entries and a simplified parent shares their nodes.
  shared_subtrees_ = grammar_->LoweredSubtrees();
  for (const expr::ExprPtr& subtree : shared_subtrees_) {
    const expr::Expr* node = subtree.get();
    if (config_.simplify_before_eval) {
      auto it = simplified_.find(node);
      if (it == simplified_.end()) {
        expr::ExprPtr simple = expr::Simplify(subtree, &simplified_);
        simple->StructuralHash();  // Lanes only ever read shared hashes.
        it = simplified_.emplace(node, std::move(simple)).first;
      }
      node = it->second.get();
    }
    if (config_.static_gate.enabled && !intervals_.contains(node)) {
      const analysis::Interval interval = analysis::EvaluateInterval(
          *node, config_.static_gate.domains, &intervals_);
      intervals_.emplace(node, interval);
    }
  }
}

std::vector<expr::ExprPtr> FitnessEvaluator::Phenotype(
    const Individual& individual) const {
  GMR_CHECK(grammar_ != nullptr);
  std::vector<expr::ExprPtr> equations =
      tag::ExpandToExpressions(*grammar_, *individual.genotype);
  if (config_.simplify_before_eval) {
    for (auto& eq : equations) eq = expr::Simplify(eq, &simplified_);
  }
  return equations;
}

analysis::StaticVerdict FitnessEvaluator::AnalyzeGate(
    const std::vector<expr::ExprPtr>& equations) const {
  GMR_CHECK(config_.static_gate.enabled);
  return analysis::AnalyzeCandidate(
      equations, config_.static_gate,
      intervals_.empty() ? nullptr : &intervals_);
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
  // Begin() hosts the per-candidate compile work under RC (flattening the
  // system into its register tape and binding the parameters); charge it
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
        const double est_fitness = ExtrapolateGrowth(fitness, i, num_cases);
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
    const analysis::GateRule rule = StaticallyRejected(equations);
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
    if (const Verdict* cached = Find(owner_->cache_, item_->verdicts, key)) {
      ++stats_.cache_hits;
      return *cached;
    }
  }
  const Verdict verdict =
      owner_->RunEvaluation(equations, parameters, frozen_frontier_, &stats_);
  // Hold a full evaluation's improvement in the lane until the barrier.
  if (verdict.fully_evaluated && verdict.fitness < local_min_full_) {
    local_min_full_ = verdict.fitness;
  }
  if (config.tree_caching) item_->verdicts.emplace_back(key, verdict);
  ++stats_.individuals_evaluated;
  ++stats_.outcomes[static_cast<std::size_t>(verdict.outcome)];
  return verdict;
}

void FitnessEvaluator::BatchContext::Evaluate(Individual* individual) {
  GMR_CHECK(owner_ != nullptr);
  Assign(Evaluate(owner_->Phenotype(*individual), individual->parameters),
         individual);
}

analysis::GateRule FitnessEvaluator::BatchContext::StaticallyRejected(
    const std::vector<expr::ExprPtr>& equations) {
  // Structure-only key (no parameter bits): the verdict holds for every
  // in-domain parameter vector. Distinct seed from CacheKey so the two
  // cache key spaces cannot collide systematically.
  std::uint64_t key = 0x452821e638d01377ULL;
  for (const auto& eq : equations) key = MixHash(key, eq->StructuralHash());
  ++stats_.verdict_cache_lookups;
  if (const std::uint8_t* rule_byte =
          Find(owner_->verdict_cache_, item_->gate_rules, key)) {
    ++stats_.verdict_cache_hits;
    return static_cast<analysis::GateRule>(*rule_byte);
  }
  const analysis::GateRule rule = owner_->AnalyzeGate(equations).rule;
  item_->gate_rules.emplace_back(key, static_cast<std::uint8_t>(rule));
  return rule;
}

std::vector<TaskFailure> FitnessEvaluator::RunBatch(
    ThreadPool* pool, std::size_t n,
    const std::function<void(std::size_t, BatchContext*)>& body) {
  if (n == 0) return {};
  // One wall-clock sample per batch: cache hits inside the batch no longer
  // pay a clock read each (they dominated wall_seconds noise at high hit
  // rates).
  Timer timer;
  EvalStats batch_stats;
  // A one-item batch runs inline: waking the pool buys it nothing.
  const int lanes = pool != nullptr && n > 1 ? pool->num_threads() : 1;
  std::vector<BatchContext> contexts(static_cast<std::size_t>(lanes));
  for (BatchContext& context : contexts) {
    context.owner_ = this;
    context.frozen_frontier_ = best_prev_full_;
  }
  // Each item records the cache entries it computes in its own slot, so
  // what a lane sees never depends on what another lane got to first.
  std::vector<BatchContext::NewEntries> entries(n);
  // Each lane charges its own busy time to its local stats (cpu_seconds);
  // the wall clock stays a single coordinator sample per batch.
  const auto timed_body = [&body, &contexts, &entries](std::size_t i,
                                                       int lane) {
    BatchContext* context = &contexts[static_cast<std::size_t>(lane)];
    context->item_ = &entries[i];
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
  // eval_batch event and the only update of the run totals, and insert the
  // items' new cache entries in item order, the caches' only write.
  for (const BatchContext& context : contexts) {
    batch_stats.Merge(context.stats_);
    best_prev_full_ = std::min(best_prev_full_, context.local_min_full_);
  }
  for (const BatchContext::NewEntries& item : entries) {
    cache_.insert(item.verdicts.begin(), item.verdicts.end());
    verdict_cache_.insert(item.gate_rules.begin(), item.gate_rules.end());
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
  // A candidate whose task throws keeps this penalty verdict, so each
  // failure poisons only its own candidate; the penalty never enters the
  // frontier or the cache.
  std::vector<Verdict> verdicts(
      n, Verdict{kPenaltyFitness, true, EvalOutcome::kTaskFailed});
  RunBatch(pool, n,
           [&verdicts, &equations_of, &parameters_of](std::size_t i,
                                                      BatchContext* context) {
             verdicts[i] = context->Evaluate(equations_of(i),
                                             parameters_of(i));
           });
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

  ckpt::Section* cache = snapshot->AddSection("cache");
  cache->lines.reserve(cache_.size());
  for (const auto& [key, verdict] : SortedByKey(cache_)) {
    cache->lines.push_back(ckpt::HexUint64(key) + " " + EncodeVerdict(verdict));
  }
  ckpt::Section* gate_cache = snapshot->AddSection("gate_cache");
  gate_cache->lines.reserve(verdict_cache_.size());
  for (const auto& [key, rule_byte] : SortedByKey(verdict_cache_)) {
    gate_cache->lines.push_back(ckpt::HexUint64(key) + " " +
                                std::to_string(rule_byte));
  }
}

bool FitnessEvaluator::RestoreState(const ckpt::Snapshot& snapshot) {
  // Parse every section before touching anything, so a torn section leaves
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
  const ckpt::Section* gate_cache = snapshot.FindSection("gate_cache");
  if (cache == nullptr || gate_cache == nullptr) return false;
  std::unordered_map<std::uint64_t, Verdict> verdicts;
  for (const std::string& line : cache->lines) {
    const std::vector<std::string> fields = ckpt::TokenizeSExpr(line);
    std::uint64_t key;
    Verdict verdict;
    if (fields.size() != 4 || !ckpt::ParseHexUint64(fields[0], &key) ||
        !DecodeVerdict(fields, 1, &verdict)) {
      return false;
    }
    verdicts.emplace(key, verdict);
  }
  std::unordered_map<std::uint64_t, std::uint8_t> gate_rules;
  for (const std::string& line : gate_cache->lines) {
    const std::vector<std::string> fields = ckpt::TokenizeSExpr(line);
    std::uint64_t key = 0;
    std::uint64_t rule_byte = 0;
    if (fields.size() != 2 || !ckpt::ParseHexUint64(fields[0], &key) ||
        !ParseUnsigned(fields[1], analysis::kNumGateRules - 1, &rule_byte)) {
      return false;
    }
    gate_rules.emplace(key, static_cast<std::uint8_t>(rule_byte));
  }

  best_prev_full_ = frontier;
  stats_ = stats;
  cache_ = std::move(verdicts);
  verdict_cache_ = std::move(gate_rules);
  return true;
}

}  // namespace gmr::gp
