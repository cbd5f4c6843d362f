// Concurrency layer tests: ThreadPool, StripedMap, EvalStats merging, the
// cached fully_evaluated bit, and thread-count determinism of the TAG3P
// engine under kFrozenFrontier. Labeled `tsan` in ctest — run them under
// GMR_SANITIZE=thread to check for data races.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/striped_map.h"
#include "common/thread_pool.h"
#include "core/river_grammar.h"
#include "expr/compile.h"
#include "expr/eval.h"
#include "expr/print.h"
#include "expr/simplify.h"
#include "gp/evaluator.h"
#include "gp/tag3p.h"
#include "river/parameters.h"
#include "river/stepper.h"
#include "tag/generate.h"

namespace gmr::gp {
namespace {

namespace e = gmr::expr;
namespace t = gmr::tag;

// Same toy problem as gp_test: seed "x + 0", revisions "Exp* + R" and
// "Exp* * R", target concept 2x + 1.
t::Grammar ToyGrammar() {
  t::Grammar grammar;
  {
    std::vector<t::TagNodePtr> children;
    children.push_back(t::LeafNode(e::Variable(0, "x")));
    children.push_back(t::LeafNode(e::Constant(0.0)));
    grammar.AddAlphaTree(t::ElementaryTree(
        "seed", t::OperatorNode(t::kExpSymbol, e::NodeKind::kAdd,
                                std::move(children))));
  }
  for (e::NodeKind op : {e::NodeKind::kAdd, e::NodeKind::kMul}) {
    std::vector<t::TagNodePtr> children;
    children.push_back(t::FootNode(t::kExpSymbol));
    children.push_back(t::SlotNode("R"));
    grammar.AddBetaTree(t::ElementaryTree(
        std::string("beta") + e::KindName(op),
        t::OperatorNode(t::kExpSymbol, op, std::move(children))));
  }
  grammar.SetSlotSpec("R", t::SlotSpec{0.0, 1.0});
  return grammar;
}

class ToyFitness : public SequentialFitness {
 public:
  explicit ToyFitness(std::size_t n) : n_(n) {}

  std::size_t num_cases() const override { return n_; }
  std::size_t num_parameters() const override { return 0; }

  std::unique_ptr<SequentialEvaluation> Begin(
      const std::vector<e::ExprPtr>& equations,
      const std::vector<double>& parameters,
      bool use_compiled_backend) const override {
    class Eval : public SequentialEvaluation {
     public:
      Eval(const e::ExprPtr& eq, std::vector<double> params, bool compiled,
           std::size_t n)
          : equation_(eq), params_(std::move(params)), n_(n) {
        if (compiled) program_ = e::Compile(*equation_);
        compiled_ = compiled;
      }
      bool Step() override {
        const double x =
            n_ > 1 ? static_cast<double>(t_) / static_cast<double>(n_ - 1)
                   : 0.0;
        e::EvalContext ctx;
        ctx.variables = &x;
        ctx.num_variables = 1;
        ctx.parameters = params_.data();
        ctx.num_parameters = params_.size();
        const double pred = compiled_ ? program_.Run(ctx)
                                      : e::EvalExpr(*equation_, ctx);
        const double err = pred - (2.0 * x + 1.0);
        sse_ += err * err;
        ++t_;
        return t_ < n_;
      }
      double CurrentFitness() const override {
        return t_ == 0 ? 0.0 : std::sqrt(sse_ / static_cast<double>(t_));
      }
      std::size_t steps_taken() const override { return t_; }

     private:
      e::ExprPtr equation_;
      std::vector<double> params_;
      e::CompiledProgram program_;
      bool compiled_ = false;
      std::size_t n_;
      std::size_t t_ = 0;
      double sse_ = 0.0;
    };
    return std::make_unique<Eval>(equations[0], parameters,
                                  use_compiled_backend, n_);
  }

 private:
  std::size_t n_;
};

Individual MakeIndividual(const t::Grammar& grammar, std::size_t target,
                          Rng& rng) {
  Individual individual;
  individual.genotype = t::GrowRandom(grammar, 0, target, rng);
  return individual;
}

// ---------------------------------------------------------- thread pool ----

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> counts(kN);
  pool.ParallelFor(kN, [&counts](std::size_t i, int worker) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, 4);
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ReusableAcrossManyBatches) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  for (int batch = 0; batch < 50; ++batch) {
    const std::size_t n = static_cast<std::size_t>(batch % 7);
    pool.ParallelFor(n, [&total](std::size_t, int) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  std::size_t expected = 0;
  for (int batch = 0; batch < 50; ++batch) {
    expected += static_cast<std::size_t>(batch % 7);
  }
  EXPECT_EQ(total.load(), expected);
}

TEST(ThreadPoolTest, FreeHelperRunsInlineWithoutPool) {
  std::vector<int> order;
  ParallelFor(nullptr, 5, [&order](std::size_t i) {
    order.push_back(static_cast<int>(i));  // inline: deterministic order
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));

  ThreadPool single(1);
  order.clear();
  ParallelFor(&single, 5, [&order](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, NestedDataParallelSum) {
  ThreadPool pool(8);
  constexpr std::size_t kN = 1'000;
  std::vector<double> values(kN);
  pool.ParallelFor(kN, [&values](std::size_t i, int) {
    values[i] = static_cast<double>(i);
  });
  double sum = 0.0;
  for (double v : values) sum += v;
  EXPECT_DOUBLE_EQ(sum, static_cast<double>(kN * (kN - 1)) / 2.0);
}

// ------------------------------------------------ shared phenotype nodes ----

// Phenotypes share the grammar's pre-lowered subtrees, so every lane reads
// the same Expr nodes (their hashes and reference counts) while it lowers,
// simplifies, hashes and compiles. Four lanes over the same 64 plankton
// derivations must each reproduce the serial result.
TEST(SharedPhenotypeTest, LanesLowerSimplifyHashAndCompileSharedNodes) {
  const core::RiverPriorKnowledge knowledge = core::BuildRiverPriorKnowledge();
  const t::Grammar& grammar = knowledge.grammar;
  constexpr std::size_t kDerivations = 64;
  constexpr std::size_t kLanes = 4;
  Rng rng(17);
  std::vector<t::DerivationPtr> derivations;
  for (std::size_t i = 0; i < kDerivations; ++i) {
    derivations.push_back(
        t::GrowRandom(grammar, knowledge.seed_alpha_index, 1 + i % 40, rng));
  }
  struct Phenotype {
    std::string text;
    std::uint64_t hash = 0;
    std::size_t tape_size = 0;
  };
  const auto build = [&](const t::DerivationNode& derivation) {
    std::vector<e::ExprPtr> equations =
        t::ExpandToExpressions(grammar, derivation);
    Phenotype out;
    for (auto& equation : equations) {
      equation = e::Simplify(equation);
      out.text += e::ToSExpression(*equation) + "\n";
      out.hash = out.hash * 31 + equation->StructuralHash();
    }
    out.tape_size =
        e::Compile(equations,
                   river::RolloutLayout(equations.size(),
                                        river::kNumParameters))
            .size();
    return out;
  };
  // The lanes run first, so they are the first to touch anything a
  // phenotype computes lazily.
  std::vector<Phenotype> lanes(kLanes * kDerivations);
  ThreadPool pool(static_cast<int>(kLanes));
  pool.ParallelFor(lanes.size(), [&](std::size_t i, int) {
    lanes[i] = build(*derivations[i % kDerivations]);
  });
  std::vector<Phenotype> serial;
  for (const auto& derivation : derivations) {
    serial.push_back(build(*derivation));
  }
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const Phenotype& expected = serial[i % kDerivations];
    EXPECT_EQ(lanes[i].text, expected.text) << "item " << i;
    EXPECT_EQ(lanes[i].hash, expected.hash) << "item " << i;
    EXPECT_EQ(lanes[i].tape_size, expected.tape_size) << "item " << i;
  }
}

// ----------------------------------------------------------- striped map ----

TEST(StripedMapTest, InsertAndLookup) {
  StripedMap<std::uint64_t, double> map(8);
  EXPECT_EQ(map.num_stripes(), 8u);
  EXPECT_EQ(map.size(), 0u);
  map.Insert(42, 1.5);
  map.Insert(42, 9.9);  // insert-if-absent: first value wins
  double value = 0.0;
  EXPECT_TRUE(map.Lookup(42, &value));
  EXPECT_DOUBLE_EQ(value, 1.5);
  EXPECT_FALSE(map.Lookup(43, &value));
  EXPECT_EQ(map.size(), 1u);
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_FALSE(map.Lookup(42, &value));
}

TEST(StripedMapTest, ConcurrentInsertLookupStress) {
  // 8 threads hammer a shared map with overlapping keys; values are a pure
  // function of the key, so whoever wins an insert race stores the same
  // value every reader must see.
  StripedMap<std::uint64_t, std::uint64_t> map(16);
  ThreadPool pool(8);
  constexpr std::size_t kOps = 20'000;
  constexpr std::uint64_t kKeySpace = 500;
  std::atomic<std::size_t> mismatches{0};
  pool.ParallelFor(kOps, [&map, &mismatches](std::size_t i, int) {
    const std::uint64_t key = static_cast<std::uint64_t>(i) % kKeySpace;
    const std::uint64_t expected = key * 2654435761ULL + 1;
    std::uint64_t value = 0;
    if (map.Lookup(key, &value)) {
      if (value != expected) mismatches.fetch_add(1);
    }
    map.Insert(key, expected);
    if (!map.Lookup(key, &value) || value != expected) {
      mismatches.fetch_add(1);
    }
  });
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(map.size(), kKeySpace);
}

// ------------------------------------------------------------ eval stats ----

TEST(EvalStatsTest, MergeAddsEveryCounter) {
  EvalStats a;
  a.individuals_evaluated = 1;
  a.cache_hits = 2;
  a.cache_lookups = 3;
  a.full_evaluations = 4;
  a.short_circuited = 5;
  a.time_steps_evaluated = 6;
  a.wall_seconds = 0.5;
  a.cpu_seconds = 1.0;
  EvalStats b;
  b.individuals_evaluated = 10;
  b.cache_hits = 20;
  b.cache_lookups = 30;
  b.full_evaluations = 40;
  b.short_circuited = 50;
  b.time_steps_evaluated = 60;
  b.wall_seconds = 0.25;
  b.cpu_seconds = 0.5;
  a.Merge(b);
  EXPECT_EQ(a.individuals_evaluated, 11u);
  EXPECT_EQ(a.cache_hits, 22u);
  EXPECT_EQ(a.cache_lookups, 33u);
  EXPECT_EQ(a.full_evaluations, 44u);
  EXPECT_EQ(a.short_circuited, 55u);
  EXPECT_EQ(a.time_steps_evaluated, 66u);
  EXPECT_DOUBLE_EQ(a.wall_seconds, 0.75);
  EXPECT_DOUBLE_EQ(a.cpu_seconds, 1.5);
  a.Merge(EvalStats{});
  EXPECT_EQ(a.cache_hits, 22u);
}

// ------------------------------------------------- cached evaluation bit ----

TEST(EvaluatorTest, CacheHitRestoresStoredFullyEvaluatedBit) {
  // Regression: the bit must be stored with the cached fitness, not
  // re-derived from the current frontier. Evaluate `worse` first (full
  // evaluation — no frontier yet), then `better` (full, advances the
  // frontier past `worse`). A cache hit on a clone of `worse` must still
  // report fully_evaluated = true even though its fitness now sits above
  // the frontier.
  const t::Grammar grammar = ToyGrammar();
  const ToyFitness fitness(200);
  SpeedupConfig config;
  config.tree_caching = true;
  config.short_circuiting = true;
  FitnessEvaluator evaluator(&grammar, &fitness, config);
  Rng rng(7);

  Individual worse = MakeIndividual(grammar, 2, rng);
  evaluator.EvaluateBatch({&worse}, nullptr);
  ASSERT_TRUE(worse.fully_evaluated);

  // Find a structurally different individual with strictly better fitness.
  Individual better;
  for (int attempt = 0; attempt < 200; ++attempt) {
    Individual candidate = MakeIndividual(grammar, 4, rng);
    const double full = evaluator.EvaluateFull(candidate);
    if (full < worse.fitness) {
      better = std::move(candidate);
      break;
    }
  }
  ASSERT_TRUE(better.genotype != nullptr) << "no better candidate found";
  evaluator.EvaluateBatch({&better}, nullptr);
  ASSERT_TRUE(better.fully_evaluated);
  ASSERT_LT(evaluator.best_prev_full(), worse.fitness);

  Individual again = worse.Clone();
  again.fitness = std::numeric_limits<double>::infinity();
  evaluator.EvaluateBatch({&again}, nullptr);
  EXPECT_DOUBLE_EQ(again.fitness, worse.fitness);
  EXPECT_TRUE(again.fully_evaluated);

  // And the converse: a short-circuited result must stay marked partial on
  // a cache hit.
  Individual bad = worse.Clone();
  ASSERT_FALSE(bad.genotype->children.empty());
  bad.genotype->children[0].node->lexemes.assign(
      bad.genotype->children[0].node->lexemes.size(), 1e6);
  evaluator.EvaluateBatch({&bad}, nullptr);
  ASSERT_FALSE(bad.fully_evaluated);
  Individual bad_again = bad.Clone();
  bad_again.fitness = std::numeric_limits<double>::infinity();
  evaluator.EvaluateBatch({&bad_again}, nullptr);
  EXPECT_DOUBLE_EQ(bad_again.fitness, bad.fitness);
  EXPECT_FALSE(bad_again.fully_evaluated);
}

// --------------------------------------------------------- batch parity ----

TEST(EvaluatorTest, ParallelBatchMatchesSerialUnderFrozenFrontier) {
  const t::Grammar grammar = ToyGrammar();
  const ToyFitness fitness(120);
  SpeedupConfig config;
  config.tree_caching = true;
  config.short_circuiting = true;
  config.num_threads = 4;

  Rng rng(29);
  std::vector<Individual> originals;
  for (int i = 0; i < 40; ++i) {
    originals.push_back(
        MakeIndividual(grammar, 2 + static_cast<std::size_t>(i % 6), rng));
  }

  auto run = [&](ThreadPool* pool) {
    FitnessEvaluator evaluator(&grammar, &fitness, config);
    std::vector<Individual> population;
    for (const Individual& o : originals) population.push_back(o.Clone());
    std::vector<Individual*> batch;
    for (Individual& individual : population) batch.push_back(&individual);
    evaluator.EvaluateBatch(batch, pool);
    std::vector<double> fitnesses;
    for (const Individual& individual : population) {
      fitnesses.push_back(individual.fitness);
    }
    return fitnesses;
  };

  ThreadPool pool(4);
  const std::vector<double> serial = run(nullptr);
  const std::vector<double> parallel = run(&pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i], parallel[i]) << "individual " << i;
  }
}

TEST(EvaluatorTest, BatchStatsFoldAcrossLanes) {
  const t::Grammar grammar = ToyGrammar();
  const ToyFitness fitness(60);
  SpeedupConfig config;
  config.tree_caching = true;
  config.num_threads = 4;
  FitnessEvaluator evaluator(&grammar, &fitness, config);
  ThreadPool pool(4);

  Rng rng(31);
  std::vector<Individual> population;
  for (int i = 0; i < 30; ++i) {
    population.push_back(MakeIndividual(grammar, 3, rng));
  }
  std::vector<Individual*> batch;
  for (Individual& individual : population) batch.push_back(&individual);
  evaluator.EvaluateBatch(batch, &pool);

  const EvalStats& stats = evaluator.stats();
  EXPECT_EQ(stats.cache_lookups, 30u);
  EXPECT_EQ(stats.individuals_evaluated + stats.cache_hits, 30u);
  EXPECT_EQ(evaluator.cache_size(), stats.individuals_evaluated);
}

// ----------------------------------------------------------- determinism ----

Tag3pResult RunToyEngine(int num_threads, const t::Grammar& grammar,
                         const ToyFitness& fitness) {
  Tag3pConfig config;
  config.population_size = 24;
  config.max_generations = 8;
  config.bounds = SizeBounds{2, 12};
  config.local_search_steps = 2;
  config.elite_polish_steps = 5;
  config.sigma_rampdown_generations = 3;
  config.seed = 5;
  config.speedups.tree_caching = true;
  config.speedups.short_circuiting = true;
  config.speedups.num_threads = num_threads;
  Tag3pEngine engine(&grammar, &fitness, {}, config);
  return engine.Run();
}

TEST(Tag3pParallelTest, FrozenFrontierBitIdenticalAcrossThreadCounts) {
  const t::Grammar grammar = ToyGrammar();
  const ToyFitness fitness(60);
  const Tag3pResult one = RunToyEngine(1, grammar, fitness);
  for (int threads : {4, 8}) {
    const Tag3pResult many = RunToyEngine(threads, grammar, fitness);
    EXPECT_EQ(one.best.fitness, many.best.fitness)
        << threads << " threads: best fitness diverged";
    ASSERT_EQ(one.history.size(), many.history.size());
    for (std::size_t g = 0; g < one.history.size(); ++g) {
      // `seconds` is wall clock and legitimately differs; everything else
      // must match bit for bit.
      EXPECT_EQ(one.history[g].best_fitness, many.history[g].best_fitness)
          << threads << " threads, generation " << g;
      EXPECT_EQ(one.history[g].mean_fitness, many.history[g].mean_fitness)
          << threads << " threads, generation " << g;
      EXPECT_EQ(one.history[g].best_size, many.history[g].best_size)
          << threads << " threads, generation " << g;
    }
  }
}

}  // namespace
}  // namespace gmr::gp
