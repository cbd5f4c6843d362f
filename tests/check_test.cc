// Tests of the property-based testing subsystem itself (src/check/):
// generator determinism across thread counts, shrinker minimization,
// oracle sanity on known-good and known-doomed candidates, and the
// counterexample write -> replay cycle.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "analysis/grammar_io.h"
#include "analysis/static_gate.h"
#include "check/corpus.h"
#include "check/fuzz.h"
#include "check/gen.h"
#include "check/oracles.h"
#include "check/shrink.h"
#include "common/thread_pool.h"
#include "expr/print.h"
#include "river/biology.h"
#include "river/parameters.h"
#include "tag/generate.h"

namespace gmr::check {
namespace {

std::string RenderPopulation(const std::vector<expr::ExprPtr>& population) {
  std::string out;
  for (const auto& tree : population) {
    out += expr::ToSExpression(*tree);
    out += '\n';
  }
  return out;
}

tag::Grammar ToyGrammar() {
  std::istringstream spec(
      "# gmr-grammar v1\n"
      "slot R 0.0 1.0\n"
      "alpha seed Exp : B_Phy + R\n"
      "beta grow Exp : FOOT * R\n"
      "beta extend Exp : FOOT + V_tmp * R\n");
  tag::Grammar grammar;
  std::string error;
  EXPECT_TRUE(analysis::ParseGrammarSpec(spec, river::RiverSymbols(), &grammar,
                                         &error))
      << error;
  return grammar;
}

// ---- generators ----

TEST(GenTest, CaseSeedsAreDistinctAndRunSeedSensitive) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    EXPECT_TRUE(seen.insert(CaseSeed(1, i)).second) << i;
  }
  EXPECT_NE(CaseSeed(1, 0), CaseSeed(2, 0));
}

// The satellite determinism audit: same seed => byte-identical generated
// population whether produced inline or fanned out over a 4-thread pool
// (the trace-compare pattern of obs_test's kFrozenFrontier test).
TEST(GenTest, PopulationIsByteIdenticalAcrossThreadCounts) {
  const GenConfig config = RiverGenConfig();
  ThreadPool pool(4);
  const auto pooled = GeneratePopulation(config, 64, 99, &pool);
  const auto inline_run = GeneratePopulation(config, 64, 99, nullptr);
  EXPECT_EQ(RenderPopulation(pooled), RenderPopulation(inline_run));
  // And a different seed actually changes the population.
  const auto other = GeneratePopulation(config, 64, 100, nullptr);
  EXPECT_NE(RenderPopulation(pooled), RenderPopulation(other));
}

TEST(GenTest, DerivationPopulationIsByteIdenticalAcrossThreadCounts) {
  const tag::Grammar grammar = ToyGrammar();
  ThreadPool pool(4);
  const OracleResult verdict = CheckDerivationDeterministic(
      grammar, /*alpha_index=*/0, /*count=*/16, /*target_size=*/6,
      /*seed=*/7, &pool);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
}

TEST(GenTest, DerivationByteMutantsParseOrFailWithAnError) {
  const tag::Grammar grammar = ToyGrammar();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const OracleResult verdict = CheckDerivationBytes(
        grammar, /*alpha_index=*/0, /*count=*/8, /*target_size=*/6, seed,
        nullptr);
    EXPECT_TRUE(verdict.ok) << verdict.detail;
  }
}

TEST(GenTest, RandomParametersStayInPriorBoxes) {
  const GenConfig config = RiverGenConfig();
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const auto params = RandomParameters(config, rng);
    ASSERT_EQ(params.size(), config.priors.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      EXPECT_GE(params[i], config.priors[i].lo) << config.priors[i].name;
      EXPECT_LE(params[i], config.priors[i].hi) << config.priors[i].name;
    }
  }
}

// ---- shrinker ----

TEST(ShrinkTest, MinimizesToSmallestTreeKeepingTheFailure) {
  // "Failure" = the tree still contains a division. The shrinker must boil
  // a large random tree down to a bare div over minimal leaves.
  const auto contains_div = [](const expr::ExprPtr& tree) {
    struct Walker {
      static bool Walk(const expr::Expr& node) {
        if (node.kind() == expr::NodeKind::kDiv) return true;
        for (const auto& child : node.children()) {
          if (Walk(*child)) return true;
        }
        return false;
      }
    };
    return Walker::Walk(*tree);
  };
  const GenConfig config = RiverGenConfig();
  Rng rng(17);
  expr::ExprPtr tree;
  do {
    tree = RandomExpr(config, rng);
  } while (!contains_div(tree) || tree->NodeCount() < 10);

  ShrinkStats stats;
  const expr::ExprPtr shrunk =
      ShrinkExpr(tree, contains_div, /*max_attempts=*/2000, &stats);
  EXPECT_TRUE(contains_div(shrunk));
  EXPECT_LE(shrunk->NodeCount(), 3u) << expr::ToString(*shrunk);
  EXPECT_GT(stats.accepted, 0);
  EXPECT_GE(stats.attempts, stats.accepted);
}

TEST(ShrinkTest, DerivationShrinksToRootWhenAnythingFails) {
  const tag::Grammar grammar = ToyGrammar();
  Rng rng(3);
  const tag::DerivationPtr grown =
      tag::GrowRandom(grammar, /*alpha_index=*/0, /*target_size=*/8, rng);
  ASSERT_GT(grown->NodeCount(), 1u);
  ShrinkStats stats;
  const auto always_fails = [](const tag::DerivationNode&) { return true; };
  const tag::DerivationPtr shrunk = ShrinkDerivation(
      grammar, *grown, always_fails, /*max_attempts=*/500, &stats);
  EXPECT_EQ(shrunk->NodeCount(), 1u);
  std::string error;
  EXPECT_TRUE(tag::Validate(grammar, *shrunk, &error)) << error;
}

// ---- oracles ----

TEST(OracleTest, RegistryKnowsEveryOracle) {
  const auto names = ExprOracleNames();
  EXPECT_EQ(names.size(), 10u);
  for (const std::string& name : names) {
    EXPECT_NE(FindExprOracle(name), nullptr) << name;
  }
  EXPECT_EQ(FindExprOracle("nope"), nullptr);
}

TEST(OracleTest, ExpertEquationPassesEveryExprOracle) {
  const GenConfig config = RiverGenConfig();
  OracleContext ctx;
  ctx.config = &config;
  ExprCase c;
  c.seed = 42;
  c.tree = river::PhytoplanktonDerivative();
  c.parameters = gp::PriorMeans(river::RiverParameterPriors());
  for (const std::string& name : ExprOracleNames()) {
    // The compiler-invoking oracle costs ~100 ms; covered by jit_test and
    // batch_test.
    if (name == "batch_jit") continue;
    const OracleResult verdict = FindExprOracle(name)(c, ctx);
    EXPECT_TRUE(verdict.ok) << name << ": " << verdict.detail;
  }
}

TEST(OracleTest, GateRejectionIsBackedByRuntimeDoom) {
  // Provably -inf everywhere: the gate must reject, and the gate-soundness
  // oracle must agree that rejection was justified at runtime.
  const GenConfig config = RiverGenConfig();
  OracleContext ctx;
  ctx.config = &config;
  ExprCase c;
  c.seed = 42;
  c.tree = expr::Sub(expr::Constant(-1e308), expr::Constant(1e308));
  c.parameters = gp::PriorMeans(river::RiverParameterPriors());

  analysis::StaticGateConfig gate;
  gate.enabled = true;
  gate.domains = config.domains;
  gate.saturation_rate = ctx.saturation_rate;
  EXPECT_TRUE(analysis::AnalyzeCandidate({c.tree}, gate).reject);

  const OracleResult verdict = CheckGateSound(c, ctx);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
}

// ---- fuzz driver + corpus ----

TEST(FuzzTest, SmallRunIsGreenAndThreadCountInvariant) {
  FuzzOptions options;
  options.seed = 11;
  options.iterations = 100;
  options.jit_every = 1 << 20;  // keep the unit test compile-free
  const FuzzReport inline_report = RunFuzz(options);
  EXPECT_TRUE(inline_report.ok());
  EXPECT_GE(inline_report.properties.size(), 6u);

  ThreadPool pool(4);
  options.pool = &pool;
  const FuzzReport pooled_report = RunFuzz(options);
  EXPECT_EQ(pooled_report.total_cases, inline_report.total_cases);
  EXPECT_EQ(pooled_report.total_failures, inline_report.total_failures);
}

TEST(FuzzTest, FilterSelectsProperties) {
  FuzzOptions options;
  options.seed = 11;
  options.iterations = 20;
  options.filter = "roundtrip";  // substring match: printer and ckpt codecs
  const FuzzReport report = RunFuzz(options);
  ASSERT_EQ(report.properties.size(), 2u);
  EXPECT_EQ(report.properties[0].name, "roundtrip");
  EXPECT_EQ(report.properties[0].cases, 20u);
  EXPECT_EQ(report.properties[1].name, "ckpt_roundtrip");
  EXPECT_EQ(report.properties[1].cases, 20u);
}

TEST(CorpusTest, WrittenCounterexampleReplays) {
  const GenConfig config = RiverGenConfig();
  OracleContext ctx;
  ctx.config = &config;
  const std::string dir = ::testing::TempDir() + "gmr_prop_corpus";

  Counterexample counterexample;
  counterexample.property = "vm";
  counterexample.seed = 123;
  counterexample.tree = river::PhytoplanktonDerivative();
  counterexample.parameters = gp::PriorMeans(river::RiverParameterPriors());
  counterexample.detail = "not actually failing; replay mechanics test";
  const std::string path =
      WriteCounterexample(dir, counterexample, config.parameter_names);
  ASSERT_FALSE(path.empty());

  const ReplayResult result = ReplayCorpus(dir, ctx, nullptr);
  EXPECT_EQ(result.files, 1);
  EXPECT_EQ(result.failures, 0);
  EXPECT_EQ(result.errors, 0) << (result.messages.empty()
                                      ? ""
                                      : result.messages.front());
  std::remove(path.c_str());
}

TEST(CorpusTest, UnknownPropertyHeaderIsAnError) {
  const GenConfig config = RiverGenConfig();
  OracleContext ctx;
  ctx.config = &config;
  const std::string dir = ::testing::TempDir() + "gmr_prop_corpus_bad";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/mystery-1.gmr";
  {
    std::ofstream out(path);
    out << "# gmr-model v1\n# property: mystery\n# seed: 1\nequation B_Phy\n";
  }
  const ReplayResult result = ReplayCorpus(dir, ctx, nullptr);
  EXPECT_EQ(result.errors, 1);
  EXPECT_FALSE(result.ok());
  std::remove(path.c_str());
}

TEST(CorpusTest, MissingDirectoryReplaysNothing) {
  const GenConfig config = RiverGenConfig();
  OracleContext ctx;
  ctx.config = &config;
  const ReplayResult result =
      ReplayCorpus("/nonexistent/gmr/prop/corpus", ctx, nullptr);
  EXPECT_EQ(result.files, 0);
  EXPECT_TRUE(result.ok());
}

}  // namespace
}  // namespace gmr::check
