// Throughput of the property-based testing subsystem (src/check/): case
// generation, each differential oracle, the greedy shrinker, and the
// end-to-end fuzz loop. Results land in BENCH_fuzz.json; the point of the
// numbers is budgeting — how many iterations the 2000-case `fuzz_smoke`
// ctest entry and a soak run (GMR_FUZZ_ITERS) buy per second.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "check/fuzz.h"
#include "check/gen.h"
#include "check/oracles.h"
#include "check/shrink.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace {

using namespace gmr;

bool ContainsDiv(const expr::Expr& node) {
  if (node.kind() == expr::NodeKind::kDiv) return true;
  for (const auto& child : node.children()) {
    if (ContainsDiv(*child)) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::BenchOptions::Parse(argc, argv);
  const check::GenConfig config = check::RiverGenConfig();
  std::unique_ptr<ThreadPool> pool;
  if (options.threads > 1) {
    pool = std::make_unique<ThreadPool>(options.threads);
  }

  constexpr std::uint64_t kSeed = 1;
  constexpr std::size_t kGenCount = 20000;
  constexpr std::size_t kOracleCount = 2000;
  constexpr int kShrinkCount = 200;

  const std::uint64_t config_hash = bench::ConfigHasher()
                                        .Add("gen_count", kGenCount)
                                        .Add("oracle_count", kOracleCount)
                                        .Add("max_depth", config.max_depth)
                                        .hash();
  std::vector<bench::BenchRow> rows;

  // Generator throughput (also the population used by the oracle rows).
  Timer gen_timer;
  const auto population =
      check::GeneratePopulation(config, kGenCount, kSeed, pool.get());
  {
    const double seconds = gen_timer.ElapsedSeconds();
    bench::BenchRow row("gen", kSeed, config_hash);
    row.Add("trees", static_cast<double>(population.size()));
    row.Add("seconds", seconds);
    row.Add("trees_per_second", static_cast<double>(population.size()) /
                                    (seconds > 0 ? seconds : 1e-9));
    rows.push_back(row);
    std::printf("%-10s %8zu trees   %8.3f s   %10.0f/s\n", "gen",
                population.size(), seconds,
                row.stats.back().second);
  }

  // Per-oracle throughput over the shared population.
  check::OracleContext oracle_ctx;
  oracle_ctx.config = &config;
  Rng param_rng(check::CaseSeed(kSeed, 0xbe7cu));
  for (const std::string& name : check::ExprOracleNames()) {
    const check::ExprOracle oracle = check::FindExprOracle(name);
    std::size_t failures = 0;
    Timer timer;
    for (std::size_t i = 0; i < kOracleCount; ++i) {
      check::ExprCase c;
      c.seed = check::CaseSeed(kSeed, i);
      c.tree = population[i % population.size()];
      c.parameters = check::RandomParameters(config, param_rng);
      if (!oracle(c, oracle_ctx).ok) ++failures;
    }
    const double seconds = timer.ElapsedSeconds();
    bench::BenchRow row("oracle_" + name, kSeed, config_hash);
    row.Add("cases", static_cast<double>(kOracleCount));
    row.Add("failures", static_cast<double>(failures));
    row.Add("seconds", seconds);
    row.Add("cases_per_second", static_cast<double>(kOracleCount) /
                                    (seconds > 0 ? seconds : 1e-9));
    rows.push_back(row);
    std::printf("%-10s %8zu cases   %8.3f s   %10.0f/s   %zu failures\n",
                name.c_str(), kOracleCount, seconds, row.stats.back().second,
                failures);
  }

  // Shrinker throughput on a synthetic always-reproducible failure: "the
  // tree still contains a division".
  {
    const auto still_fails = [](const expr::ExprPtr& tree) {
      return ContainsDiv(*tree);
    };
    std::size_t shrunk_trees = 0;
    std::size_t attempts = 0;
    Timer timer;
    for (int i = 0; shrunk_trees < kShrinkCount; ++i) {
      const expr::ExprPtr& tree = population[i % population.size()];
      if (!ContainsDiv(*tree)) continue;
      check::ShrinkStats stats;
      check::ShrinkExpr(tree, still_fails, /*max_attempts=*/500, &stats);
      attempts += static_cast<std::size_t>(stats.attempts);
      ++shrunk_trees;
    }
    const double seconds = timer.ElapsedSeconds();
    bench::BenchRow row("shrink", kSeed, config_hash);
    row.Add("trees", static_cast<double>(shrunk_trees));
    row.Add("predicate_calls", static_cast<double>(attempts));
    row.Add("seconds", seconds);
    row.Add("trees_per_second",
            static_cast<double>(shrunk_trees) / (seconds > 0 ? seconds : 1e-9));
    rows.push_back(row);
    std::printf("%-10s %8zu trees   %8.3f s   %10.0f/s\n", "shrink",
                shrunk_trees, seconds, row.stats.back().second);
  }

  // End-to-end fuzz loop at the ctest smoke budget.
  {
    check::FuzzOptions fuzz;
    fuzz.seed = kSeed;
    fuzz.iterations = 2000;
    fuzz.pool = pool.get();
    Timer timer;
    const check::FuzzReport report = check::RunFuzz(fuzz);
    const double seconds = timer.ElapsedSeconds();
    bench::BenchRow row("fuzz_loop", kSeed, config_hash);
    row.Add("iterations", static_cast<double>(fuzz.iterations));
    row.Add("case_checks", static_cast<double>(report.total_cases));
    row.Add("failures", static_cast<double>(report.total_failures));
    row.Add("seconds", seconds);
    row.Add("checks_per_second", static_cast<double>(report.total_cases) /
                                     (seconds > 0 ? seconds : 1e-9));
    rows.push_back(row);
    std::printf("%-10s %8llu checks  %8.3f s   %10.0f/s   %llu failures\n",
                "fuzz_loop",
                static_cast<unsigned long long>(report.total_cases), seconds,
                row.stats.back().second,
                static_cast<unsigned long long>(report.total_failures));
  }

  bench::WriteBenchJson("BENCH_fuzz.json", "fuzz", options.threads, rows);
  return 0;
}
