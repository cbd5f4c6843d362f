#include "check/fuzz.h"

#include <algorithm>
#include <mutex>

#include "check/shrink.h"
#include "common/check.h"
#include "core/river_grammar.h"
#include "core/transport_grammar.h"

namespace gmr::check {
namespace {

/// One recorded failure, keyed by case index so aggregation over a thread
/// pool can be re-sorted into a deterministic order.
struct RecordedFailure {
  std::uint64_t index = 0;
  std::string detail;
  std::string written_path;
};

struct PropertyState {
  std::string name;
  ExprOracle oracle = nullptr;
  std::uint64_t cases = 0;
  std::vector<RecordedFailure> failures;
};

bool MatchesFilter(const std::string& name, const std::string& filter) {
  return filter.empty() || name.find(filter) != std::string::npos;
}

}  // namespace

FuzzReport RunFuzz(const FuzzOptions& options) {
  return RunFuzz(options, RiverGenConfig());
}

FuzzReport RunFuzz(const FuzzOptions& options, const GenConfig& config) {
  OracleContext ctx;
  ctx.config = &config;
  ctx.contexts_per_case = options.contexts_per_case;

  std::vector<PropertyState> properties;
  for (const std::string& name : ExprOracleNames()) {
    if (!MatchesFilter(name, options.filter)) continue;
    properties.push_back({name, FindExprOracle(name), 0, {}});
  }
  const bool run_derivation = MatchesFilter("derivation", options.filter);
  const bool run_derivation_bytes =
      MatchesFilter("derivation_bytes", options.filter);
  const bool run_ckpt_generation =
      MatchesFilter("ckpt_generation", options.filter);

  std::mutex mu;
  const auto task_failures =
      ParallelFor(options.pool, options.iterations, [&](std::size_t i) {
        const std::uint64_t case_seed = CaseSeed(options.seed, i);
        Rng rng(case_seed);
        ExprCase c;
        c.seed = case_seed;
        c.tree = RandomExpr(config, rng);
        c.parameters = RandomParameters(config, rng);
        for (PropertyState& property : properties) {
          const OracleResult first = property.oracle(c, ctx);
          std::string detail;
          std::string written;
          if (!first.ok) {
            // Shrink while the same oracle keeps failing on the same seed
            // and parameter vector.
            const auto still_fails = [&](const expr::ExprPtr& candidate) {
              ExprCase shrunk = c;
              shrunk.tree = candidate;
              return !property.oracle(shrunk, ctx).ok;
            };
            ExprCase shrunk = c;
            shrunk.tree = ShrinkExpr(c.tree, still_fails,
                                     options.max_shrink_attempts, nullptr);
            detail = property.oracle(shrunk, ctx).detail;
            if (detail.empty()) detail = first.detail;
            if (!options.corpus_dir.empty()) {
              Counterexample counterexample;
              counterexample.property = property.name;
              counterexample.seed = case_seed;
              counterexample.tree = shrunk.tree;
              counterexample.parameters = shrunk.parameters;
              counterexample.detail = detail;
              written = WriteCounterexample(options.corpus_dir, counterexample,
                                            config.parameter_names);
            }
          }
          std::lock_guard<std::mutex> lock(mu);
          ++property.cases;
          if (!first.ok) {
            property.failures.push_back({i, detail, written});
          }
        }
      });
  GMR_CHECK(task_failures.empty());

  FuzzReport report;
  for (PropertyState& property : properties) {
    std::sort(property.failures.begin(), property.failures.end(),
              [](const RecordedFailure& a, const RecordedFailure& b) {
                return a.index < b.index;
              });
    PropertyReport row;
    row.name = property.name;
    row.cases = property.cases;
    row.failures = property.failures.size();
    if (!property.failures.empty()) {
      row.first_failure = property.failures.front().detail;
    }
    for (const RecordedFailure& failure : property.failures) {
      if (!failure.written_path.empty()) {
        row.written.push_back(failure.written_path);
      }
    }
    report.total_cases += row.cases;
    report.total_failures += row.failures;
    report.properties.push_back(std::move(row));
  }

  // The population-level oracles spawn whole generations (and use the pool
  // themselves), so they run serially over their subsampled indices —
  // nesting ParallelFor inside a pool worker would deadlock the single-job
  // pool. Each case runs on the plankton and the five-species transport
  // grammar.
  if ((run_derivation || run_derivation_bytes || run_ckpt_generation) &&
      options.iterations > 0) {
    const core::RiverPriorKnowledge grammars[] = {
        core::BuildRiverPriorKnowledge(),
        core::BuildTransportPriorKnowledge(
            river::ConstituentSet::Transport(5))};
    const auto every =
        static_cast<std::uint64_t>(std::max(options.derivation_every, 1));
    struct PopulationOracle {
      const char* name;
      bool enabled;
      OracleResult (*check)(const tag::Grammar&, int, std::size_t,
                            std::size_t, std::uint64_t, ThreadPool*);
    };
    const PopulationOracle population_oracles[] = {
        {"derivation", run_derivation, CheckDerivationDeterministic},
        {"derivation_bytes", run_derivation_bytes, CheckDerivationBytes},
        {"ckpt_generation", run_ckpt_generation, CheckGenerationRoundTrip},
    };
    for (const PopulationOracle& oracle : population_oracles) {
      if (!oracle.enabled) continue;
      PropertyReport row;
      row.name = oracle.name;
      for (std::uint64_t i = 0; i < options.iterations; i += every) {
        const std::uint64_t case_seed = CaseSeed(options.seed, i);
        for (const core::RiverPriorKnowledge& knowledge : grammars) {
          ++row.cases;
          const OracleResult verdict = oracle.check(
              knowledge.grammar, knowledge.seed_alpha_index, /*count=*/4,
              /*target_size=*/8, case_seed, options.pool);
          if (!verdict.ok) {
            ++row.failures;
            if (row.first_failure.empty()) row.first_failure = verdict.detail;
          }
        }
      }
      report.total_cases += row.cases;
      report.total_failures += row.failures;
      report.properties.push_back(std::move(row));
    }
  }
  return report;
}

}  // namespace gmr::check
