// Batch-compiled population evaluation benchmark: compiler-invocation
// amortization of the generation JIT (one TU per generation vs one TU per
// model, structure-hash compile cache).
//
// Emits BENCH_batch.json (schema_version 2); the generation row carries
// the `compile_cache_hit_rate` stats field.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/timer.h"
#include "expr/ast.h"
#include "expr/batch_jit.h"
#include "river/variables.h"

namespace {

namespace e = gmr::expr;

/// A synthetic "generation": `population` candidate ODE pairs in which only
/// `unique_structures` distinct tree shapes occur — the shape distribution
/// TAG3P crossover actually produces (duplicates are common, which is what
/// the structure-hash cache exploits).
std::vector<std::vector<e::ExprPtr>> MakeGeneration(int population,
                                                    int unique_structures) {
  using gmr::river::kBPhy;
  using gmr::river::kBZoo;
  std::vector<std::vector<e::ExprPtr>> generation;
  generation.reserve(static_cast<std::size_t>(population));
  for (int i = 0; i < population; ++i) {
    const int shape = i % unique_structures;
    // Vary structure (not just constants) so every shape gets its own
    // structural hash: a growth chain of `shape` extra Mul links.
    e::ExprPtr growth = e::Mul(e::Parameter(0, "p0"),
                               e::Variable(kBPhy, "B"));
    for (int d = 0; d < shape; ++d) {
      growth = e::Mul(growth, e::Max(e::Parameter(1, "p1"),
                                     e::Constant(0.5 + 0.25 * d)));
    }
    std::vector<e::ExprPtr> equations;
    equations.push_back(
        e::Sub(std::move(growth),
               e::Mul(e::Parameter(1, "p1"), e::Variable(kBZoo, "Z"))));
    equations.push_back(
        e::Mul(e::Parameter(2, "p2"), e::Variable(kBPhy, "B")));
    generation.push_back(std::move(equations));
  }
  return generation;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gmr;
  const bench::BenchOptions options = bench::BenchOptions::Parse(argc, argv);
  const bench::Scale scale = bench::Scale::FromEnvironment();

  bench::ConfigHasher hasher;
  hasher.Add("population", scale.population);
  const std::uint64_t config_hash = hasher.hash();
  std::vector<bench::BenchRow> rows;

  // ------------------------------------------------ compile amortization
  // One generation of `population` individuals (2 equations each) with the
  // duplicate-heavy structure distribution of real TAG3P populations.
  const int population = std::min(scale.population, 64);
  const int unique_structures = 12;
  const auto generation = MakeGeneration(population, unique_structures);

  std::printf("[bench_batch] generation JIT vs per-model JIT\n");
  std::printf("population %d (x2 equations), %d unique structures\n\n",
              population, unique_structures);

  if (expr::JitAvailable()) {
    // Per-model path: one compiler invocation per individual equation,
    // exactly what the paper's Section III-D mechanism costs — a fresh
    // session per equation, so no cache or shared TU amortizes anything.
    // A small sample extrapolates the full-generation cost so "quick"
    // scale stays quick on the 1-CPU container.
    expr::JitCircuitBreaker per_model_breaker;
    const int sample = std::min(population, 8);
    Timer per_model_timer;
    int per_model_invocations = 0;
    for (int i = 0; i < sample; ++i) {
      for (const e::ExprPtr& equation : generation[static_cast<size_t>(i)]) {
        expr::BatchJitSession single(&per_model_breaker);
        if (single.CompileBatch({equation.get()})[0] != nullptr) {
          ++per_model_invocations;
        }
      }
    }
    const double per_model_seconds = per_model_timer.ElapsedSeconds();
    const double per_model_rate =
        per_model_invocations / per_model_seconds;
    const double per_model_generation =
        static_cast<double>(2 * population);  // invocations, extrapolated

    // Batched path: every equation of the generation through ONE
    // CompileBatch call — one TU, one compiler invocation, deduplicated by
    // structural hash.
    expr::JitCircuitBreaker breaker;
    expr::BatchJitSession session(&breaker);
    std::vector<const e::Expr*> roots;
    for (const auto& individual : generation) {
      for (const e::ExprPtr& equation : individual) {
        roots.push_back(equation.get());
      }
    }
    Timer batch_timer;
    const auto fns = session.CompileBatch(roots);
    const double batch_seconds = batch_timer.ElapsedSeconds();
    // Second generation with the same structures: pure cache hits.
    session.CompileBatch(roots);
    const expr::BatchJitSession::Stats stats = session.stats();

    const double batch_rate = static_cast<double>(fns.size()) / batch_seconds;
    const double invocation_ratio =
        per_model_generation / static_cast<double>(stats.tu_compiles);
    std::printf("%-12s %22s %18s %16s\n", "method", "compiler invocations",
                "models/sec", "cache hit rate");
    std::printf("%-12s %22.0f %18.1f %16s\n", "per-model",
                per_model_generation, per_model_rate, "-");
    std::printf("%-12s %22zu %18.1f %15.0f%%\n", "generation",
                static_cast<std::size_t>(stats.tu_compiles), batch_rate,
                100.0 * stats.HitRate());
    std::printf("-> %.0fx fewer compiler invocations per generation "
                "(acceptance floor: 5x)\n\n", invocation_ratio);

    bench::BenchRow per_model_row("per_model_jit", 3, config_hash);
    per_model_row.Add("compiler_invocations", per_model_generation);
    per_model_row.Add("models_per_sec", per_model_rate);
    per_model_row.Add("sample_models", 2.0 * sample);
    rows.push_back(std::move(per_model_row));

    bench::BenchRow batch_row("generation_jit", 3, config_hash);
    batch_row.Add("compiler_invocations",
                  static_cast<double>(stats.tu_compiles));
    batch_row.Add("models_per_sec", batch_rate);
    batch_row.Add("symbols_compiled",
                  static_cast<double>(stats.symbols_compiled));
    batch_row.Add("compile_cache_hit_rate", stats.HitRate());
    batch_row.Add("invocation_ratio", invocation_ratio);
    rows.push_back(std::move(batch_row));
  } else {
    std::printf("(no C compiler available; skipping the JIT comparison)\n\n");
  }

  bench::WriteBenchJson("BENCH_batch.json", "batch", options.threads, rows);
  std::printf("wrote BENCH_batch.json\n");
  return 0;
}
