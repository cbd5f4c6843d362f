// Telemetry overhead on the search hot path: identical GMR runs under the
// default NullSink (tracing off — every emission site short-circuits on
// `enabled()`) and under a buffered JsonlTraceSink writing a full trace.
// Results land in BENCH_obs.json; the NullSink row's overhead versus the
// baseline pass is the "instrumentation is free when off" guarantee
// (target: within measurement noise, <= 2%).
//
// The JSONL pass leaves its trace on disk (--trace PATH, default
// BENCH_obs_trace.jsonl) so `gmr_trace` can summarize a real run.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/harness.h"
#include "common/timer.h"
#include "obs/telemetry.h"

namespace {

using namespace gmr;

struct Pass {
  double seconds = 0.0;
  double best_fitness = 0.0;
  double events = 0.0;
};

Pass RunOnce(const core::GmrConfig& config, const core::GmrProblem& problem,
             obs::TelemetrySink* sink) {
  obs::RunContext context;
  context.sink = sink;
  Timer timer;
  const core::GmrRunResult result = core::RunGmr(config, problem, context);
  Pass pass;
  pass.seconds = timer.ElapsedSeconds();
  pass.best_fitness = result.best.fitness;
  return pass;
}

/// Minimum wall-clock over `repeats` identical runs — the least-noise
/// estimator for a deterministic workload. A non-empty `trace_path` runs
/// with a fresh JsonlTraceSink per repeat (the file is rewritten each
/// time, so the last repeat's trace survives); empty runs with the default
/// NullSink.
Pass BestOf(int repeats, const core::GmrConfig& config,
            const core::GmrProblem& problem, const std::string& trace_path) {
  Pass best;
  for (int r = 0; r < repeats; ++r) {
    std::unique_ptr<obs::JsonlTraceSink> sink;
    if (!trace_path.empty()) {
      sink = std::make_unique<obs::JsonlTraceSink>(trace_path);
    }
    Pass pass = RunOnce(config, problem, sink.get());
    if (sink != nullptr) {
      pass.events = static_cast<double>(sink->events_emitted());
    }
    if (r == 0 || pass.seconds < best.seconds) {
      pass.events = std::max(best.events, pass.events);
      best = pass;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::BenchOptions::Parse(argc, argv);
  bench::Scale scale = bench::Scale::FromEnvironment();
  scale.population = std::min(scale.population, 30);
  scale.generations = std::min(scale.generations, 10);
  scale.local_search_steps = 2;

  const river::RiverDataset dataset = bench::MakeDataset(scale);
  const core::RiverPriorKnowledge knowledge =
      core::BuildRiverPriorKnowledge();
  const core::GmrProblem problem{&dataset, &knowledge};

  core::GmrConfig config = bench::MakeGmrConfig(scale, /*seed=*/5);
  config.tag3p.speedups.num_threads = options.threads;
  const std::uint64_t config_hash = bench::HashGmrConfig(config);

  const std::string trace_path = options.trace_path.empty()
                                     ? "BENCH_obs_trace.jsonl"
                                     : options.trace_path;
  constexpr int kRepeats = 3;

  std::printf("[obs] telemetry sink overhead, population %d x %d "
              "generations, best of %d runs each\n\n",
              config.tag3p.population_size, config.tag3p.max_generations,
              kRepeats);

  // Warm the allocator and caches before timing anything.
  RunOnce(config, problem, nullptr);

  const Pass baseline = BestOf(kRepeats, config, problem, "");
  const Pass null_pass = BestOf(kRepeats, config, problem, "");
  const Pass jsonl_pass = BestOf(kRepeats, config, problem, trace_path);

  const auto overhead_pct = [&](const Pass& pass) {
    return 100.0 * (pass.seconds - baseline.seconds) / baseline.seconds;
  };

  std::printf("%-12s %12s %12s %14s\n", "sink", "seconds", "overhead%",
              "best fitness");
  std::printf("%-12s %12.3f %12s %14.6f\n", "baseline", baseline.seconds,
              "-", baseline.best_fitness);
  std::printf("%-12s %12.3f %11.2f%% %14.6f\n", "null", null_pass.seconds,
              overhead_pct(null_pass), null_pass.best_fitness);
  std::printf("%-12s %12.3f %11.2f%% %14.6f  (%.0f events -> %s)\n", "jsonl",
              jsonl_pass.seconds, overhead_pct(jsonl_pass),
              jsonl_pass.best_fitness, jsonl_pass.events,
              trace_path.c_str());

  // The sink must observe, not perturb: the search trajectory is identical
  // with tracing on or off.
  const bool identical =
      baseline.best_fitness == null_pass.best_fitness &&
      baseline.best_fitness == jsonl_pass.best_fitness;
  std::printf("\n[obs] sink-on vs sink-off trajectory: %s\n",
              identical ? "IDENTICAL" : "DIVERGED");

  std::vector<bench::BenchRow> rows;
  {
    bench::BenchRow row("baseline", config.tag3p.seed, config_hash);
    row.Add("seconds", baseline.seconds);
    row.Add("best_fitness", baseline.best_fitness);
    rows.push_back(std::move(row));
  }
  {
    bench::BenchRow row("null_sink", config.tag3p.seed, config_hash);
    row.Add("seconds", null_pass.seconds);
    row.Add("overhead_pct", overhead_pct(null_pass));
    row.Add("best_fitness", null_pass.best_fitness);
    row.Add("identical_trajectory", identical ? 1 : 0);
    rows.push_back(std::move(row));
  }
  {
    bench::BenchRow row("jsonl_sink", config.tag3p.seed, config_hash);
    row.Add("seconds", jsonl_pass.seconds);
    row.Add("overhead_pct", overhead_pct(jsonl_pass));
    row.Add("best_fitness", jsonl_pass.best_fitness);
    row.Add("events", jsonl_pass.events);
    row.Add("identical_trajectory", identical ? 1 : 0);
    rows.push_back(std::move(row));
  }
  bench::WriteBenchJson("BENCH_obs.json", "obs", options.threads, rows);
  return identical ? 0 : 1;
}
