// Checkpointing overhead on the search hot path: identical GMR runs with
// checkpointing off, snapshotting every generation, and snapshotting every
// 5 generations (the durable write-fsync-rename cycle plus full-state
// serialization is paid at each cadence point). A final pass rewinds the
// snapshot chain to a mid-run generation and resumes, timing the resumed
// segment and verifying it reproduces the uninterrupted result exactly.
// Results land in BENCH_ckpt.json (shared bench schema v2).

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "ckpt/checkpoint.h"
#include "ckpt/serialize.h"
#include "common/timer.h"
#include "core/gmr.h"

namespace {

using namespace gmr;

struct Pass {
  double seconds = 0.0;
  double best_fitness = 0.0;
  double snapshots = 0.0;
  double state_bytes = 0.0;  ///< On-disk checkpoint directory footprint.
};

double DirectoryBytes(const std::string& dir) {
  std::error_code ec;
  double total = 0.0;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      total += static_cast<double>(entry.file_size(ec));
    }
  }
  return total;
}

Pass RunOnce(const core::GmrConfig& config, const core::GmrProblem& problem,
             ckpt::Checkpointer* checkpointer) {
  obs::RunContext context;
  context.checkpointer = checkpointer;
  Timer timer;
  const core::GmrRunResult result = core::RunGmr(config, problem, context);
  Pass pass;
  pass.seconds = timer.ElapsedSeconds();
  pass.best_fitness = result.best.fitness;
  return pass;
}

/// Minimum wall-clock over `repeats` identical runs; each checkpointed
/// repeat starts from a cleared directory so no repeat ever resumes.
Pass BestOf(int repeats, const core::GmrConfig& config,
            const core::GmrProblem& problem, const std::string& dir,
            std::uint64_t every_steps) {
  Pass best;
  for (int r = 0; r < repeats; ++r) {
    Pass pass;
    if (dir.empty()) {
      pass = RunOnce(config, problem, nullptr);
    } else {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
      ckpt::CheckpointOptions options;
      options.dir = dir;
      options.every_steps = every_steps;
      ckpt::Checkpointer checkpointer(options);
      pass = RunOnce(config, problem, &checkpointer);
      pass.snapshots = static_cast<double>(checkpointer.saves_attempted());
      pass.state_bytes = DirectoryBytes(dir);
    }
    if (r == 0 || pass.seconds < best.seconds) best = pass;
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

  const std::string state_dir = "BENCH_ckpt_state";
  constexpr int kRepeats = 3;

  std::printf("[ckpt] checkpoint overhead, population %d x %d generations, "
              "best of %d runs each\n\n",
              config.tag3p.population_size, config.tag3p.max_generations,
              kRepeats);

  RunOnce(config, problem, nullptr);  // warm allocator and caches

  const Pass baseline = BestOf(kRepeats, config, problem, "", 0);
  // every-1 runs last so its full chain is what the resume pass rewinds.
  const Pass every5 = BestOf(kRepeats, config, problem, state_dir, 5);
  const Pass every1 = BestOf(kRepeats, config, problem, state_dir, 1);

  const auto overhead_pct = [&](const Pass& pass) {
    return 100.0 * (pass.seconds - baseline.seconds) / baseline.seconds;
  };

  std::printf("%-12s %10s %11s %10s %14s %14s\n", "cadence", "seconds",
              "overhead%", "snapshots", "state bytes", "best fitness");
  std::printf("%-12s %10.3f %11s %10s %14s %14.6f\n", "off",
              baseline.seconds, "-", "-", "-", baseline.best_fitness);
  std::printf("%-12s %10.3f %10.2f%% %10.0f %14.0f %14.6f\n", "every 1",
              every1.seconds, overhead_pct(every1), every1.snapshots,
              every1.state_bytes, every1.best_fitness);
  std::printf("%-12s %10.3f %10.2f%% %10.0f %14.0f %14.6f\n", "every 5",
              every5.seconds, overhead_pct(every5), every5.snapshots,
              every5.state_bytes, every5.best_fitness);

  // Resume pass: the last every-1 repeat left its retained chain on disk.
  // Rewind it to the middle entry and time the resumed segment, which must
  // land on exactly the uninterrupted best.
  double resume_seconds = 0.0;
  double resume_identical = 0.0;
  double resume_step = 0.0;
  {
    std::uint64_t mid = 0;
    {
      ckpt::SnapshotStore store(state_dir, /*retain=*/8);
      if (store.entries().size() >= 2) {
        mid = store.entries()[(store.entries().size() - 1) / 2].step;
        store.DropNewerThan(mid);
      }
    }
    ckpt::CheckpointOptions ck_options;
    ck_options.dir = state_dir;
    ck_options.every_steps = 1;
    ckpt::Checkpointer checkpointer(ck_options);
    Timer timer;
    const Pass resumed = RunOnce(config, problem, &checkpointer);
    resume_seconds = timer.ElapsedSeconds();
    resume_identical =
        resumed.best_fitness == every1.best_fitness ? 1.0 : 0.0;
    resume_step = static_cast<double>(mid);
    std::printf("\n[ckpt] resume from generation %.0f: %.3fs, result %s\n",
                resume_step, resume_seconds,
                resume_identical != 0.0 ? "IDENTICAL" : "DIVERGED");
  }

  const bool identical = baseline.best_fitness == every1.best_fitness &&
                         baseline.best_fitness == every5.best_fitness &&
                         resume_identical != 0.0;
  std::printf("[ckpt] ckpt-on vs ckpt-off trajectory: %s\n",
              identical ? "IDENTICAL" : "DIVERGED");

  std::vector<bench::BenchRow> rows;
  {
    bench::BenchRow row("baseline", config.tag3p.seed, config_hash);
    row.Add("seconds", baseline.seconds);
    row.Add("best_fitness", baseline.best_fitness);
    rows.push_back(std::move(row));
  }
  {
    bench::BenchRow row("ckpt_every_1", config.tag3p.seed, config_hash);
    row.Add("seconds", every1.seconds);
    row.Add("overhead_pct", overhead_pct(every1));
    row.Add("snapshots", every1.snapshots);
    row.Add("state_bytes", every1.state_bytes);
    row.Add("best_fitness", every1.best_fitness);
    row.Add("identical_trajectory", identical ? 1 : 0);
    rows.push_back(std::move(row));
  }
  {
    bench::BenchRow row("ckpt_every_5", config.tag3p.seed, config_hash);
    row.Add("seconds", every5.seconds);
    row.Add("overhead_pct", overhead_pct(every5));
    row.Add("snapshots", every5.snapshots);
    row.Add("state_bytes", every5.state_bytes);
    row.Add("best_fitness", every5.best_fitness);
    row.Add("identical_trajectory", identical ? 1 : 0);
    rows.push_back(std::move(row));
  }
  {
    bench::BenchRow row("resume_mid_run", config.tag3p.seed, config_hash);
    row.Add("seconds", resume_seconds);
    row.Add("resumed_from_step", resume_step);
    row.Add("identical_result", resume_identical);
    rows.push_back(std::move(row));
  }
  bench::WriteBenchJson("BENCH_ckpt.json", "ckpt", options.threads, rows);

  std::error_code ec;
  std::filesystem::remove_all(state_dir, ec);
  return identical ? 0 : 1;
}
