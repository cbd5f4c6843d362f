#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <utility>

#include "analysis/static_gate.h"
#include "calibrate/calibrator.h"
#include "calibrate/methods.h"
#include "ckpt/checkpoint.h"
#include "common/rng.h"
#include "core/gmr.h"
#include "core/river_grammar.h"
#include "core/transport_grammar.h"
#include "expr/simplify.h"
#include "grad/adjoint.h"
#include "obs/trace_reader.h"
#include "perfbench/trace.h"
#include "river/biology.h"
#include "river/chemistry.h"
#include "river/domains.h"
#include "river/simulate.h"
#include "river/synthetic.h"
#include "tag/derivation.h"

namespace gmr::perfbench {
namespace {

namespace fs = std::filesystem;

// A run is a panel of independent problem instances, each with its own data,
// search and start seeds. One full-size search (population 200 x 100
// generations) varies up to threefold in simulated days from seed to seed;
// a panel of many short searches averages that out, so a run's totals are
// steady across workload seeds (README.md).

/// Eight synthetic years, six for training (2190 training days).
constexpr int kYears = 8;
constexpr int kTrainYears = 6;
constexpr int kPopulation = 100;
/// Calibration: datasets per run, L-BFGS starts per dataset, budget each.
constexpr int kCalibrationInstances = 8;
constexpr int kStartsPerInstance = 4;
constexpr std::size_t kBudgetPerStart = 150;

/// Independent seed streams derived from (workload seed, instance).
enum SeedStream : std::uint64_t {
  kDataStream = 1,
  kSearchStream = 2,
  kStartStream = 3,
  kCalibrationStream = 4,
};

std::uint64_t DeriveSeed(std::uint64_t seed, int instance,
                         std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL +
                    static_cast<std::uint64_t>(instance) * 0xd1b54a32d192ed03ULL +
                    stream * 0xaef17502108ef2d9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

river::SyntheticConfig DataConfig(std::uint64_t seed, int instance) {
  river::SyntheticConfig config;
  config.years = kYears;
  config.train_years = kTrainYears;
  config.seed = DeriveSeed(seed, instance, kDataStream);
  return config;
}

double Seconds(std::int64_t start_ns) { return 1e-9 * (NowNs() - start_ns); }

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Fitness of one full (never short-circuited) pass: the RMSE over every
/// observed constituent on the fitness's window.
double FullPassRmse(const gp::SequentialFitness& fitness,
                   const std::vector<expr::ExprPtr>& equations,
                   const std::vector<double>& parameters) {
  const std::unique_ptr<gp::SequentialEvaluation> eval =
      fitness.Begin(equations, parameters, /*use_compiled_backend=*/true);
  while (eval->Step()) {
  }
  return eval->CurrentFitness();
}

void PrepareDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
}

int RkStages(river::IntegrationMethod method) {
  return method == river::IntegrationMethod::kRk4 ? 4 : 1;
}

std::string Format(const char* format, double a, double b = 0.0) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), format, a, b);
  return buffer;
}

/// Records the timing of one panel instance's main call.
void RecordInstance(const Stopwatch& watch, RunRecord* record) {
  record->instance_s.push_back(watch.RestatedSeconds());
  record->instance_wall_s.push_back(watch.WallSeconds());
  record->cpu_s += watch.CpuSeconds();
}

/// Runs every panel instance untraced and traced back to back, alternating
/// which of the two goes first, so both times of an instance see the same
/// host state. `run_one(index, traced, &panel)` runs one instance into a
/// panel; `finish(panel, traced)` reduces a panel to its record.
template <typename Panel, typename RunOne, typename Finish>
std::pair<RunRecord, RunRecord> RunPanelsPaired(std::size_t size,
                                                RunOne run_one,
                                                Finish finish) {
  Panel untraced, traced;
  for (std::size_t i = 0; i < size; ++i) {
    if (i % 2 == 0) {
      run_one(i, false, &untraced);
      run_one(i, true, &traced);
    } else {
      run_one(i, true, &traced);
      run_one(i, false, &untraced);
    }
  }
  return {finish(untraced, false), finish(traced, true)};
}

// ---------------------------------------------------------------------------
// GMR revision workloads.

struct GmrSpec {
  bool transport = false;  ///< Five-species transport instead of plankton.
  bool durable = false;    ///< Checkpoint every generation + JSONL trace.
  bool gate = false;       ///< Interval static gate.
  river::IntegrationMethod method = river::IntegrationMethod::kEuler;
  int threads = 1;
  int instances = 30;
  int generations = 7;
};

/// One revision problem of the panel. Heap-allocated and never moved: the
/// fitness borrows the dataset.
struct GmrInstance {
  river::RiverDataset dataset;
  river::ConstituentSet constituents;
  std::optional<core::RiverPriorKnowledge> knowledge;
  core::GmrConfig config;
  std::optional<river::RiverFitness> fitness;
  std::string ckpt_dir;
  std::string trace_path;
  std::optional<double> expert_fitness;
};

/// What one execution of the GMR panel accumulates: the outputs behind its
/// record and, when traced, the layer measurements, each summed over the
/// instances.
struct GmrPanel {
  RunRecord record;
  gp::EvalStats stats;
  double best_fitness = 0.0;
  double train_rmse = 0.0;
  std::vector<double> test_rmse;
  double save_attempts = 0.0;
  double save_failures = 0.0;
  double trace_bytes = 0.0;
  double unbatched = 0.0;
  // Traced executions only.
  double accuracy_s = 0.0;
  double begin_s = 0.0;
  double step_s = 0.0;
  double begin_calls = 0.0;
  double steps = 0.0;
  double ckpt_s = 0.0;
  double saves = 0.0;
  double snapshot_bytes = 0.0;
  double snapshots = 0.0;
  double events = 0.0;
  double emit_s = 0.0;
  std::vector<std::vector<expr::ExprPtr>> phenotypes;  // gate replay sample
};

class GmrWorkload final : public Workload {
 public:
  GmrWorkload(GmrSpec spec, std::uint64_t seed, const std::string& scratch)
      : spec_(spec), seed_(seed), scratch_(scratch) {}

  void Setup() override {
    for (int i = 0; i < spec_.instances; ++i) {
      instances_.push_back(MakeInstance(i));
    }
  }

  RunRecord Run() override {
    GmrPanel panel;
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      RunInstance(i, /*traced=*/false, &panel);
    }
    return Finish(panel, /*traced=*/false);
  }

  std::pair<RunRecord, RunRecord> RunPaired() override {
    return RunPanelsPaired<GmrPanel>(
        instances_.size(),
        [this](std::size_t i, bool traced, GmrPanel* panel) {
          RunInstance(i, traced, panel);
        },
        [this](GmrPanel& panel, bool traced) { return Finish(panel, traced); });
  }

 private:
  std::unique_ptr<GmrInstance> MakeInstance(int index) const;
  /// The training fitness, built the way RunGmr builds it.
  river::RiverFitness TrainingFitness(const GmrInstance& instance) const {
    return spec_.transport
               ? river::RiverFitness::ForTrainingWith(
                     &instance.dataset, instance.constituents,
                     instance.config.simulation)
               : river::RiverFitness::ForTraining(&instance.dataset,
                                                  instance.config.simulation);
  }
  core::AccuracyReport Accuracy(const GmrInstance& instance,
                                const std::vector<expr::ExprPtr>& equations,
                                const std::vector<double>& parameters) const {
    return spec_.transport
               ? core::EvaluateAccuracy(equations, parameters,
                                        instance.dataset,
                                        instance.config.simulation,
                                        instance.constituents)
               : core::EvaluateAccuracy(equations, parameters,
                                        instance.dataset,
                                        instance.config.simulation);
  }
  /// Training fitness (RMSE over every observed constituent) of the expert
  /// process at the prior means: what the revision must not be worse than.
  double ExpertFitness(GmrInstance& instance) const {
    if (!instance.expert_fitness) {
      const std::vector<expr::ExprPtr> expert =
          spec_.transport ? river::TransportProcess(instance.constituents)
                          : river::ManualProcess();
      instance.expert_fitness =
          FullPassRmse(*instance.fitness, expert,
                      gp::PriorMeans(instance.knowledge->priors));
    }
    return *instance.expert_fitness;
  }
  void RunInstance(std::size_t index, bool traced, GmrPanel* panel);
  RunRecord Finish(GmrPanel& panel, bool traced) const;
  void CheckDurableOutputs(const GmrInstance& instance,
                           const gp::EvalStats& stats, GmrPanel* panel) const;
  void AddLayers(const GmrPanel& panel, RunRecord* record) const;

  GmrSpec spec_;
  std::uint64_t seed_;
  std::string scratch_;
  std::vector<std::unique_ptr<GmrInstance>> instances_;
};

std::unique_ptr<GmrInstance> GmrWorkload::MakeInstance(int index) const {
  auto instance = std::make_unique<GmrInstance>();
  const river::SyntheticConfig data = DataConfig(seed_, index);
  if (spec_.transport) {
    river::TransportScenario scenario =
        river::GenerateTransportScenario(data, 5);
    instance->dataset = std::move(scenario.dataset);
    instance->constituents = std::move(scenario.constituents);
    instance->knowledge.emplace(
        core::BuildTransportPriorKnowledge(instance->constituents));
  } else {
    instance->dataset = river::GenerateNakdongLike(data);
    instance->knowledge.emplace(core::BuildRiverPriorKnowledge());
  }

  // Every search knob pinned, whatever the library defaults become.
  gp::Tag3pConfig& search = instance->config.tag3p;
  search.population_size = kPopulation;
  search.max_generations = spec_.generations;
  search.elite_size = 2;
  search.tournament_size = 5;
  search.local_search_steps = 3;
  search.sigma_rampdown_generations = spec_.generations / 5;
  search.elite_polish_steps = 25;
  search.elite_gradient_steps = 0;
  search.seed = DeriveSeed(seed_, index, kSearchStream);
  search.speedups.tree_caching = true;
  search.speedups.short_circuiting = true;
  search.speedups.runtime_compilation = true;
  search.speedups.es_threshold = 1.0;
  search.speedups.frontier_mode = gp::FrontierMode::kFrozenFrontier;
  search.speedups.num_threads = spec_.threads;
  river::SimulationConfig& simulation = instance->config.simulation;
  simulation.method = spec_.method;
  if (spec_.transport) {
    simulation.num_species = static_cast<int>(instance->constituents.size());
  }
  if (spec_.gate) {
    search.speedups.static_gate =
        river::MakeStaticGate(simulation, &instance->dataset);
  }
  instance->fitness.emplace(TrainingFitness(*instance));
  if (spec_.durable) {
    const std::string dir = scratch_ + "/" + std::to_string(index);
    instance->ckpt_dir = dir + "/ckpt";
    instance->trace_path = dir + "/trace.jsonl";
    PrepareDir(instance->ckpt_dir);
  }
  return instance;
}

void GmrWorkload::RunInstance(std::size_t index, bool traced,
                              GmrPanel* panel) {
  GmrInstance& instance = *instances_[index];
  RunRecord& record = panel->record;
  // Durable wiring, as river_forecast --ckpt runs it, plus a timed trace.
  std::optional<obs::JsonlTraceSink> trace;
  std::optional<ckpt::Checkpointer> checkpointer;
  StampSink ops;  // the checkpointer's operational sink (traced run only)
  if (spec_.durable) {
    PrepareDir(instance.ckpt_dir);
    trace.emplace(instance.trace_path);
    ckpt::CheckpointOptions options;
    options.dir = instance.ckpt_dir;
    options.every_steps = 1;
    checkpointer.emplace(options, traced ? &ops : nullptr);
    checkpointer->AttachTraceSink(&*trace);
    ops.set_on_event([&](const StampSink::Stamp& stamp) {
      if (stamp.type != "ckpt" || stamp.action != "save") return;
      std::error_code ec;
      const std::uintmax_t size = fs::file_size(
          fs::path(instance.ckpt_dir) /
              checkpointer->store().entries().back().file,
          ec);
      panel->snapshot_bytes += ec ? 0.0 : static_cast<double>(size);
      panel->snapshots += 1.0;
    });
  }
  obs::RunContext context;
  context.checkpointer = checkpointer ? &*checkpointer : nullptr;
  context.sink = trace ? &*trace : nullptr;

  gp::EvalStats stats;
  double best = 0.0;
  core::AccuracyReport accuracy;
  std::vector<expr::ExprPtr> best_equations;
  std::vector<double> best_parameters;
  if (!traced) {
    const core::GmrProblem problem{
        &instance.dataset, &*instance.knowledge,
        spec_.transport ? &instance.constituents : nullptr};
    const Stopwatch watch;
    const core::GmrRunResult result =
        core::RunGmr(instance.config, problem, context);
    RecordInstance(watch, &record);
    stats = result.search.eval_stats;
    best = result.best.fitness;
    accuracy.train_rmse = result.train_rmse;
    accuracy.test_rmse = result.test_rmse;
    best_equations = result.best_equations;
    best_parameters = result.best.parameters;
  } else {
    // RunGmr's search, re-assembled from the public pieces so the fitness
    // can be decorated: the same fitness construction, RunTag3p over the
    // problem RunGmr builds, the same final accuracy evaluation and flush.
    StampSink stamps(trace ? &*trace : nullptr);
    context.sink = &stamps;
    gp::Tag3pConfig search = instance.config.tag3p;
    search.seed_alpha_index = instance.knowledge->seed_alpha_index;
    const Stopwatch watch;
    const river::RiverFitness fitness = TrainingFitness(instance);
    TimedFitness timed(&fitness, /*capture_phenotypes=*/spec_.gate &&
                                     panel->phenotypes.empty());
    const gp::Tag3pProblem problem{&instance.knowledge->grammar, &timed,
                                   instance.knowledge->priors};
    const gp::Tag3pResult result = gp::RunTag3p(search, problem, context);
    const std::int64_t accuracy_start = NowNs();
    std::vector<expr::ExprPtr> equations = tag::ExpandToExpressions(
        instance.knowledge->grammar, *result.best.genotype);
    for (auto& eq : equations) eq = expr::Simplify(eq);
    accuracy = Accuracy(instance, equations, result.best.parameters);
    panel->accuracy_s += Seconds(accuracy_start);
    stamps.Flush();
    RecordInstance(watch, &record);
    stats = result.eval_stats;
    best = result.best.fitness;
    best_equations = std::move(equations);
    best_parameters = result.best.parameters;

    panel->begin_s += timed.begin_seconds();
    panel->step_s += timed.step_seconds();
    panel->begin_calls += static_cast<double>(timed.begin_calls());
    panel->steps += static_cast<double>(timed.steps());
    if (panel->phenotypes.empty()) {
      panel->phenotypes = timed.UniquePhenotypes();
    }
    // Checkpoint spans: generation event -> the save it triggers.
    for (const StampSink::Stamp& save : ops.stamps()) {
      if (save.type != "ckpt" || save.action != "save") continue;
      std::int64_t generation_ns = save.ns;
      for (const StampSink::Stamp& stamp : stamps.stamps()) {
        if (stamp.ns > save.ns) break;
        if (stamp.type == "generation") generation_ns = stamp.ns;
      }
      panel->ckpt_s += 1e-9 * static_cast<double>(save.ns - generation_ns);
      panel->saves += 1.0;
    }
    panel->events += static_cast<double>(stamps.stamps().size());
    panel->emit_s += stamps.forward_seconds();
  }
  panel->stats.Merge(stats);
  panel->best_fitness += best;
  panel->train_rmse += accuracy.train_rmse;
  // Held-out RMSE over every observed constituent, from one full pass. The
  // primary series alone (EvaluateAccuracy; nitrate on the transport
  // problem) spread 0.59 over ten seeds, against 0.02 for all of them.
  const double held_out = FullPassRmse(
      spec_.transport
          ? river::RiverFitness::ForTestWith(&instance.dataset,
                                             instance.constituents,
                                             instance.config.simulation)
          : river::RiverFitness::ForTest(&instance.dataset,
                                         instance.config.simulation),
      best_equations, best_parameters);
  panel->test_rmse.push_back(held_out);
  if (checkpointer) {
    panel->save_attempts +=
        static_cast<double>(checkpointer->saves_attempted());
    panel->save_failures += static_cast<double>(checkpointer->saves_failed());
  }

  // Output correctness.
  const double expert = ExpertFitness(instance);
  if (!(best <= expert)) {
    record.errors.push_back(
        Format("revised train RMSE %.6g is worse than the expert's %.6g",
               best, expert));
  }
  if (!std::isfinite(held_out)) {
    record.errors.push_back(Format("test RMSE %g is not finite", held_out));
  }
  if (spec_.durable) {
    trace.reset();  // joins the writer thread; the file is complete
    std::error_code ec;
    const std::uintmax_t bytes = fs::file_size(instance.trace_path, ec);
    panel->trace_bytes += ec ? 0.0 : static_cast<double>(bytes);
    CheckDurableOutputs(instance, stats, panel);
  }
}

RunRecord GmrWorkload::Finish(GmrPanel& panel, bool traced) const {
  RunRecord record = std::move(panel.record);
  for (const double seconds : record.instance_s) record.run_s += seconds;
  for (const double seconds : record.instance_wall_s) record.wall_s += seconds;
  const gp::EvalStats& stats = panel.stats;
  const double n = static_cast<double>(instances_.size());
  const double rollouts =
      static_cast<double>(stats.full_evaluations + stats.short_circuited);
  const double task_failures = static_cast<double>(
      stats.outcomes[static_cast<std::size_t>(EvalOutcome::kTaskFailed)]);
  auto& c = record.counters;
  c["rollouts"] = rollouts;
  c["candidates"] = rollouts + static_cast<double>(stats.cache_hits +
                                                   stats.static_rejects);
  c["cache_hits"] = static_cast<double>(stats.cache_hits);
  c["cache_lookups"] = static_cast<double>(stats.cache_lookups);
  c["gate_lookups"] = static_cast<double>(stats.verdict_cache_lookups);
  c["gate_rejects"] = static_cast<double>(stats.static_rejects);
  c["days"] = static_cast<double>(stats.time_steps_evaluated);
  c["task_failures"] = task_failures;
  c["best_fitness_sum"] = panel.best_fitness;
  c["train_rmse"] = panel.train_rmse / n;
  c["test_rmse"] = Median(panel.test_rmse);
  // One Begin (compile) per rollout; the traced run counts them directly.
  c["compile_calls"] = traced ? panel.begin_calls : rollouts;
  if (spec_.durable) c["ckpt_saves"] = panel.save_attempts;
  if (spec_.threads > 1) {
    // A candidate duplicated within one batch hits the cache or runs a
    // second time depending on which lane gets there first.
    for (const char* name : {"rollouts", "cache_hits", "days",
                             "compile_calls"}) {
      record.lane_counters[name] = c[name];
      c.erase(name);
    }
  }
  record.test_rmse = c["test_rmse"];
  record.attempted =
      static_cast<std::uint64_t>(c.at("candidates") + panel.save_attempts);
  record.failed =
      static_cast<std::uint64_t>(task_failures + panel.save_failures);
  if (traced) AddLayers(panel, &record);
  return record;
}

void GmrWorkload::CheckDurableOutputs(const GmrInstance& instance,
                                      const gp::EvalStats& stats,
                                      GmrPanel* panel) const {
  std::vector<std::string>& errors = panel->record.errors;
  ckpt::CheckpointOptions options;
  options.dir = instance.ckpt_dir;
  ckpt::Checkpointer verify(options);
  const ckpt::Snapshot* snapshot = verify.Load();
  const double last_generation = instance.config.tag3p.max_generations - 1;
  if (snapshot == nullptr) {
    errors.push_back("newest snapshot does not validate");
  } else if (static_cast<double>(snapshot->step) != last_generation) {
    errors.push_back(Format("newest snapshot is step %g, expected %g",
                            static_cast<double>(snapshot->step),
                            last_generation));
  }

  std::vector<obs::TraceRecord> records;
  const Status status = obs::ReadTrace(instance.trace_path, &records);
  if (!status.ok()) {
    errors.push_back("trace does not parse: " + status.message);
    return;
  }
  const obs::TraceSummary summary = obs::SummarizeTrace(records);
  const obs::BatchPoint last =
      summary.batches.empty() ? obs::BatchPoint{} : summary.batches.back();
  // The trace carries one eval_batch event per batch barrier. The engine's
  // serial path (elite polish through FitnessEvaluator::Evaluate) folds
  // into EvalStats without an event, so EvalStats = trace totals + those
  // unbatched evaluations. Each unbatched evaluation is one cache lookup
  // that either hits or runs (the gate is off here), and there are at most
  // elite_polish_steps of them per generation.
  const double unbatched =
      static_cast<double>(stats.cache_lookups) - last.cum_lookups;
  const double unbatched_hits =
      static_cast<double>(stats.cache_hits) - last.cum_hits;
  const double unbatched_runs =
      static_cast<double>(stats.individuals_evaluated) -
      static_cast<double>(summary.total_individuals);
  double outcome_gap = 0.0;
  for (std::size_t i = 0; i < kNumEvalOutcomes; ++i) {
    outcome_gap += static_cast<double>(stats.outcomes[i]) -
                   static_cast<double>(summary.outcomes[i]);
  }
  panel->unbatched += unbatched;
  const double polish_budget =
      static_cast<double>(instance.config.tag3p.elite_polish_steps) *
      instance.config.tag3p.max_generations;
  const auto expect = [&](bool ok, const char* what, double a, double b) {
    if (!ok) errors.push_back(Format(what, a, b));
  };
  expect(unbatched >= 0.0 && unbatched <= polish_budget,
         "trace misses %g cache lookups (polish budget %g)", unbatched,
         polish_budget);
  expect(unbatched == unbatched_hits + unbatched_runs,
         "trace misses %g lookups but %g hits + evaluations", unbatched,
         unbatched_hits + unbatched_runs);
  expect(outcome_gap == unbatched_runs,
         "trace misses %g outcomes but %g evaluations", outcome_gap,
         unbatched_runs);
  expect(last.cum_static_rejects == static_cast<double>(stats.static_rejects),
         "trace static rejects %g != EvalStats %g", last.cum_static_rejects,
         static_cast<double>(stats.static_rejects));
  expect(summary.gradient_evaluations ==
             static_cast<double>(stats.gradient_evaluations),
         "trace gradient evaluations %g != EvalStats %g",
         summary.gradient_evaluations,
         static_cast<double>(stats.gradient_evaluations));
}

void GmrWorkload::AddLayers(const GmrPanel& t, RunRecord* record) const {
  auto& m = record->layers;
  const gp::EvalStats& stats = t.stats;
  const GmrInstance& first = *instances_.front();
  const double rollouts =
      static_cast<double>(stats.full_evaluations + stats.short_circuited);
  const double days = static_cast<double>(stats.time_steps_evaluated);

  // The search's span tree: breeding is what the run span keeps once its
  // children (evaluator wall, checkpoints, final accuracy) are removed.
  const std::vector<Span> spans = {
      {"run", -1, record->wall_s},
      {"eval", 0, stats.wall_seconds},
      {"ckpt", 0, t.ckpt_s},
      {"accuracy", 0, t.accuracy_s},
  };
  const double breed_s = SelfSeconds(spans, 0);
  m["gp.breed_s"] = breed_s;
  m["gp.serial_frac"] = Ratio(breed_s, record->wall_s);

  m["eval.candidates"] =
      rollouts + static_cast<double>(stats.cache_hits + stats.static_rejects);
  m["eval.wall_s"] = stats.wall_seconds;
  m["eval.lane_busy_s"] = stats.cpu_seconds;
  m["eval.self_s"] = stats.cpu_seconds - t.begin_s - t.step_s;
  m["eval.cache_hit_rate"] = stats.CacheHitRate();
  m["eval.short_circuit_frac"] =
      Ratio(static_cast<double>(stats.short_circuited), rollouts);
  m["eval.days_per_rollout"] = Ratio(days, rollouts);

  m["compile.calls"] = t.begin_calls;
  m["compile.us_per_call"] = 1e6 * Ratio(t.begin_s, t.begin_calls);

  m["gate.lookups"] = static_cast<double>(stats.verdict_cache_lookups);
  m["gate.verdict_hit_rate"] =
      Ratio(static_cast<double>(stats.verdict_cache_hits),
            static_cast<double>(stats.verdict_cache_lookups));
  m["gate.rejects"] = static_cast<double>(stats.static_rejects);
  if (spec_.gate) {
    // Replay the captured evaluated phenotypes through the gate analysis.
    std::size_t rejected = 0;
    const std::int64_t start = NowNs();
    for (const auto& equations : t.phenotypes) {
      rejected += analysis::AnalyzeCandidate(
                      equations, first.config.tag3p.speedups.static_gate)
                          .reject
                      ? 1
                      : 0;
    }
    m["gate.us_per_analysis"] =
        1e6 * Ratio(Seconds(start), static_cast<double>(t.phenotypes.size()));
    if (rejected > 0) {
      record->errors.push_back(Format(
          "gate replay rejects %g of %g phenotypes that were evaluated",
          static_cast<double>(rejected),
          static_cast<double>(t.phenotypes.size())));
    }
  }

  const double derivs_per_day =
      static_cast<double>(first.config.simulation.substeps) *
      static_cast<double>(first.fitness->num_states()) *
      RkStages(first.config.simulation.method);
  const auto outcome = [&](EvalOutcome o) {
    return static_cast<double>(stats.outcomes[static_cast<std::size_t>(o)]);
  };
  m["river.begin_s"] = t.begin_s;
  m["river.step_s"] = t.step_s;
  m["river.ns_per_day"] = 1e9 * Ratio(t.step_s, t.steps);
  m["river.ns_per_deriv"] = 1e9 * Ratio(t.step_s, t.steps * derivs_per_day);
  m["river.abort_frac"] =
      Ratio(outcome(EvalOutcome::kNonFiniteDerivative) +
                outcome(EvalOutcome::kClampSaturated) +
                outcome(EvalOutcome::kBudgetExceeded),
            rollouts);

  m["ckpt.saves"] = t.saves;
  m["ckpt.ms_per_save"] = 1e3 * Ratio(t.ckpt_s, t.saves);
  m["ckpt.bytes_per_save"] = Ratio(t.snapshot_bytes, t.snapshots);
  m["ckpt.bytes_total"] = t.snapshot_bytes;

  m["obs.events"] = t.events;
  m["obs.emit_s"] = t.emit_s;
  m["obs.trace_bytes"] = t.trace_bytes;
  m["obs.unbatched_evals"] = t.unbatched;

  m["pool.busy_frac"] =
      Ratio(stats.cpu_seconds,
            stats.wall_seconds * std::max(1, spec_.threads));
}

// ---------------------------------------------------------------------------
// Adjoint calibration workload.

/// What one execution of the calibration panel accumulates.
struct CalibrationPanel {
  RunRecord record;
  ObjectiveProbe probe;
  double evaluations = 0.0;
  double failures = 0.0;
  double days = 0.0;
  double best_train = 0.0;
  double tape_nodes = 0.0;
  std::vector<double> test_rmse;
};

class CalibrateWorkload final : public Workload {
 public:
  explicit CalibrateWorkload(std::uint64_t seed) : seed_(seed) {}

  void Setup() override {
    for (int i = 0; i < kCalibrationInstances; ++i) {
      instances_.push_back(MakeInstance(i));
    }
  }

  RunRecord Run() override {
    CalibrationPanel panel;
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      RunInstance(i, /*traced=*/false, &panel);
    }
    return Finish(panel, /*traced=*/false);
  }

  std::pair<RunRecord, RunRecord> RunPaired() override {
    return RunPanelsPaired<CalibrationPanel>(
        instances_.size(),
        [this](std::size_t i, bool traced, CalibrationPanel* panel) {
          RunInstance(i, traced, panel);
        },
        [this](CalibrationPanel& panel, bool traced) {
          return Finish(panel, traced);
        });
  }

 private:
  /// One calibration problem: the expert five-species process on its own
  /// data, from its own starts.
  struct Instance {
    river::RiverDataset dataset;
    river::ConstituentSet constituents;
    std::vector<expr::ExprPtr> equations;
    river::SimulationConfig simulation;
    calibrate::BoxBounds bounds;
    std::vector<std::vector<double>> starts;
    calibrate::Objective objective;
    calibrate::GradientObjective gradient;
  };
  std::unique_ptr<Instance> MakeInstance(int index) const;
  void RunInstance(std::size_t index, bool traced, CalibrationPanel* panel);
  RunRecord Finish(CalibrationPanel& panel, bool traced) const;

  std::uint64_t seed_;
  std::vector<std::unique_ptr<Instance>> instances_;
};

std::unique_ptr<CalibrateWorkload::Instance> CalibrateWorkload::MakeInstance(
    int index) const {
  auto instance = std::make_unique<Instance>();
  river::TransportScenario scenario = river::GenerateTransportScenario(
      DataConfig(seed_, index), 5);
  instance->dataset = std::move(scenario.dataset);
  instance->constituents = std::move(scenario.constituents);
  instance->equations = river::TransportProcess(instance->constituents);
  instance->simulation.method = river::IntegrationMethod::kRk4;
  instance->simulation.num_species =
      static_cast<int>(instance->constituents.size());
  instance->bounds =
      calibrate::BoundsFromPriors(instance->constituents.priors());
  Rng rng(DeriveSeed(seed_, index, kStartStream));
  for (int i = 0; i < kStartsPerInstance; ++i) {
    instance->starts.push_back(instance->bounds.Sample(rng));
  }
  const std::size_t train_end = instance->dataset.train_end;
  instance->objective = grad::MakeRmseObjective(
      instance->equations, &instance->dataset, 0, train_end,
      instance->constituents, instance->constituents.InitialStates(),
      instance->simulation);
  instance->gradient = grad::MakeRmseGradientObjective(
      instance->equations, &instance->dataset, 0, train_end,
      instance->constituents, instance->constituents.InitialStates(),
      instance->simulation);
  return instance;
}

void CalibrateWorkload::RunInstance(std::size_t k, bool traced,
                                    CalibrationPanel* panel) {
  const Instance& instance = *instances_[k];
  RunRecord& record = panel->record;
  panel->probe.timed = traced;
  calibrate::CalibrationProblem problem;
  problem.objective = panel->probe.Wrap(instance.objective);
  problem.gradient = panel->probe.Wrap(instance.gradient);
  problem.bounds = instance.bounds;
  const calibrate::LbfgsCalibrator lbfgs;
  std::vector<calibrate::CalibrationResult> results;
  const Stopwatch watch;
  for (std::size_t i = 0; i < instance.starts.size(); ++i) {
    problem.initial = instance.starts[i];
    calibrate::CalibrationConfig config;
    config.budget = kBudgetPerStart;
    config.seed = DeriveSeed(seed_, static_cast<int>(k * 64 + i),
                             kCalibrationStream);
    results.push_back(calibrate::Run(lbfgs, config, problem));
  }
  RecordInstance(watch, &record);

  std::size_t best = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    panel->evaluations += static_cast<double>(results[i].evaluations);
    panel->days += static_cast<double>(results[i].evaluations) *
                   static_cast<double>(instance.dataset.train_end);
    panel->failures += static_cast<double>(results[i].failed_evaluations);
    if (results[i].best_objective < results[best].best_objective) best = i;
    // Output correctness: every start ends at or below where it began.
    const double start_rmse = instance.objective(instance.starts[i]);
    if (!(results[i].best_objective <= start_rmse)) {
      record.errors.push_back(Format(
          "calibration start ends at %.6g above its start RMSE %.6g",
          results[i].best_objective, start_rmse));
    }
  }
  const core::AccuracyReport accuracy = core::EvaluateAccuracy(
      instance.equations, results[best].best_parameters, instance.dataset,
      instance.simulation, instance.constituents);
  if (!std::isfinite(accuracy.test_rmse)) {
    record.errors.push_back(
        Format("test RMSE %g is not finite", accuracy.test_rmse));
  }
  panel->best_train += results[best].best_objective;
  panel->test_rmse.push_back(accuracy.test_rmse);
  if (traced) {
    panel->tape_nodes += static_cast<double>(
        grad::RmseGradient(instance.equations, instance.starts.front(),
                           instance.dataset, 0, instance.dataset.train_end,
                           instance.constituents,
                           instance.constituents.InitialStates(),
                           instance.simulation)
            .tape_nodes);
  }
}

RunRecord CalibrateWorkload::Finish(CalibrationPanel& panel,
                                    bool traced) const {
  RunRecord record = std::move(panel.record);
  for (const double seconds : record.instance_s) record.run_s += seconds;
  for (const double seconds : record.instance_wall_s) record.wall_s += seconds;
  const double n = static_cast<double>(instances_.size());
  const Instance& first = *instances_.front();
  const double train_days = static_cast<double>(first.dataset.train_end);
  const double derivs_per_day =
      first.simulation.substeps *
      static_cast<double>(first.constituents.size()) *
      RkStages(first.simulation.method);
  const ObjectiveProbe& probe = panel.probe;
  const double value_calls = static_cast<double>(probe.value_calls.load());
  const double gradient_calls =
      static_cast<double>(probe.gradient_calls.load());
  if (value_calls + gradient_calls != panel.evaluations) {
    record.errors.push_back(
        Format("objective calls %g != charged evaluations %g",
               value_calls + gradient_calls, panel.evaluations));
  }

  auto& c = record.counters;
  c["rollouts"] = panel.evaluations;
  c["value_calls"] = value_calls;
  c["gradient_calls"] = gradient_calls;
  c["days"] = panel.days;  // computed: rollouts x train days
  c["failed_evaluations"] = panel.failures;
  c["best_train_rmse"] = panel.best_train / n;
  c["test_rmse"] = Median(panel.test_rmse);
  record.test_rmse = c["test_rmse"];
  record.attempted = static_cast<std::uint64_t>(panel.evaluations);
  record.failed = static_cast<std::uint64_t>(panel.failures);

  if (traced) {
    auto& m = record.layers;
    const double value_s = 1e-9 * static_cast<double>(probe.value_ns.load());
    const double gradient_s =
        1e-9 * static_cast<double>(probe.gradient_ns.load());
    const double value_ms = 1e3 * Ratio(value_s, value_calls);
    const double gradient_ms = 1e3 * Ratio(gradient_s, gradient_calls);
    m["grad.calls"] = gradient_calls;
    m["grad.ms_per_call"] = gradient_ms;
    m["grad.adjoint_ratio"] = Ratio(gradient_ms, value_ms);
    m["grad.tape_nodes"] = panel.tape_nodes / n;
    m["calib.value_calls"] = value_calls;
    m["calib.value_s"] = value_s;
    m["calib.self_s"] = record.wall_s - value_s - gradient_s;
    // Value rollouts are plain integration (tree-walked equations), so
    // they carry the river layer's cost on this workload.
    m["river.step_s"] = value_s;
    m["river.ns_per_day"] = 1e9 * Ratio(value_s, value_calls * train_days);
    m["river.ns_per_deriv"] =
        1e9 * Ratio(value_s, value_calls * train_days * derivs_per_day);
  }
  return record;
}

}  // namespace

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed,
                                       const std::string& scratch_dir) {
  if (name == "revise_plankton") {
    GmrSpec spec;
    spec.gate = true;
    return std::make_unique<GmrWorkload>(spec, seed, scratch_dir);
  }
  if (name == "revise_transport_durable") {
    GmrSpec spec;
    spec.transport = true;
    spec.durable = true;
    spec.method = river::IntegrationMethod::kRk4;
    spec.threads = 2;
    return std::make_unique<GmrWorkload>(spec, seed, scratch_dir);
  }
  if (name == "calibrate_transport") {
    return std::make_unique<CalibrateWorkload>(seed);
  }
  return nullptr;
}

}  // namespace gmr::perfbench
