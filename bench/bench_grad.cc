// Reverse-mode gradient benchmarks: (1) the wall-clock overhead of one
// discrete-adjoint gradient (forward rollout + day-checkpointed replay and
// reverse sweep of the system's register tape) relative to a plain value
// rollout, under Euler and RK4, with the tape's instruction count and how
// many of them activity pruning removed (the `tape_nodes`/`pruned_nodes`
// columns, named after GradientResult's fields); (2) evaluations-to-target
// on a toy calibration problem — the GA runs its full budget, then L-BFGS
// (fed exact adjoint gradients) is measured on how many rollouts it needs
// to first match the GA's final RMSE. The acceptance bar is <= 20% of the
// GA's rollout count. Results land in BENCH_grad.json (shared bench schema
// v2).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "calibrate/calibrator.h"
#include "calibrate/methods.h"
#include "common/timer.h"
#include "expr/ast.h"
#include "grad/adjoint.h"
#include "river/constituents.h"
#include "river/dataset.h"
#include "river/simulate.h"
#include "river/variables.h"

namespace {

using namespace gmr;
namespace e = gmr::expr;
namespace r = gmr::river;

/// The toy plankton system whose parameters the calibration half recovers:
/// light-driven growth with quadratic grazing, smooth in every parameter.
std::vector<e::ExprPtr> ToyEquations() {
  const e::ExprPtr b = e::Variable(r::kBPhy, "B_Phy");
  const e::ExprPtr z = e::Variable(r::kBZoo, "B_Zoo");
  const e::ExprPtr lgt = e::Variable(r::kVlgt, "V_lgt");
  return {
      e::Sub(e::Mul(e::Parameter(0, "p0"), lgt),
             e::Mul(e::Parameter(1, "p1"), e::Mul(b, z))),
      e::Sub(e::Mul(e::Parameter(2, "p2"), e::Mul(b, z)),
             e::Mul(e::Constant(0.1), z)),
  };
}

const std::vector<double> kTrueParameters = {0.4, 0.05, 0.06};

/// Drivers from the synthetic Nakdong pipeline; the observation is replaced
/// by the toy system's own trajectory under the true parameters, so the
/// calibration optimum is a known interior point with near-zero RMSE.
r::RiverDataset MakeToyDataset(const bench::Scale& scale) {
  r::RiverDataset dataset = bench::MakeDataset(scale);
  const r::SimulationConfig config;
  const r::SimulationTrajectory truth =
      r::Simulate(ToyEquations(), kTrueParameters, dataset, 0,
                  dataset.num_days, r::ConstituentSet::LegacyPlankton(),
                  {5.0, 1.0}, config, /*compiled=*/true);
  dataset.observed_bphy = truth.series[0];
  return dataset;
}

struct RolloutTiming {
  double forward_seconds = 0.0;   ///< Per value-only rollout.
  double gradient_seconds = 0.0;  ///< Per adjoint gradient (value included).
  double tape_nodes = 0.0;
  double pruned_nodes = 0.0;
};

RolloutTiming TimeRollouts(const r::RiverDataset& dataset,
                           r::IntegrationMethod method, int repeats) {
  r::SimulationConfig config;
  config.method = method;
  const std::vector<e::ExprPtr> equations = ToyEquations();
  const r::ConstituentSet constituents = r::ConstituentSet::LegacyPlankton();
  const calibrate::Objective objective =
      grad::MakeRmseObjective(equations, &dataset, 0, dataset.train_end,
                              constituents, {5.0, 1.0}, config);

  RolloutTiming timing;
  double sink = 0.0;
  Timer timer;
  for (int i = 0; i < repeats; ++i) sink += objective(kTrueParameters);
  timing.forward_seconds = timer.ElapsedSeconds() / repeats;

  timer.Restart();
  grad::GradientResult result;
  for (int i = 0; i < repeats; ++i) {
    result = grad::RmseGradient(equations, kTrueParameters, dataset, 0,
                                dataset.train_end, constituents, {5.0, 1.0},
                                config);
    sink += result.rmse;
  }
  timing.gradient_seconds = timer.ElapsedSeconds() / repeats;
  timing.tape_nodes = static_cast<double>(result.tape_nodes);
  timing.pruned_nodes = static_cast<double>(result.pruned_nodes);
  if (sink == -1.0) std::printf("%f\n", sink);  // keep the loops live
  return timing;
}

/// Objective wrapper counting rollouts and recording the first call index
/// at which the value reached `target` (gradient calls count as one rollout
/// each, exactly like the calibration budget charges them).
struct CountingProblem {
  calibrate::Objective value;
  calibrate::GradientObjective gradient;
  std::size_t calls = 0;
  std::size_t calls_to_target = 0;
  double target = -1.0;
  double best = 1e300;

  void Note(double f) {
    ++calls;
    best = std::min(best, f);
    if (calls_to_target == 0 && target >= 0.0 && f <= target) {
      calls_to_target = calls;
    }
  }

  calibrate::Objective CountedValue() {
    return [this](const std::vector<double>& x) {
      const double f = value(x);
      Note(f);
      return f;
    };
  }

  calibrate::GradientObjective CountedGradient() {
    return [this](const std::vector<double>& x, std::vector<double>* g) {
      const double f = gradient(x, g);
      Note(f);
      return f;
    };
  }
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::BenchOptions::Parse(argc, argv);
  const bench::Scale scale = bench::Scale::FromEnvironment();
  const r::RiverDataset dataset = MakeToyDataset(scale);

  bench::ConfigHasher hasher;
  hasher.Add("data_years", scale.data_years)
      .Add("train_years", scale.train_years)
      .Add("data_seed", static_cast<double>(scale.data_seed))
      .Add("train_days", static_cast<double>(dataset.train_end));
  const std::uint64_t config_hash = hasher.hash();

  std::printf("[grad] adjoint overhead, %zu training days, toy plankton "
              "system\n\n",
              dataset.train_end);

  // Warm caches, then time.
  TimeRollouts(dataset, r::IntegrationMethod::kEuler, 2);
  const int repeats = 20;
  const RolloutTiming euler =
      TimeRollouts(dataset, r::IntegrationMethod::kEuler, repeats);
  const RolloutTiming rk4 =
      TimeRollouts(dataset, r::IntegrationMethod::kRk4, repeats);

  std::printf("%-8s %14s %14s %10s %12s %12s\n", "method", "forward s",
              "gradient s", "overhead", "instructions", "pruned");
  for (const auto& [name, t] :
       {std::pair<const char*, const RolloutTiming&>{"euler", euler},
        std::pair<const char*, const RolloutTiming&>{"rk4", rk4}}) {
    std::printf("%-8s %14.6f %14.6f %9.2fx %12.0f %12.0f\n", name,
                t.forward_seconds, t.gradient_seconds,
                t.gradient_seconds / t.forward_seconds, t.tape_nodes,
                t.pruned_nodes);
  }

  // ----- L-BFGS vs GA: rollouts to the GA's final RMSE -------------------
  calibrate::BoxBounds bounds;
  bounds.lo = {0.01, 0.005, 0.005};
  bounds.hi = {1.0, 0.5, 0.5};
  // Note: start inside the healthy dynamic regime. An overly aggressive
  // grazing start (e.g. p1 = 0.15) pins the trajectory against the state
  // clamp, where gradients are legitimately near-flat and descent crawls.
  const std::vector<double> initial = {0.5, 0.1, 0.1};
  const std::size_t ga_budget = std::min<std::size_t>(
      scale.calibration_budget, 2000);
  const r::SimulationConfig sim_config;

  CountingProblem ga_problem;
  ga_problem.value =
      grad::MakeRmseObjective(ToyEquations(), &dataset, 0, dataset.train_end,
                              r::ConstituentSet::LegacyPlankton(), {5.0, 1.0},
                              sim_config);
  {
    Rng rng(17);
    calibrate::GaCalibrator ga;
    ga.Calibrate(ga_problem.CountedValue(), bounds, initial, ga_budget, rng);
  }

  CountingProblem lbfgs_problem;
  lbfgs_problem.value = ga_problem.value;
  lbfgs_problem.gradient = grad::MakeRmseGradientObjective(
      ToyEquations(), &dataset, 0, dataset.train_end,
      r::ConstituentSet::LegacyPlankton(), {5.0, 1.0}, sim_config);
  lbfgs_problem.target = ga_problem.best;
  {
    Rng rng(17);
    calibrate::LbfgsCalibrator lbfgs;
    lbfgs.CalibrateWithGradient(lbfgs_problem.CountedValue(),
                                lbfgs_problem.CountedGradient(), bounds,
                                initial, ga_budget, rng, obs::RunContext{});
  }

  const double ga_rollouts = static_cast<double>(ga_problem.calls);
  const double lbfgs_rollouts =
      static_cast<double>(lbfgs_problem.calls_to_target > 0
                              ? lbfgs_problem.calls_to_target
                              : lbfgs_problem.calls);
  const bool reached = lbfgs_problem.calls_to_target > 0;
  const double ratio = lbfgs_rollouts / ga_rollouts;

  std::printf("\n[grad] GA final RMSE %.6g after %.0f rollouts\n",
              ga_problem.best, ga_rollouts);
  std::printf("[grad] L-BFGS %s the GA's RMSE after %.0f rollouts "
              "(%.1f%% of GA; best %.6g)\n",
              reached ? "reached" : "did NOT reach", lbfgs_rollouts,
              100.0 * ratio, lbfgs_problem.best);
  std::printf("[grad] evals-to-target acceptance (<= 20%% of GA): %s\n",
              reached && ratio <= 0.2 ? "PASS" : "FAIL");

  std::vector<bench::BenchRow> rows;
  {
    bench::BenchRow row("forward_euler", scale.data_seed, config_hash);
    row.Add("seconds_per_rollout", euler.forward_seconds);
    rows.push_back(std::move(row));
  }
  {
    bench::BenchRow row("adjoint_euler", scale.data_seed, config_hash);
    row.Add("seconds_per_gradient", euler.gradient_seconds);
    row.Add("overhead_ratio", euler.gradient_seconds / euler.forward_seconds);
    row.Add("tape_nodes", euler.tape_nodes);
    row.Add("pruned_nodes", euler.pruned_nodes);
    rows.push_back(std::move(row));
  }
  {
    bench::BenchRow row("forward_rk4", scale.data_seed, config_hash);
    row.Add("seconds_per_rollout", rk4.forward_seconds);
    rows.push_back(std::move(row));
  }
  {
    bench::BenchRow row("adjoint_rk4", scale.data_seed, config_hash);
    row.Add("seconds_per_gradient", rk4.gradient_seconds);
    row.Add("overhead_ratio", rk4.gradient_seconds / rk4.forward_seconds);
    row.Add("tape_nodes", rk4.tape_nodes);
    row.Add("pruned_nodes", rk4.pruned_nodes);
    rows.push_back(std::move(row));
  }
  {
    bench::BenchRow row("GA", 17, config_hash);
    row.Add("rollouts", ga_rollouts);
    row.Add("final_rmse", ga_problem.best);
    rows.push_back(std::move(row));
  }
  {
    bench::BenchRow row("L-BFGS", 17, config_hash);
    row.Add("rollouts_to_ga_rmse", lbfgs_rollouts);
    row.Add("reached_target", reached ? 1 : 0);
    row.Add("rollout_ratio_vs_ga", ratio);
    row.Add("final_rmse", lbfgs_problem.best);
    rows.push_back(std::move(row));
  }
  bench::WriteBenchJson("BENCH_grad.json", "grad", options.threads, rows);
  return 0;
}
