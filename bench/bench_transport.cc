// Multi-constituent transport throughput: how the compiled backends scale
// with the state-vector width (1/2/5 species) and how the two advection
// schemes (upwind/QUICK) price the 1D channel. Station rollouts run
// Simulate once per parameter vector; channel rollouts run SimulateChannel,
// which evaluates its cells one at a time.
//
// Emits BENCH_transport.json (shared bench schema v2); every row carries a
// `num_species` stat.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/timer.h"
#include "river/chemistry.h"
#include "river/constituents.h"
#include "river/simulate.h"
#include "river/synthetic.h"
#include "river/transport.h"

namespace {

using gmr::Timer;
using gmr::river::AdvectionScheme;
using gmr::river::ChannelConfig;
using gmr::river::CompiledBackend;
using gmr::river::ConstituentSet;
using gmr::river::SimulationConfig;
using gmr::river::TransportScenario;

constexpr int kSpeciesCounts[] = {1, 2, 5};
constexpr AdvectionScheme kSchemes[] = {AdvectionScheme::kUpwind,
                                        AdvectionScheme::kQuick};

/// Best wall-clock of `trials` runs of `body` — the usual best-of-N
/// defense against scheduler noise on the 1-CPU container.
template <typename Body>
double BestSeconds(int trials, const Body& body) {
  double best = 0.0;
  for (int trial = 0; trial < trials; ++trial) {
    Timer timer;
    body();
    const double seconds = timer.ElapsedSeconds();
    if (trial == 0 || seconds < best) best = seconds;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gmr;
  const bench::BenchOptions options = bench::BenchOptions::Parse(argc, argv);
  const bench::Scale scale = bench::Scale::FromEnvironment();

  river::SyntheticConfig synth;
  synth.years = scale.data_years;
  synth.train_years = scale.train_years;
  synth.seed = scale.data_seed;

  bench::ConfigHasher hasher;
  hasher.Add("data_years", scale.data_years);
  hasher.Add("train_years", scale.train_years);
  const std::uint64_t config_hash = hasher.hash();
  std::vector<bench::BenchRow> rows;

  // ------------------------------------- station rollouts vs species count
  // A growing state vector: the per-substep work grows with the species
  // count, one derivative call per stage either way.
  const std::size_t num_vectors = 8;
  const int trials = 3;

  std::printf("[bench_transport] station rollouts, %zu parameter vectors\n\n",
              num_vectors);
  std::printf("%-10s %-10s %16s %18s\n", "species", "backend", "days/sec",
              "eq-days/sec");

  for (const int num_species : kSpeciesCounts) {
    const TransportScenario scenario =
        river::GenerateTransportScenario(synth, num_species);
    const auto equations = river::TransportProcess(scenario.constituents);
    const std::vector<double> initial =
        scenario.constituents.InitialStates();
    const std::size_t days = scenario.dataset.train_end;

    std::vector<std::vector<double>> vectors;
    for (std::size_t v = 0; v < num_vectors; ++v) {
      vectors.push_back(scenario.true_parameters);
      for (double& p : vectors.back()) {
        p *= 1.0 + 0.02 * static_cast<double>(v);
      }
    }

    for (const CompiledBackend backend :
         {CompiledBackend::kBytecodeVm, CompiledBackend::kBatchJit}) {
      SimulationConfig config;
      config.num_species = num_species;
      config.compiled_backend = backend;
      const char* backend_name =
          backend == CompiledBackend::kBytecodeVm ? "vm" : "jit";

      const double seconds = BestSeconds(trials, [&] {
        for (const std::vector<double>& parameters : vectors) {
          const auto trajectory = river::Simulate(
              equations, parameters, scenario.dataset, 0, days,
              scenario.constituents, initial, config, /*compiled=*/true);
          if (trajectory.series.size() !=
              static_cast<std::size_t>(num_species)) {
            std::abort();
          }
        }
      });
      const double rollout_days =
          static_cast<double>(num_vectors) * static_cast<double>(days);
      const double rate = rollout_days / seconds;
      std::printf("%-10d %-10s %16.0f %18.0f\n", num_species, backend_name,
                  rate, rate * num_species);

      bench::BenchRow row(
          std::string("station_") + backend_name + "_s" +
              std::to_string(num_species),
          3, config_hash);
      row.Add("num_species", static_cast<double>(num_species));
      row.Add("days", static_cast<double>(days));
      row.Add("days_per_sec", rate);
      row.Add("equation_days_per_sec", rate * num_species);
      rows.push_back(std::move(row));
    }
  }

  // --------------------------------------- channel rollouts scheme sweep
  // The reach prices an extra flux evaluation per interface; QUICK's wider
  // stencil costs a little more per interface than upwind. Throughput
  // reports cell-days/sec.
  const int num_cells = 16;
  std::printf("\n[bench_transport] channel rollouts, %d cells\n\n",
              num_cells);
  std::printf("%-10s %-10s %16s %14s\n", "species", "scheme",
              "cell-days/sec", "max residual");

  for (const int num_species : kSpeciesCounts) {
    const TransportScenario scenario =
        river::GenerateTransportScenario(synth, num_species);
    const auto equations = river::TransportProcess(scenario.constituents);
    const std::size_t days = scenario.dataset.train_end;
    SimulationConfig config;
    config.num_species = num_species;

    for (const AdvectionScheme scheme : kSchemes) {
      ChannelConfig channel;
      channel.num_cells = num_cells;
      channel.scheme = scheme;

      double max_residual = 0.0;
      const double seconds = BestSeconds(trials, [&] {
        const auto result = river::SimulateChannel(
            equations, scenario.true_parameters, scenario.dataset, 0, days,
            scenario.constituents, config, channel);
        max_residual = 0.0;
        for (const auto& budget : result.budgets) {
          max_residual =
              std::fmax(max_residual, std::fabs(budget.Residual()));
        }
      });
      const double cell_days =
          static_cast<double>(num_cells) * static_cast<double>(days);
      const double rate = cell_days / seconds;
      const char* scheme_name = river::AdvectionSchemeName(scheme);
      std::printf("%-10d %-10s %16.0f %14.3g\n", num_species, scheme_name,
                  rate, max_residual);

      bench::BenchRow row(
          std::string("channel_") + scheme_name + "_s" +
              std::to_string(num_species),
          3, config_hash);
      row.Add("num_species", static_cast<double>(num_species));
      row.Add("num_cells", static_cast<double>(num_cells));
      row.Add("days", static_cast<double>(days));
      row.Add("cell_days_per_sec", rate);
      row.Add("max_mass_residual", max_residual);
      rows.push_back(std::move(row));
    }
  }

  bench::WriteBenchJson("BENCH_transport.json", "transport", options.threads,
                        rows);
  std::printf("\nwrote BENCH_transport.json\n");
  return 0;
}
