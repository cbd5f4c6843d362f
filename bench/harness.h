#ifndef GMR_BENCH_HARNESS_H_
#define GMR_BENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/gmr.h"
#include "core/river_grammar.h"
#include "river/dataset.h"
#include "river/synthetic.h"

namespace gmr::bench {

/// Command-line options shared by the bench binaries.
struct BenchOptions {
  /// Evaluation threads (PE). From `--threads N`, else the
  /// GMR_BENCH_THREADS environment variable, else 1. A value that is not an
  /// integer in [1, kMaxThreads] (common/cli.h) exits with status 2.
  int threads = 1;

  /// Optional JSONL trace path (`--trace PATH`): benches that drive full
  /// GMR/TAG3P runs attach a JsonlTraceSink here, for `gmr_trace`.
  std::string trace_path;

  static BenchOptions Parse(int argc, char** argv);
};

/// One row of a bench JSON file — the schema every bench shares
/// (schema_version 2): which method/variant ran, with what seed, under
/// which configuration (a canonical FNV-1a hash, see ConfigHasher), plus
/// named numeric stats in insertion order.
struct BenchRow {
  std::string method;
  std::uint64_t seed = 0;
  std::uint64_t config_hash = 0;
  std::vector<std::pair<std::string, double>> stats;

  BenchRow() = default;
  BenchRow(std::string method_name, std::uint64_t run_seed,
           std::uint64_t hash)
      : method(std::move(method_name)), seed(run_seed), config_hash(hash) {}

  void Add(const std::string& key, double value) {
    stats.emplace_back(key, value);
  }
};

/// FNV-1a accumulator over canonical `key=value;` pairs. Feed every knob
/// that shapes a run; equal hashes across bench binaries then mean "same
/// configuration", which is what makes BENCH_*.json rows joinable offline.
class ConfigHasher {
 public:
  ConfigHasher& Add(const char* key, double value);
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

/// Canonical hash of a GMR search configuration (TAG3P knobs + speedup
/// toggles; thread count excluded — it lives in the file-level "threads"
/// field and must not change what a run computes).
std::uint64_t HashGmrConfig(const core::GmrConfig& config);

/// Writes the shared bench JSON schema to `path`:
///   {"bench": <name>, "schema_version": 2, "threads": <threads>,
///    "rows": [{"method": ..., "seed": ..., "config_hash": "<hex>",
///              "stats": {...}}, ...]}
/// Every bench emits its machine-readable results this way so runs at
/// different thread counts (and from different binaries) are comparable
/// offline.
void WriteBenchJson(const std::string& path, const std::string& name,
                    int threads, const std::vector<BenchRow>& rows);

/// Shared experiment scale. "quick" (default) finishes the whole bench
/// directory in minutes on a laptop; "full" approaches the paper's setup
/// (13 data years, population 200, 100 generations) and takes hours.
/// Select with the GMR_BENCH_SCALE environment variable (quick|full).
struct Scale {
  int data_years = 8;
  int train_years = 6;
  std::uint64_t data_seed = 7;

  /// The GP budget matches the paper (population 200, 100 generations,
  /// local search); evaluation short-circuiting + caching keep a full run
  /// in single-digit seconds, so even "quick" scale uses it.
  int population = 200;
  int generations = 100;
  int local_search_steps = 3;
  int runs = 8;  ///< Independent GMR runs; the best test-RMSE model reports.
  int gggp_runs = 3;  ///< GGGP runs (large population makes each run slow).

  std::size_t calibration_budget = 3000;

  int lstm_epochs = 60;
  int lstm_hidden_cap_all = 32;

  static Scale FromEnvironment();
};

/// One row of Table V.
struct AccuracyRow {
  std::string method_class;
  std::string method;
  core::AccuracyReport report;
};

/// Renders rows in the Table V layout, underlining the best test column
/// values, and prints the Figure 1 summary (best vs second-best deltas).
void PrintTableV(const std::vector<AccuracyRow>& rows);

/// Builds the shared dataset for the given scale.
river::RiverDataset MakeDataset(const Scale& scale);

/// Table V method runners. Each returns its row(s) on `dataset`.
AccuracyRow RunManualMethod(const river::RiverDataset& dataset);
std::vector<AccuracyRow> RunCalibrationMethods(
    const river::RiverDataset& dataset, const Scale& scale);
std::vector<AccuracyRow> RunArimaxMethods(const river::RiverDataset& dataset);
std::vector<AccuracyRow> RunRnnMethods(const river::RiverDataset& dataset,
                                       const Scale& scale);
AccuracyRow RunGggpMethod(const river::RiverDataset& dataset,
                          const Scale& scale);

/// Runs GMR `scale.runs` times and returns (row, all run results).
struct GmrOutcome {
  AccuracyRow row;
  std::vector<core::GmrRunResult> runs;
};
GmrOutcome RunGmrMethod(const river::RiverDataset& dataset,
                        const Scale& scale);

/// GMR configuration for the scale (shared by several benches).
core::GmrConfig MakeGmrConfig(const Scale& scale, std::uint64_t seed);

}  // namespace gmr::bench

#endif  // GMR_BENCH_HARNESS_H_
