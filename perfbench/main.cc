// gmr_perfbench, the GMR benchmark binary: runs one workload for a given seed and prints
// its metrics as the last stdout line (one JSON object). See
// perfbench/README.md.
//
//   gmr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --scratch DIR
//
// --trace 0 repeats the untraced main call while one more repetition still
// fits in S seconds and reports the end-to-end metrics; --trace 1 runs
// every panel instance untraced and with the layer probes, back to back,
// checks that both did identical work, and reports the per-layer metrics.
// Checkpoint and trace files live in a fresh subdirectory of DIR that is
// removed before exit.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "perfbench/trace.h"
#include "perfbench/workloads.h"

namespace {

using gmr::perfbench::Median;
using gmr::perfbench::NowNs;
using gmr::perfbench::RunRecord;

constexpr int kSetupRepeats = 7;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string scratch;
};

bool ParseOptions(int argc, char** argv, Options* options) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value, &end);
      if (*end != '\0') return false;
    } else if (flag == "--trace") {
      const std::string v = value;
      options->trace = v == "0" ? 0 : v == "1" ? 1 : -1;
    } else if (flag == "--scratch") {
      options->scratch = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && options->seconds > 0.0 &&
         options->trace >= 0 && !options->scratch.empty() &&
         !options->workload.empty();
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string CountersJson(const std::map<std::string, double>& counters) {
  std::string out = "{";
  for (const auto& [name, value] : counters) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": " + Number(value);
  }
  return out + "}";
}

/// A counter from either the exact or the lane-order-dependent set.
double Count(const RunRecord& record, const std::string& name) {
  const auto it = record.counters.find(name);
  return it != record.counters.end() ? it->second
                                     : record.lane_counters.at(name);
}

/// Appends one line per counter that differs between `a` and `b`
/// (bitwise, so a changed RMSE in the last digit counts).
void DiffCounters(const char* what, const std::map<std::string, double>& a,
                  const std::map<std::string, double>& b,
                  std::vector<std::string>* errors) {
  for (const auto& [name, value] : a) {
    const auto it = b.find(name);
    if (it == b.end()) continue;
    if (std::memcmp(&value, &it->second, sizeof(double)) != 0) {
      errors->push_back(std::string(what) + ": " + name + " " + Number(value) +
                        " vs " + Number(it->second));
    }
  }
}

/// Per-layer metric names and units, in BENCHMARK.json order. Layers a
/// workload does not exercise report 0.
const std::vector<std::pair<const char*, const char*>>& LayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> metrics = {
      {"gp.breed_s", "s"},
      {"gp.serial_frac", "frac"},
      {"eval.candidates", "count"},
      {"eval.wall_s", "s"},
      {"eval.lane_busy_s", "s"},
      {"eval.self_s", "s"},
      {"eval.cache_hit_rate", "frac"},
      {"eval.short_circuit_frac", "frac"},
      {"eval.days_per_rollout", "count"},
      {"compile.calls", "count"},
      {"compile.us_per_call", "us"},
      {"gate.lookups", "count"},
      {"gate.verdict_hit_rate", "frac"},
      {"gate.rejects", "count"},
      {"gate.us_per_analysis", "us"},
      {"river.begin_s", "s"},
      {"river.step_s", "s"},
      {"river.ns_per_day", "ns"},
      {"river.ns_per_deriv", "ns"},
      {"river.abort_frac", "frac"},
      {"grad.calls", "count"},
      {"grad.ms_per_call", "ms"},
      {"grad.adjoint_ratio", "x"},
      {"grad.tape_nodes", "count"},
      {"calib.value_calls", "count"},
      {"calib.value_s", "s"},
      {"calib.self_s", "s"},
      {"ckpt.saves", "count"},
      {"ckpt.ms_per_save", "ms"},
      {"ckpt.bytes_per_save", "B"},
      {"ckpt.bytes_total", "B"},
      {"obs.events", "count"},
      {"obs.emit_s", "s"},
      {"obs.trace_bytes", "B"},
      {"obs.unbatched_evals", "count"},
      {"pool.busy_frac", "frac"},
      {"trace.overhead_s", "s"},
  };
  return metrics;
}

/// Removes the run's scratch subdirectory on every exit path.
struct ScratchDir {
  std::string path;
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: gmr_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --scratch DIR\n");
    return 2;
  }
  ScratchDir scratch{options.scratch + "/" + options.workload + "-" +
                     std::to_string(getpid())};
  std::error_code ec;
  std::filesystem::remove_all(scratch.path, ec);
  if (!std::filesystem::create_directories(scratch.path, ec)) {
    std::fprintf(stderr, "cannot create %s\n", scratch.path.c_str());
    return 2;
  }

  gmr::perfbench::StartHostSampling();

  // Every set-up builds a fresh workload; the previous one is torn down
  // before the clock starts. The fastest restated set-up is reported, so the
  // first set-up's cold heap and a burst of contention do not set the
  // figure.
  std::unique_ptr<gmr::perfbench::Workload> workload;
  std::vector<double> setup_s;
  std::vector<double> setup_cpu_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    workload.reset();
    workload = gmr::perfbench::MakeWorkload(options.workload, options.seed,
                                            scratch.path);
    if (workload == nullptr) {
      std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
      return 2;
    }
    const gmr::perfbench::Stopwatch watch;
    workload->Setup();
    setup_s.push_back(watch.RestatedSeconds());
    setup_cpu_s.push_back(watch.CpuSeconds());
  }
  std::printf("set-up (restated s / cpu s)");
  for (int i = 0; i < kSetupRepeats; ++i) {
    std::printf(" %.4f/%.4f", setup_s[i], setup_cpu_s[i]);
  }
  std::printf("\n");

  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::pair<double, const char*>> metrics;
  std::map<std::string, double> counters;
  std::map<std::string, double> lane_counters;
  const auto absorb = [&](const RunRecord& record) {
    attempted += record.attempted;
    failed += record.failed;
    errors.insert(errors.end(), record.errors.begin(), record.errors.end());
  };

  if (options.trace == 0) {
    std::vector<RunRecord> runs;
    const std::int64_t start = NowNs();
    double elapsed = 0.0;
    // Another repetition starts only if, at the mean pace so far, it still
    // ends within the budget.
    do {
      runs.push_back(workload->Run());
      absorb(runs.back());
      DiffCounters("repetition changed", runs.front().counters,
                   runs.back().counters, &errors);
      elapsed = 1e-9 * static_cast<double>(NowNs() - start);
    } while (elapsed / static_cast<double>(runs.size()) *
                 static_cast<double>(runs.size() + 1) <=
             options.seconds);
    // Per panel instance the best restated time of its repetitions, summed.
    // Contention only ever adds time, so a burst of it costs one instance
    // one repetition instead of shifting the whole run.
    double run_s = 0.0;
    for (std::size_t i = 0; i < runs.front().instance_s.size(); ++i) {
      double best = runs.front().instance_s[i];
      for (const RunRecord& run : runs) {
        best = std::min(best, run.instance_s[i]);
      }
      run_s += best;
    }
    const RunRecord& first = runs.front();
    const double calls = first.counters.count("candidates") != 0
                             ? first.counters.at("candidates")
                             : Count(first, "rollouts");
    counters = first.counters;
    lane_counters = first.lane_counters;
    metrics["run_s"] = {run_s, "s"};
    metrics["setup_s"] = {*std::min_element(setup_s.begin(), setup_s.end()),
                          "s"};
    metrics["peak_rss_mb"] = {PeakRssMib(), "MiB"};
    metrics["candidates_per_s"] = {calls / run_s, "1/s"};
    metrics["test_rmse"] = {first.test_rmse, "series_units"};
    metrics["rollouts"] = {Count(first, "rollouts"), "count"};
    metrics["days_simulated"] = {Count(first, "days"), "count"};
    std::printf("repetitions %zu (restated s / cpu s / wall s)", runs.size());
    for (const RunRecord& run : runs) {
      std::printf(" %.4f/%.4f/%.4f", run.run_s, run.cpu_s, run.wall_s);
    }
    std::printf("\n");
  } else {
    const auto [untraced, traced] = workload->RunPaired();
    absorb(untraced);
    absorb(traced);
    // The probes must not perturb the search: identical work, same bits.
    DiffCounters("traced run changed", untraced.counters, traced.counters,
                 &errors);
    counters = traced.counters;
    lane_counters = traced.lane_counters;
    for (const auto& [name, unit] : LayerMetrics()) {
      const auto it = traced.layers.find(name);
      metrics[name] = {it != traced.layers.end() ? it->second : 0.0, unit};
    }
    // Each instance ran untraced and traced back to back, so drift of the
    // host cancels within a pair; the median pair difference of CPU time,
    // scaled to the panel, drops the pairs a burst of contention hit.
    std::vector<double> differences;
    for (std::size_t i = 0; i < traced.instance_s.size(); ++i) {
      differences.push_back(traced.instance_s[i] - untraced.instance_s[i]);
    }
    metrics["trace.overhead_s"] = {
        Median(differences) * static_cast<double>(differences.size()), "s"};
    std::printf("untraced run_s %.4f (wall %.4f), traced run_s %.4f "
                "(wall %.4f)\n",
                untraced.run_s, untraced.wall_s, traced.run_s, traced.wall_s);
  }

  gmr::perfbench::StopHostSampling();

  for (const std::string& error : errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  }
  std::printf("COUNTERS {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"counters\": %s, \"lane_counters\": %s}\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.trace,
              CountersJson(counters).c_str(),
              CountersJson(lane_counters).c_str());
  std::string json = "{\"correct\": ";
  json += errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + Number(metric.first) +
            ", \"unit\": \"" + metric.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
