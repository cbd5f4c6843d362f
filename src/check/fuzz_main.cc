// gmr_fuzz: property-based differential fuzzing of the expression
// pipeline (interpreter / VM / simplifier), the printer/parser, the
// static analysis layer, and TAG derivation generation.
//
//   gmr_fuzz [options]
//
//   --seed N              run seed (default 1)
//   --iters N             generated cases (default: $GMR_FUZZ_ITERS, else 2000)
//   --filter NAME         run only properties whose name contains NAME
//   --corpus-dir DIR      write shrunk counterexamples into DIR as .gmr files
//   --replay DIR          replay reproducers in DIR instead of fuzzing
//   --derivation-every N  run the population oracles every Nth case (default 64)
//   --contexts N          evaluation contexts sampled per case (default 8,
//                         at least 1)
//   --threads N           worker threads (default 1; GMR_BENCH_THREADS honored)
//
// Exit codes: 0 all properties green, 1 failures, 2 usage errors (a bad
// numeric flag or environment value is named on stderr).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "check/corpus.h"
#include "check/fuzz.h"
#include "common/cli.h"
#include "common/thread_pool.h"

namespace {

struct Options {
  gmr::check::FuzzOptions fuzz;
  std::string replay_dir;
  int threads = 1;
};

constexpr char kTool[] = "gmr_fuzz";
/// Upper bound of the int-valued knobs.
constexpr int kMaxIntKnob = 1 << 20;

/// Parses an int-valued flag of at least `min`; exits 2 naming it when
/// the value is missing or bad.
int ParseIntKnob(const char* name, const char* text, int min) {
  return gmr::ParseUnsignedOrExit(kTool, name, text, min, kMaxIntKnob);
}

bool ParseArgs(int argc, char** argv, Options* options) {
  // Env defaults first; flags override.
  if (const char* env = std::getenv("GMR_FUZZ_ITERS")) {
    options->fuzz.iterations =
        gmr::ParseUnsignedOrExit<std::uint64_t>(kTool, "GMR_FUZZ_ITERS", env);
  }
  if (const char* env = std::getenv("GMR_BENCH_THREADS")) {
    options->threads =
        gmr::ParseThreadsOrExit(kTool, "GMR_BENCH_THREADS", env, 0);
  }
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (std::strcmp(arg, "--seed") == 0) {
      options->fuzz.seed =
          gmr::ParseUnsignedOrExit<std::uint64_t>(kTool, arg, value);
      ++i;
    } else if (std::strcmp(arg, "--iters") == 0) {
      options->fuzz.iterations =
          gmr::ParseUnsignedOrExit<std::uint64_t>(kTool, arg, value);
      ++i;
    } else if (std::strcmp(arg, "--filter") == 0) {
      if (value == nullptr) return false;
      options->fuzz.filter = value;
      ++i;
    } else if (std::strcmp(arg, "--corpus-dir") == 0) {
      if (value == nullptr) return false;
      options->fuzz.corpus_dir = value;
      ++i;
    } else if (std::strcmp(arg, "--replay") == 0) {
      if (value == nullptr) return false;
      options->replay_dir = value;
      ++i;
    } else if (std::strcmp(arg, "--derivation-every") == 0) {
      options->fuzz.derivation_every = ParseIntKnob(arg, value, 0);
      ++i;
    } else if (std::strcmp(arg, "--contexts") == 0) {
      // At least one: the value-comparing oracles check nothing without.
      options->fuzz.contexts_per_case = ParseIntKnob(arg, value, 1);
      ++i;
    } else if (std::strcmp(arg, "--threads") == 0) {
      options->threads = gmr::ParseThreadsOrExit(kTool, arg, value, 0);
      ++i;
    } else {
      std::fprintf(stderr, "gmr_fuzz: unknown option %s\n", arg);
      return false;
    }
  }
  return true;
}

int Replay(const Options& options) {
  const gmr::check::GenConfig config = gmr::check::RiverGenConfig();
  gmr::check::OracleContext ctx;
  ctx.config = &config;
  ctx.contexts_per_case = options.fuzz.contexts_per_case;
  std::unique_ptr<gmr::ThreadPool> pool;
  if (options.threads > 1) {
    pool = std::make_unique<gmr::ThreadPool>(options.threads);
  }
  const gmr::check::ReplayResult result =
      gmr::check::ReplayCorpus(options.replay_dir, ctx, pool.get());
  for (const std::string& message : result.messages) {
    std::fprintf(stderr, "gmr_fuzz: %s\n", message.c_str());
  }
  std::printf("replayed %d reproducer(s) from %s: %d failing, %d unreadable\n",
              result.files, options.replay_dir.c_str(), result.failures,
              result.errors);
  return result.ok() ? 0 : 1;
}

int Fuzz(Options options) {
  std::unique_ptr<gmr::ThreadPool> pool;
  if (options.threads > 1) {
    pool = std::make_unique<gmr::ThreadPool>(options.threads);
    options.fuzz.pool = pool.get();
  }
  const gmr::check::FuzzReport report = gmr::check::RunFuzz(options.fuzz);
  std::printf("%-16s %10s %10s\n", "property", "cases", "failures");
  for (const auto& row : report.properties) {
    std::printf("%-16s %10llu %10llu\n", row.name.c_str(),
                static_cast<unsigned long long>(row.cases),
                static_cast<unsigned long long>(row.failures));
    if (!row.first_failure.empty()) {
      std::fprintf(stderr, "gmr_fuzz: %s: %s\n", row.name.c_str(),
                   row.first_failure.c_str());
    }
    for (const std::string& path : row.written) {
      std::fprintf(stderr, "gmr_fuzz: wrote %s\n", path.c_str());
    }
  }
  std::printf("seed %llu: %llu case-checks, %llu failure(s)\n",
              static_cast<unsigned long long>(options.fuzz.seed),
              static_cast<unsigned long long>(report.total_cases),
              static_cast<unsigned long long>(report.total_failures));
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: gmr_fuzz [--seed N] [--iters N] [--filter NAME] "
                 "[--corpus-dir DIR] [--replay DIR] "
                 "[--derivation-every N] [--contexts N] [--threads N]\n");
    return 2;
  }
  return options.replay_dir.empty() ? Fuzz(options) : Replay(options);
}
