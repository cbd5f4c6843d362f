// gmr_crashdrill — the checkpoint/resume crash drill (DESIGN.md §4i).
//
// Proves the preemption contract against real SIGKILLs, end to end: a small
// TAG3P run is executed once uninterrupted (the reference), then re-executed
// as a sequence of forked child processes that are SIGKILLed at K randomly
// chosen generations and resumed from the durable snapshots each time. The
// drill passes when the interrupted sequence's final trace file and result
// digest equal the reference byte for byte.
//
// The kill lands inside the generation callback — after the generation's
// batch barrier but *before* its checkpoint is saved — so every resume
// genuinely replays work the dying process had completed but not persisted.
// SIGKILL cannot be caught: whatever the child had buffered (trace lines,
// half-written snapshots) is lost unless the fsync discipline made it
// durable first, which is exactly the property under test.
//
// Usage:
//   gmr_crashdrill [--dir DIR] [--kills K] [--drill-seed S] [--threads N]
//                  [--gens G] [--pop P] [--keep]
//
// The drilled run keeps the tree cache on: the cache is part of the
// snapshot, so resuming must reproduce its hit counters exactly, and the
// counters are the same for any thread count (DESIGN.md §4c), so
// `--threads 2` drills the parallel trace-determinism contract with it.
// Exit status 0 = drill passed.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/serialize.h"
#include "common/cli.h"
#include "common/rng.h"
#include "expr/ast.h"
#include "expr/eval.h"
#include "gp/fitness.h"
#include "gp/tag3p.h"
#include "obs/run_context.h"
#include "obs/telemetry.h"
#include "tag/grammar.h"

namespace gmr {
namespace {

namespace e = expr;
namespace t = tag;

struct DrillOptions {
  std::string dir;       // working directory ("" = mkdtemp under TMPDIR)
  int kills = 3;         // SIGKILLed segments before the finishing one
  std::uint64_t drill_seed = 42;  // picks the kill generations
  int threads = 1;
  int gens = 8;
  int pop = 24;
  bool keep = false;  // leave the working directory behind for inspection
};

// Same toy problem as the gp/obs/parallel test suites: seed "x + 0",
// revisions "Exp* + R" and "Exp* * R", target concept 2x + 1.
t::Grammar ToyGrammar() {
  t::Grammar grammar;
  {
    std::vector<t::TagNodePtr> children;
    children.push_back(t::LeafNode(e::Variable(0, "x")));
    children.push_back(t::LeafNode(e::Constant(0.0)));
    grammar.AddAlphaTree(t::ElementaryTree(
        "seed", t::OperatorNode(t::kExpSymbol, e::NodeKind::kAdd,
                                std::move(children))));
  }
  for (e::NodeKind op : {e::NodeKind::kAdd, e::NodeKind::kMul}) {
    std::vector<t::TagNodePtr> children;
    children.push_back(t::FootNode(t::kExpSymbol));
    children.push_back(t::SlotNode("R"));
    grammar.AddBetaTree(t::ElementaryTree(
        std::string("beta") + e::KindName(op),
        t::OperatorNode(t::kExpSymbol, op, std::move(children))));
  }
  grammar.SetSlotSpec("R", t::SlotSpec{0.0, 1.0});
  return grammar;
}

class ToyFitness : public gp::SequentialFitness {
 public:
  explicit ToyFitness(std::size_t n) : n_(n) {}

  std::size_t num_cases() const override { return n_; }
  std::size_t num_parameters() const override { return 0; }

  std::unique_ptr<gp::SequentialEvaluation> Begin(
      const std::vector<e::ExprPtr>& equations,
      const std::vector<double>& parameters,
      bool use_compiled_backend) const override {
    class Eval : public gp::SequentialEvaluation {
     public:
      Eval(const e::ExprPtr& eq, std::vector<double> params, std::size_t n)
          : equation_(eq), params_(std::move(params)), n_(n) {}
      bool Step() override {
        const double x =
            n_ > 1 ? static_cast<double>(t_) / static_cast<double>(n_ - 1)
                   : 0.0;
        e::EvalContext ctx;
        ctx.variables = &x;
        ctx.num_variables = 1;
        ctx.parameters = params_.data();
        ctx.num_parameters = params_.size();
        const double pred = e::EvalExpr(*equation_, ctx);
        const double err = pred - (2.0 * x + 1.0);
        sse_ += err * err;
        ++t_;
        return t_ < n_;
      }
      double CurrentFitness() const override {
        return t_ == 0 ? 0.0 : std::sqrt(sse_ / static_cast<double>(t_));
      }
      std::size_t steps_taken() const override { return t_; }

     private:
      e::ExprPtr equation_;
      std::vector<double> params_;
      std::size_t n_;
      std::size_t t_ = 0;
      double sse_ = 0.0;
    };
    (void)use_compiled_backend;
    return std::make_unique<Eval>(equations[0], parameters, n_);
  }

 private:
  std::size_t n_;
};

gp::Tag3pConfig DrillConfig(const DrillOptions& options) {
  gp::Tag3pConfig config;
  config.population_size = options.pop;
  config.max_generations = options.gens;
  config.bounds = gp::SizeBounds{2, 12};
  config.local_search_steps = 2;
  config.elite_polish_steps = 5;
  config.sigma_rampdown_generations = 3;
  config.seed = 5;
  config.speedups.tree_caching = true;
  config.speedups.short_circuiting = true;
  config.speedups.num_threads = options.threads;
  return config;
}

/// The deterministic fingerprint of a finished run: best individual (bits,
/// genotype, parameters), per-generation history, and every EvalStats
/// counter that the determinism contract covers. Timing fields are
/// excluded; their cross-segment accumulation has its own unit test.
std::string ResultDigest(const gp::Tag3pResult& result) {
  std::ostringstream out;
  out << "best_fitness " << ckpt::HexDouble(result.best.fitness) << '\n';
  out << "best_params " << ckpt::SerializeDoubles(result.best.parameters)
      << '\n';
  if (result.best.genotype != nullptr) {
    out << "best_genotype " << ckpt::SerializeDerivation(*result.best.genotype)
        << '\n';
  }
  for (const gp::GenerationStats& g : result.history) {
    out << "gen " << g.generation << ' ' << ckpt::HexDouble(g.best_fitness)
        << ' ' << ckpt::HexDouble(g.mean_fitness) << ' '
        << ckpt::HexDouble(g.best_size) << '\n';
  }
  const gp::EvalStats& s = result.eval_stats;
  out << "evaluated " << s.individuals_evaluated << " hits " << s.cache_hits
      << " lookups " << s.cache_lookups << " full " << s.full_evaluations
      << " short " << s.short_circuited << " static " << s.static_rejects
      << " steps " << s.time_steps_evaluated << '\n';
  out << "outcomes";
  for (std::size_t i = 0; i < kNumEvalOutcomes; ++i) {
    out << ' ' << s.outcomes[i];
  }
  out << '\n';
  return out.str();
}

/// One run segment in the current process: resume from `ckpt_dir` if a
/// snapshot exists, continue `trace_path`, and either die at generation
/// `kill_at` (SIGKILL, no cleanup) or finish and write the digest.
/// Factored so the reference run (no checkpointer) shares every line of
/// the setup with the drill segments.
int RunSegment(const DrillOptions& options, const std::string& trace_path,
               const std::string& ckpt_dir, const std::string& digest_path,
               int kill_at) {
  const t::Grammar grammar = ToyGrammar();
  const ToyFitness fitness(60);
  const gp::Tag3pProblem problem{&grammar, &fitness, {}};

  std::unique_ptr<ckpt::Checkpointer> checkpointer;
  obs::JsonlTraceOptions trace_options =
      obs::JsonlTraceOptions::Deterministic();
  if (!ckpt_dir.empty()) {
    ckpt::CheckpointOptions ckpt_options;
    ckpt_options.dir = ckpt_dir;
    checkpointer = std::make_unique<ckpt::Checkpointer>(ckpt_options);
    if (checkpointer->Load() != nullptr) {
      trace_options.resume = true;
      trace_options.resume_bytes = checkpointer->resume_trace_bytes();
      trace_options.resume_sequence = checkpointer->resume_trace_sequence();
    }
  }

  gp::Tag3pResult result;
  {
    obs::JsonlTraceSink sink(trace_path, trace_options);
    if (!sink.ok()) {
      std::fprintf(stderr, "crashdrill: cannot open trace %s\n",
                   trace_path.c_str());
      return 2;
    }
    obs::RunContext context;
    context.sink = &sink;
    if (checkpointer != nullptr) {
      checkpointer->AttachTraceSink(&sink);
      context.checkpointer = checkpointer.get();
    }
    gp::Tag3pEngine engine(problem, DrillConfig(options), context);
    if (kill_at >= 0) {
      engine.set_generation_callback(
          [kill_at](const gp::GenerationStats& stats) {
            if (stats.generation == kill_at) {
              raise(SIGKILL);  // instant, uncatchable — never returns
            }
          });
    }
    result = engine.Run();
  }  // sink destroyed: file closed

  std::ofstream digest(digest_path, std::ios::binary | std::ios::trunc);
  digest << ResultDigest(result);
  return digest.good() ? 0 : 2;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Runs one segment in a forked child and reports how it ended.
/// `expect_kill` distinguishes the SIGKILLed middle segments from the
/// finishing one.
bool RunChildSegment(const DrillOptions& options, const std::string& trace,
                     const std::string& ckpt_dir, const std::string& digest,
                     int kill_at, bool expect_kill) {
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("crashdrill: fork");
    return false;
  }
  if (pid == 0) {
    // Child: run the segment and leave without touching the parent's
    // buffered state (_exit skips atexit / stdio flushing).
    _exit(RunSegment(options, trace, ckpt_dir, digest, kill_at));
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) {
    std::perror("crashdrill: waitpid");
    return false;
  }
  if (expect_kill) {
    if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
      std::fprintf(stderr,
                   "crashdrill: segment (kill at gen %d) did not die by "
                   "SIGKILL (status %d)\n",
                   kill_at, status);
      return false;
    }
    return true;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "crashdrill: finishing segment failed (status %d)\n",
                 status);
    return false;
  }
  return true;
}

/// Prefix of the drill's error messages.
constexpr char kTool[] = "crashdrill";

bool ParseFlag(int argc, char** argv, int* i, const char* name,
               std::string* value) {
  if (std::strcmp(argv[*i], name) != 0) return false;
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "crashdrill: %s needs a value\n", name);
    std::exit(2);
  }
  *value = argv[++*i];
  return true;
}

int DrillMain(int argc, char** argv) {
  DrillOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argc, argv, &i, "--dir", &value)) {
      options.dir = value;
    } else if (ParseFlag(argc, argv, &i, "--kills", &value)) {
      options.kills = ParseUnsignedOrExit(kTool, "--kills", value.c_str(), 0);
    } else if (ParseFlag(argc, argv, &i, "--drill-seed", &value)) {
      options.drill_seed = ParseUnsignedOrExit<std::uint64_t>(
          kTool, "--drill-seed", value.c_str());
    } else if (ParseFlag(argc, argv, &i, "--threads", &value)) {
      options.threads =
          ParseThreadsOrExit(kTool, "--threads", value.c_str(), 1);
    } else if (ParseFlag(argc, argv, &i, "--gens", &value)) {
      options.gens = ParseUnsignedOrExit(kTool, "--gens", value.c_str(), 0);
    } else if (ParseFlag(argc, argv, &i, "--pop", &value)) {
      options.pop = ParseUnsignedOrExit(kTool, "--pop", value.c_str(), 1);
    } else if (std::strcmp(argv[i], "--keep") == 0) {
      options.keep = true;
    } else {
      std::fprintf(stderr, "crashdrill: unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (options.gens < 3 || options.kills < 1 ||
      options.kills > options.gens - 1) {
    std::fprintf(stderr,
                 "crashdrill: need gens >= 3 and 1 <= kills <= gens-1\n");
    return 2;
  }

  std::string dir = options.dir;
  if (dir.empty()) {
    const char* tmpdir = std::getenv("TMPDIR");
    std::string pattern = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                          "/gmr_crashdrill_XXXXXX";
    std::vector<char> buffer(pattern.begin(), pattern.end());
    buffer.push_back('\0');
    if (mkdtemp(buffer.data()) == nullptr) {
      std::perror("crashdrill: mkdtemp");
      return 2;
    }
    dir.assign(buffer.data());
  } else {
    // An explicit --dir is scratch space owned by the drill: clear any
    // artifacts a previous (failed, --keep) run left behind, so stale
    // checkpoints can never leak into this run's resume chain.
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
  }

  const std::string ref_trace = dir + "/reference.jsonl";
  const std::string ref_digest = dir + "/reference.digest";
  const std::string drill_trace = dir + "/drill.jsonl";
  const std::string drill_digest = dir + "/drill.digest";
  const std::string ckpt_dir = dir + "/ckpt";

  // Reference: one uninterrupted run, no checkpointer — the drill must
  // reproduce a run that never knew checkpointing existed.
  {
    const int rc =
        RunSegment(options, ref_trace, /*ckpt_dir=*/"", ref_digest,
                   /*kill_at=*/-1);
    if (rc != 0) return rc;
  }

  // Kill generations: distinct draws from [1, gens-1], sorted. Generation
  // g's checkpoint lands after the kill point at g, so each resume replays
  // at least one completed-but-unpersisted generation.
  Rng rng(options.drill_seed);
  std::vector<int> kill_points;
  while (static_cast<int>(kill_points.size()) < options.kills) {
    const int g = 1 + static_cast<int>(rng.UniformInt(
                          static_cast<std::uint64_t>(options.gens - 1)));
    bool duplicate = false;
    for (int seen : kill_points) duplicate |= seen == g;
    if (!duplicate) kill_points.push_back(g);
  }
  std::sort(kill_points.begin(), kill_points.end());

  std::printf("crashdrill: %d gens, killing at:", options.gens);
  for (int g : kill_points) std::printf(" %d", g);
  std::printf(" (threads=%d)\n", options.threads);

  for (int g : kill_points) {
    if (!RunChildSegment(options, drill_trace, ckpt_dir, drill_digest, g,
                         /*expect_kill=*/true)) {
      return 1;
    }
  }
  if (!RunChildSegment(options, drill_trace, ckpt_dir, drill_digest,
                       /*kill_at=*/-1, /*expect_kill=*/false)) {
    return 1;
  }

  const std::string ref_trace_bytes = ReadFileBytes(ref_trace);
  const std::string drill_trace_bytes = ReadFileBytes(drill_trace);
  const std::string ref_digest_bytes = ReadFileBytes(ref_digest);
  const std::string drill_digest_bytes = ReadFileBytes(drill_digest);

  bool ok = true;
  if (ref_trace_bytes.empty() || ref_trace_bytes != drill_trace_bytes) {
    std::fprintf(stderr,
                 "crashdrill: FAIL — traces differ (reference %zu bytes, "
                 "drill %zu bytes)\n",
                 ref_trace_bytes.size(), drill_trace_bytes.size());
    ok = false;
  }
  if (ref_digest_bytes.empty() || ref_digest_bytes != drill_digest_bytes) {
    std::fprintf(stderr, "crashdrill: FAIL — result digests differ:\n"
                         "--- reference ---\n%s--- drill ---\n%s",
                 ref_digest_bytes.c_str(), drill_digest_bytes.c_str());
    ok = false;
  }

  if (ok && !options.keep) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  } else if (!ok) {
    std::fprintf(stderr, "crashdrill: artifacts kept in %s\n", dir.c_str());
  }

  if (ok) {
    std::printf("crashdrill: PASS — %d kills, trace (%zu bytes) and digest "
                "byte-identical\n",
                options.kills, ref_trace_bytes.size());
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace gmr

int main(int argc, char** argv) { return gmr::DrillMain(argc, argv); }
