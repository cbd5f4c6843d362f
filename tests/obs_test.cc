// Observability subsystem tests (ctest label `obs`): trace event
// serialization, the JSONL sink + reader round trip, metric registries, the
// run manifest, RunContext pool leasing, the EvalStats::Merge algebra, and
// the determinism contract — byte-identical traces across thread counts
// under kFrozenFrontier, and sink-on == sink-off search trajectories.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "core/river_grammar.h"
#include "expr/compile.h"
#include "expr/eval.h"
#include "gggp/gggp.h"
#include "gp/evaluator.h"
#include "gp/tag3p.h"
#include "grad/adjoint.h"
#include "obs/manifest.h"
#include "obs/histogram.h"
#include "obs/run_context.h"
#include "obs/telemetry.h"
#include "obs/trace_reader.h"
#include "river/biology.h"
#include "river/domains.h"
#include "river/parameters.h"
#include "river/simulate.h"
#include "river/synthetic.h"
#include "tag/generate.h"

namespace gmr::obs {
namespace {

namespace e = gmr::expr;
namespace t = gmr::tag;

// ------------------------------------------------------- serialization ----

TEST(FormatJsonNumberTest, IntegersPrintWithoutDecimalPoint) {
  EXPECT_EQ(FormatJsonNumber(3.0), "3");
  EXPECT_EQ(FormatJsonNumber(-5.0), "-5");
  EXPECT_EQ(FormatJsonNumber(0.0), "0");
}

TEST(FormatJsonNumberTest, NonIntegersRoundTrip) {
  EXPECT_EQ(FormatJsonNumber(0.5), "0.5");
  const double value = 0.1;
  EXPECT_EQ(std::stod(FormatJsonNumber(value)), value);
}

TEST(FormatJsonNumberTest, NonFiniteValuesStayValidJson) {
  EXPECT_EQ(FormatJsonNumber(std::nan("")), "null");
  EXPECT_EQ(FormatJsonNumber(std::numeric_limits<double>::infinity()),
            "1e999");
  EXPECT_EQ(FormatJsonNumber(-std::numeric_limits<double>::infinity()),
            "-1e999");
}

TEST(FormatJsonNumberTest, HugeValuesPrintWithoutAnUndefinedCast) {
  // The integer form stops below 2^53; at and beyond 2^63 a cast to long
  // long would be undefined (a generation's mean fitness reaches 1e30
  // whenever an individual carries the penalty fitness).
  EXPECT_EQ(FormatJsonNumber(1e20), "1e+20");
  EXPECT_EQ(FormatJsonNumber(-1e19), "-1e+19");
  EXPECT_EQ(FormatJsonNumber(1e30), "1e+30");
  EXPECT_EQ(FormatJsonNumber(9007199254740992.0), "9007199254740992");
}

TEST(SerializeEventTest, FixedFieldOrder) {
  TraceEvent event("generation");
  event.Field("gen", 3)
      .Label("mode", "frozen")
      .Timing("seconds", 0.5)
      .Env("num_threads", 4)
      .EnvLabel("hostname", "box");
  const std::string line = SerializeEvent(event, 7, JsonlTraceOptions{});
  EXPECT_EQ(line,
            "{\"type\":\"generation\",\"seq\":7,\"gen\":3,"
            "\"mode\":\"frozen\",\"seconds\":0.5,\"num_threads\":4,"
            "\"hostname\":\"box\"}");
}

TEST(SerializeEventTest, DeterministicPresetSuppressesTimingsAndEnv) {
  TraceEvent event("generation");
  event.Field("gen", 3)
      .Label("mode", "frozen")
      .Timing("seconds", 0.5)
      .Env("num_threads", 4)
      .EnvLabel("hostname", "box");
  const std::string line =
      SerializeEvent(event, 7, JsonlTraceOptions::Deterministic());
  EXPECT_EQ(line,
            "{\"type\":\"generation\",\"seq\":7,\"gen\":3,"
            "\"mode\":\"frozen\"}");
}

TEST(SerializeEventTest, EscapesStrings) {
  TraceEvent event("x");
  event.Label("msg", "a\"b\\c\nd");
  const std::string line = SerializeEvent(event, 0, JsonlTraceOptions{});
  EXPECT_NE(line.find("\\\"b\\\\c\\nd"), std::string::npos);
}

TEST(ParseTraceLineTest, RoundTripsSerializedEvents) {
  TraceEvent event("eval_batch");
  event.Field("n", 24).Field("best_f", 1.25).Label("method", "GA \"x\"");
  const std::string line = SerializeEvent(event, 42, JsonlTraceOptions{});

  TraceRecord record;
  ASSERT_TRUE(ParseTraceLine(line, &record));
  EXPECT_EQ(record.type, "eval_batch");
  EXPECT_EQ(record.seq, 42u);
  EXPECT_EQ(record.FindNumber("n"), 24.0);
  EXPECT_EQ(record.FindNumber("best_f"), 1.25);
  EXPECT_EQ(record.FindString("method"), "GA \"x\"");
  EXPECT_TRUE(record.HasNumber("n"));
  EXPECT_FALSE(record.HasNumber("absent"));
  EXPECT_EQ(record.FindNumber("absent", -1.0), -1.0);
}

TEST(ParseTraceLineTest, RejectsMalformedInput) {
  TraceRecord record;
  EXPECT_FALSE(ParseTraceLine("not json", &record));
  EXPECT_FALSE(ParseTraceLine("{\"seq\":1}", &record));  // no type
}

TEST(ParseTraceLineTest, RejectsOutOfRangeSeqAndBadEscapes) {
  TraceRecord record;
  // A seq must be an integer in [0, 2^64); a \u escape exactly four hex
  // digits below 0x80.
  for (const char* bad :
       {R"({"type":"x","seq":-1})", R"({"type":"x","seq":1.5})",
        R"({"type":"x","seq":1e20})",
        R"({"type":"x","seq":18446744073709551616})",
        R"({"type":"x","s":"a\uZZZZb"})", R"({"type":"x","s":"\u-041"})",
        R"({"type":"x","s":"\u00e9"})", R"({"type":"x","s":"\u12"})"}) {
    EXPECT_FALSE(ParseTraceLine(bad, &record)) << bad;
  }
  ASSERT_TRUE(ParseTraceLine(
      R"({"type":"x","seq":18446744073709549568,"s":"a\u001fb"})", &record));
  EXPECT_EQ(record.seq, 18446744073709549568u);
  EXPECT_EQ(record.FindString("s"), "a\x1f"
                                    "b");
  // A manifest seed outside uint64_t summarizes as 0.
  ASSERT_TRUE(ParseTraceLine(R"({"type":"manifest","driver":"d","seed":-1})",
                             &record));
  EXPECT_EQ(SummarizeTrace({record}).seed, 0u);
}

// --------------------------------------------------------------- sinks ----

TEST(NullSinkTest, DisabledAndShared) {
  EXPECT_FALSE(NullTelemetrySink()->enabled());
  EXPECT_EQ(ResolveSink(nullptr), NullTelemetrySink());
  NullSink sink;
  EXPECT_EQ(ResolveSink(&sink), &sink);
}

TEST(VectorSinkTest, CollectsEventsInOrder) {
  VectorSink sink;
  EXPECT_TRUE(sink.enabled());
  sink.Emit(TraceEvent("a"));
  sink.Emit(TraceEvent("b"));
  ASSERT_EQ(sink.events().size(), 2u);
  EXPECT_EQ(sink.events()[0].type, "a");
  EXPECT_EQ(sink.events()[1].type, "b");
}

TEST(JsonlTraceSinkTest, WritesReadableTrace) {
  const std::string path = testing::TempDir() + "/obs_roundtrip.jsonl";
  {
    JsonlTraceSink sink(path);
    ASSERT_TRUE(sink.ok());
    TraceEvent event("generation");
    event.Field("gen", 0).Field("best_fitness", 2.5);
    sink.Emit(std::move(event));
    TraceEvent last("run_result");
    last.Field("best_fitness", 2.5);
    sink.Emit(std::move(last));
    sink.Flush();
    EXPECT_EQ(sink.events_emitted(), 2u);
  }  // destructor drains and closes

  std::vector<TraceRecord> records;
  const Status status = ReadTrace(path, &records);
  ASSERT_TRUE(status.ok()) << status.message;
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].type, "generation");
  EXPECT_EQ(records[0].seq, 0u);
  EXPECT_EQ(records[1].type, "run_result");
  EXPECT_EQ(records[1].seq, 1u);
  EXPECT_EQ(records[1].FindNumber("best_fitness"), 2.5);
}

TEST(ReadTraceTest, ReportsMissingFileAndBadLines) {
  std::vector<TraceRecord> records;
  EXPECT_FALSE(ReadTrace("/nonexistent/trace.jsonl", &records).ok());

  const std::string path = testing::TempDir() + "/obs_bad.jsonl";
  std::ofstream(path) << "{\"type\":\"ok\",\"seq\":0}\ngarbage\n";
  const Status status = ReadTrace(path, &records);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message.find(":2:"), std::string::npos)
      << status.message;
}

// ----------------------------------------------------------- histogram ----

TEST(HistogramTest, BucketsAndQuantiles) {
  Histogram hist(1.0, 2.0, 8);
  for (double v : {0.5, 1.5, 3.0, 100.0, 1e9}) hist.Record(v);
  EXPECT_EQ(hist.total_count(), 5u);
  EXPECT_EQ(hist.num_buckets(), 9u);
  EXPECT_EQ(hist.bucket_count(0), 1u);  // 0.5 <= 1
  EXPECT_EQ(hist.bucket_count(1), 1u);  // 1.5 in (1, 2]
  EXPECT_EQ(hist.bucket_count(2), 1u);  // 3.0 in (2, 4]
  EXPECT_EQ(hist.bucket_count(7), 1u);  // 100 in (64, 128]
  EXPECT_EQ(hist.bucket_count(8), 1u);  // 1e9 overflows
  EXPECT_TRUE(std::isinf(hist.bucket_bound(8)));
  EXPECT_LE(hist.Quantile(0.5), hist.Quantile(0.99));
  EXPECT_TRUE(std::isinf(hist.Quantile(1.0)) || hist.Quantile(1.0) > 0);
}

// ------------------------------------------------------------ manifest ----

TEST(ManifestTest, EmitsDriverSeedConfigAndEnvironment) {
  RunManifest manifest = MakeRunManifest("tag3p", 17);
  manifest.config_fields = {{"population_size", 24.0}};
  manifest.config_labels = {{"frontier_mode", "frozen"}};
  manifest.num_threads = 4;
  EXPECT_FALSE(manifest.git_describe.empty());
  EXPECT_FALSE(manifest.hostname.empty());
  EXPECT_FALSE(manifest.started_at_utc.empty());

  VectorSink sink;
  EmitManifest(&sink, manifest);
  ASSERT_EQ(sink.events().size(), 1u);
  const TraceEvent& event = sink.events()[0];
  EXPECT_EQ(event.type, "manifest");
  ASSERT_FALSE(event.labels.empty());
  EXPECT_EQ(event.labels[0].first, "driver");
  EXPECT_EQ(event.labels[0].second, "tag3p");
  ASSERT_FALSE(event.fields.empty());
  EXPECT_EQ(event.fields[0].first, "seed");
  EXPECT_EQ(event.fields[0].second, 17.0);
  // Thread count and machine identity are environment-class: suppressed
  // under the deterministic preset, so they can never break byte identity.
  EXPECT_FALSE(event.env_fields.empty());
  EXPECT_FALSE(event.env_labels.empty());
}

TEST(ManifestTest, NullSinkEmissionIsANoOp) {
  EmitManifest(nullptr, MakeRunManifest("x", 1));  // must not crash
}

// ----------------------------------------------------------- RunContext ----

TEST(RunContextTest, MakeThreadPoolIsNullForSerial) {
  EXPECT_EQ(MakeThreadPool(0), nullptr);
  EXPECT_EQ(MakeThreadPool(1), nullptr);
  const auto pool = MakeThreadPool(3);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->num_threads(), 3);
}

TEST(RunContextTest, LeaseBorrowsSharedPool) {
  const auto shared = MakeThreadPool(2);
  RunContext context;
  context.pool = shared.get();
  const PoolLease lease = LeasePool(context, /*num_threads=*/8);
  EXPECT_EQ(lease.pool(), shared.get());  // config thread count ignored
}

TEST(RunContextTest, LeaseOwnsPoolFromConfigWhenContextHasNone) {
  const PoolLease serial = LeasePool(RunContext{}, 1);
  EXPECT_EQ(serial.pool(), nullptr);
  const PoolLease parallel = LeasePool(RunContext{}, 3);
  ASSERT_NE(parallel.pool(), nullptr);
  EXPECT_EQ(parallel.pool()->num_threads(), 3);
}

TEST(RunContextTest, TelemetryAccessorNeverNull) {
  RunContext context;
  EXPECT_FALSE(context.telemetry().enabled());
  VectorSink sink;
  context.sink = &sink;
  EXPECT_TRUE(context.telemetry().enabled());
}

// ------------------------------------------------- EvalStats::Merge law ----

gp::EvalStats RandomStats(Rng& rng) {
  gp::EvalStats stats;
  stats.individuals_evaluated = rng.UniformInt(100);
  stats.cache_hits = rng.UniformInt(100);
  stats.cache_lookups = rng.UniformInt(100);
  stats.full_evaluations = rng.UniformInt(100);
  stats.short_circuited = rng.UniformInt(100);
  stats.static_rejects = rng.UniformInt(100);
  stats.time_steps_evaluated = rng.UniformInt(10000);
  // Quarters are exactly representable, so double addition is associative
  // bit-for-bit on these values and the law can be checked with EXPECT_EQ.
  stats.wall_seconds = static_cast<double>(rng.UniformInt(64)) * 0.25;
  stats.cpu_seconds = static_cast<double>(rng.UniformInt(64)) * 0.25;
  for (std::size_t i = 0; i < kNumEvalOutcomes; ++i) {
    stats.outcomes[i] = rng.UniformInt(50);
  }
  return stats;
}

void ExpectStatsEqual(const gp::EvalStats& a, const gp::EvalStats& b) {
  EXPECT_EQ(a.individuals_evaluated, b.individuals_evaluated);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_lookups, b.cache_lookups);
  EXPECT_EQ(a.full_evaluations, b.full_evaluations);
  EXPECT_EQ(a.short_circuited, b.short_circuited);
  EXPECT_EQ(a.static_rejects, b.static_rejects);
  EXPECT_EQ(a.time_steps_evaluated, b.time_steps_evaluated);
  EXPECT_EQ(a.wall_seconds, b.wall_seconds);
  EXPECT_EQ(a.cpu_seconds, b.cpu_seconds);
  for (std::size_t i = 0; i < kNumEvalOutcomes; ++i) {
    EXPECT_EQ(a.outcomes[i], b.outcomes[i]) << "outcome " << i;
  }
}

TEST(EvalStatsMergeTest, AssociativeAndCommutativeOverEveryField) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const gp::EvalStats a = RandomStats(rng);
    const gp::EvalStats b = RandomStats(rng);
    const gp::EvalStats c = RandomStats(rng);

    // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
    gp::EvalStats left = a;
    left.Merge(b);
    left.Merge(c);
    gp::EvalStats bc = b;
    bc.Merge(c);
    gp::EvalStats right = a;
    right.Merge(bc);
    ExpectStatsEqual(left, right);

    // a ⊕ b == b ⊕ a
    gp::EvalStats ab = a;
    ab.Merge(b);
    gp::EvalStats ba = b;
    ba.Merge(a);
    ExpectStatsEqual(ab, ba);
  }
}

TEST(EvalStatsMergeTest, DefaultStatsAreTheIdentity) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const gp::EvalStats a = RandomStats(rng);

    gp::EvalStats left = a;
    left.Merge(gp::EvalStats{});
    ExpectStatsEqual(left, a);

    gp::EvalStats right;
    right.Merge(a);
    ExpectStatsEqual(right, a);
  }
}

TEST(EvalStatsMergeTest, OutcomeMixFoldsToMultisetCounts) {
  // A stream of per-evaluation outcome records (one outcome tallied per
  // stats instance, the way a worker lane records a single evaluation)
  // must fold into exactly the multiset counts of the stream.
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    std::size_t expected[kNumEvalOutcomes] = {};
    gp::EvalStats folded;
    const int events = 1 + static_cast<int>(rng.UniformInt(200));
    for (int e = 0; e < events; ++e) {
      const std::size_t outcome = rng.UniformInt(kNumEvalOutcomes);
      ++expected[outcome];
      gp::EvalStats one;
      one.individuals_evaluated = 1;
      one.outcomes[outcome] = 1;
      if (outcome ==
          static_cast<std::size_t>(EvalOutcome::kStaticReject)) {
        one.static_rejects = 1;
      }
      folded.Merge(one);
    }
    std::size_t total = 0;
    for (std::size_t i = 0; i < kNumEvalOutcomes; ++i) {
      EXPECT_EQ(folded.outcomes[i], expected[i]) << "outcome " << i;
      total += folded.outcomes[i];
    }
    EXPECT_EQ(folded.individuals_evaluated, static_cast<std::size_t>(events));
    EXPECT_EQ(total, static_cast<std::size_t>(events));
    // The shortcut counter stays consistent with the outcome it mirrors.
    EXPECT_EQ(folded.static_rejects,
              folded.outcomes[static_cast<std::size_t>(
                  EvalOutcome::kStaticReject)]);
  }
}

TEST(EvalStatsMergeTest, FoldOrderOverRandomPartitionsIsInvariant) {
  // Per-thread partial stats fold in whatever order lanes hit the batch
  // barrier; any partition of the stream into per-lane partials must reach
  // the same totals as the sequential fold.
  Rng rng(63);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<gp::EvalStats> stream;
    const int n = 2 + static_cast<int>(rng.UniformInt(30));
    for (int i = 0; i < n; ++i) stream.push_back(RandomStats(rng));

    gp::EvalStats sequential;
    for (const auto& s : stream) sequential.Merge(s);

    const std::size_t lanes = 1 + rng.UniformInt(4);
    std::vector<gp::EvalStats> partial(lanes);
    for (const auto& s : stream) partial[rng.UniformInt(lanes)].Merge(s);
    // Fold the lanes back in a rotated (non-identity) order.
    const std::size_t start = rng.UniformInt(lanes);
    gp::EvalStats folded;
    for (std::size_t i = 0; i < lanes; ++i) {
      folded.Merge(partial[(start + i) % lanes]);
    }
    ExpectStatsEqual(folded, sequential);
  }
}

// --------------------------------------- search determinism under trace ----

// Same toy problem as gp_test/parallel_test: seed "x + 0", revisions
// "Exp* + R" and "Exp* * R", target concept 2x + 1.
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
      Eval(const e::ExprPtr& eq, std::vector<double> params, bool compiled,
           std::size_t n)
          : equation_(eq), params_(std::move(params)), n_(n) {
        if (compiled) program_ = e::Compile(*equation_);
        compiled_ = compiled;
      }
      bool Step() override {
        const double x =
            n_ > 1 ? static_cast<double>(t_) / static_cast<double>(n_ - 1)
                   : 0.0;
        e::EvalContext ctx;
        ctx.variables = &x;
        ctx.num_variables = 1;
        ctx.parameters = params_.data();
        ctx.num_parameters = params_.size();
        const double pred = compiled_ ? program_.Run(ctx)
                                      : e::EvalExpr(*equation_, ctx);
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
      e::CompiledProgram program_;
      bool compiled_ = false;
      std::size_t n_;
      std::size_t t_ = 0;
      double sse_ = 0.0;
    };
    return std::make_unique<Eval>(equations[0], parameters,
                                  use_compiled_backend, n_);
  }

 private:
  std::size_t n_;
};

gp::Tag3pConfig ToyConfig(int num_threads) {
  gp::Tag3pConfig config;
  config.population_size = 24;
  config.max_generations = 6;
  config.bounds = gp::SizeBounds{2, 12};
  config.local_search_steps = 2;
  config.elite_polish_steps = 5;
  config.sigma_rampdown_generations = 3;
  config.seed = 5;
  // The determinism contract (DESIGN.md §4f): ES under the frozen frontier
  // is bit-identical across thread counts, but TC's cache counters are
  // satisfied-first racy, so byte-identical traces require tree_caching
  // off.
  config.speedups.tree_caching = false;
  config.speedups.short_circuiting = true;
  config.speedups.num_threads = num_threads;
  return config;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(TraceDeterminismTest, ByteIdenticalAcrossThreadCountsUnderFrozen) {
  const t::Grammar grammar = ToyGrammar();
  const ToyFitness fitness(60);
  const gp::Tag3pProblem problem{&grammar, &fitness, {}};

  std::vector<std::string> traces;
  for (int threads : {1, 4}) {
    const std::string path = testing::TempDir() + "/obs_trace_t" +
                             std::to_string(threads) + ".jsonl";
    {
      JsonlTraceSink sink(path, JsonlTraceOptions::Deterministic());
      ASSERT_TRUE(sink.ok());
      RunContext context;
      context.sink = &sink;
      gp::RunTag3p(ToyConfig(threads), problem, context);
    }
    traces.push_back(ReadFile(path));
    ASSERT_FALSE(traces.back().empty());
  }
  EXPECT_EQ(traces[0], traces[1])
      << "deterministic traces diverged between 1 and 4 threads";
}

TEST(TraceDeterminismTest, SinkOnAndOffProduceIdenticalTrajectories) {
  const t::Grammar grammar = ToyGrammar();
  const ToyFitness fitness(60);
  const gp::Tag3pProblem problem{&grammar, &fitness, {}};

  const gp::Tag3pResult off = gp::RunTag3p(ToyConfig(2), problem);

  VectorSink sink;
  RunContext context;
  context.sink = &sink;
  const gp::Tag3pResult on = gp::RunTag3p(ToyConfig(2), problem, context);
  EXPECT_FALSE(sink.events().empty());

  EXPECT_EQ(off.best.fitness, on.best.fitness);
  ASSERT_EQ(off.history.size(), on.history.size());
  for (std::size_t g = 0; g < off.history.size(); ++g) {
    EXPECT_EQ(off.history[g].best_fitness, on.history[g].best_fitness);
    EXPECT_EQ(off.history[g].mean_fitness, on.history[g].mean_fitness);
    EXPECT_EQ(off.history[g].best_size, on.history[g].best_size);
  }
}

// --------------------------------------------------------- trace reader ----

TEST(TraceSummaryTest, SummarizesARealSearchTrace) {
  const t::Grammar grammar = ToyGrammar();
  const ToyFitness fitness(60);
  const gp::Tag3pProblem problem{&grammar, &fitness, {}};

  const std::string path = testing::TempDir() + "/obs_summary.jsonl";
  gp::Tag3pResult result;
  {
    JsonlTraceSink sink(path);
    ASSERT_TRUE(sink.ok());
    RunContext context;
    context.sink = &sink;
    result = gp::RunTag3p(ToyConfig(1), problem, context);
  }

  std::vector<TraceRecord> records;
  const Status status = ReadTrace(path, &records);
  ASSERT_TRUE(status.ok()) << status.message;
  ASSERT_FALSE(records.empty());

  const TraceSummary summary = SummarizeTrace(records);
  EXPECT_EQ(summary.driver, "tag3p");
  EXPECT_EQ(summary.seed, 5u);
  EXPECT_EQ(summary.num_events, records.size());
  ASSERT_EQ(summary.curve.size(), 6u);  // one point per generation
  EXPECT_EQ(summary.curve.back().best_fitness, result.best.fitness);
  EXPECT_FALSE(summary.batches.empty());
  EXPECT_GT(summary.total_individuals, 0u);
  EXPECT_GT(summary.outcomes[static_cast<std::size_t>(EvalOutcome::kOk)],
            0u);

  // Every renderer produces non-trivial output on a real trace.
  const std::string text = RenderSummaryText(summary);
  EXPECT_NE(text.find("tag3p"), std::string::npos);
  EXPECT_NE(text.find("fitness"), std::string::npos);
  EXPECT_NE(RenderCurveCsv(summary).find("generation"), std::string::npos);
  EXPECT_NE(RenderBatchesCsv(summary).find("cum_hit_rate"),
            std::string::npos);
  EXPECT_NE(RenderOutcomesCsv(summary).find("ok"), std::string::npos);
}

TEST(TraceSummaryTest, GggpTraceAccountsForEveryEvaluation) {
  // GGGP scores through the same evaluator as TAG3P, so its eval_batch
  // events carry the full EvalStats field set and the summary adds up to
  // the run's own totals.
  river::SyntheticConfig data_config;
  data_config.years = 2;
  data_config.train_years = 1;
  data_config.seed = 3;
  const river::RiverDataset dataset = river::GenerateNakdongLike(data_config);
  const river::RiverFitness fitness =
      river::RiverFitness::ForTraining(&dataset);
  const gggp::CfgGrammar grammar = gggp::RiverCfgGrammar();
  const gp::ParameterPriors priors = river::RiverParameterPriors();
  const gggp::GggpProblem problem{river::ManualProcess(), &grammar, &priors,
                                  &fitness};
  gggp::GggpConfig config;
  config.population_size = 12;
  config.max_generations = 4;
  config.seed = 9;
  config.speedups.short_circuiting = true;
  config.speedups.tree_caching = true;

  const std::string path = testing::TempDir() + "/obs_summary_gggp.jsonl";
  gggp::GggpResult result;
  {
    JsonlTraceSink sink(path);
    ASSERT_TRUE(sink.ok());
    RunContext context;
    context.sink = &sink;
    result = gggp::RunGggp(config, problem, context);
  }

  std::vector<TraceRecord> records;
  const Status status = ReadTrace(path, &records);
  ASSERT_TRUE(status.ok()) << status.message;
  const TraceSummary summary = SummarizeTrace(records);
  EXPECT_EQ(summary.driver, "gggp");
  ASSERT_EQ(summary.curve.size(), 4u);  // one point per generation
  // Each point covers the population its generation scored, so the curve
  // ends at the run's best.
  EXPECT_EQ(summary.curve.back().best_fitness, result.best.fitness);
  const gp::EvalStats& stats = result.eval_stats;
  EXPECT_GT(stats.individuals_evaluated, 0u);
  EXPECT_EQ(summary.total_individuals, stats.individuals_evaluated);
  for (std::size_t i = 0; i < kNumEvalOutcomes; ++i) {
    EXPECT_EQ(summary.outcomes[i], stats.outcomes[i])
        << EvalOutcomeName(static_cast<EvalOutcome>(i));
  }
  EXPECT_GT(stats.cache_lookups, 0u);
  EXPECT_EQ(summary.cache_hit_rate, stats.CacheHitRate());
}

TEST(TraceSummaryTest, Tag3pTraceAccountsForEveryEvaluation) {
  // Population batches, local search, elite polish, gradient polish and a
  // contained task failure all pass through the evaluator's batch barrier,
  // which alone grows EvalStats and emits its delta: the trace sums to the
  // run's totals with nothing added back.
  river::SyntheticConfig data_config;
  data_config.years = 2;
  data_config.train_years = 1;
  data_config.seed = 3;
  const river::RiverDataset dataset = river::GenerateNakdongLike(data_config);
  const core::RiverPriorKnowledge knowledge =
      core::BuildRiverPriorKnowledge();
  const river::SimulationConfig sim;
  const river::RiverFitness fitness =
      river::RiverFitness::ForTraining(&dataset, sim);
  const grad::RiverGradientFitness gradient =
      grad::RiverGradientFitness::ForTraining(
          &dataset, river::ConstituentSet::LegacyPlankton(), sim);
  const gp::Tag3pProblem problem{&knowledge.grammar, &fitness,
                                 knowledge.priors, &gradient};
  gp::Tag3pConfig config;
  config.population_size = 16;
  config.max_generations = 4;
  config.bounds = gp::SizeBounds{2, 12};
  config.local_search_steps = 2;
  config.elite_polish_steps = 4;
  config.elite_gradient_steps = 3;
  config.seed = 11;
  config.seed_alpha_index = knowledge.seed_alpha_index;
  config.speedups.tree_caching = true;
  config.speedups.short_circuiting = true;
  config.speedups.static_gate = river::MakeStaticGate(sim, &dataset);
  config.speedups.num_threads = 2;

  const std::string path = testing::TempDir() + "/obs_summary_tag3p.jsonl";
  gp::Tag3pResult result;
  {
    JsonlTraceSink sink(path);
    ASSERT_TRUE(sink.ok());
    RunContext context;
    context.sink = &sink;
    std::string error;
    ASSERT_TRUE(SetFaultSpec("pool_task:once", &error)) << error;
    result = gp::RunTag3p(config, problem, context);
    ClearFaults();
  }

  std::vector<TraceRecord> records;
  const Status status = ReadTrace(path, &records);
  ASSERT_TRUE(status.ok()) << status.message;
  const TraceSummary summary = SummarizeTrace(records);
  ASSERT_FALSE(summary.batches.empty());
  const BatchPoint& last = summary.batches.back();
  const gp::EvalStats& stats = result.eval_stats;
  EXPECT_EQ(summary.total_individuals, stats.individuals_evaluated);
  EXPECT_EQ(last.cum_lookups, static_cast<double>(stats.cache_lookups));
  EXPECT_EQ(last.cum_hits, static_cast<double>(stats.cache_hits));
  EXPECT_EQ(last.cum_static_rejects,
            static_cast<double>(stats.static_rejects));
  for (std::size_t i = 0; i < kNumEvalOutcomes; ++i) {
    EXPECT_EQ(summary.outcomes[i], stats.outcomes[i])
        << EvalOutcomeName(static_cast<EvalOutcome>(i));
  }
  EXPECT_EQ(stats.outcomes[static_cast<std::size_t>(EvalOutcome::kTaskFailed)],
            1u);
  EXPECT_GT(stats.gradient_evaluations, 0u);
  EXPECT_GT(stats.linesearch_steps, 0u);
  EXPECT_EQ(summary.gradient_evaluations,
            static_cast<double>(stats.gradient_evaluations));
  EXPECT_EQ(summary.tape_nodes, static_cast<double>(stats.tape_nodes));
  EXPECT_EQ(summary.linesearch_steps,
            static_cast<double>(stats.linesearch_steps));
}

}  // namespace
}  // namespace gmr::obs
