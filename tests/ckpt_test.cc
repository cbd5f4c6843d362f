// Checkpoint/resume subsystem tests (ctest labels `ckpt` + `fault`): the
// bit-exact serialization codecs, the CRC-sealed snapshot format and
// manifest hash chain, retention and rewind, the Checkpointer service, the
// four ckpt fault-injection sites (graceful degradation, previous-snapshot
// fallback, operational events), trace continuation with no gap across the
// checkpoint boundary, and in-process resume bit-identity for every
// checkpointing driver (TAG3P, GGGP, GA, SCE-UA, DREAM), and restore
// validation (a well-formed snapshot that breeding would overrun starts the
// run fresh instead of taking it down). The SIGKILL crash
// drill binary (gmr_crashdrill) covers the real-process half of the same
// contract.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/interval.h"
#include "calibrate/methods.h"
#include "ckpt/checkpoint.h"
#include "ckpt/serialize.h"
#include "ckpt/snapshot.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "core/gmr.h"
#include "core/river_grammar.h"
#include "expr/compile.h"
#include "expr/eval.h"
#include "gggp/gggp.h"
#include "gp/evaluator.h"
#include "gp/tag3p.h"
#include "obs/run_context.h"
#include "obs/telemetry.h"
#include "obs/trace_reader.h"
#include "river/biology.h"
#include "river/parameters.h"
#include "river/simulate.h"
#include "river/synthetic.h"
#include "tag/derivation.h"
#include "tag/generate.h"

namespace gmr::ckpt {
namespace {

namespace e = gmr::expr;
namespace fs = std::filesystem;
namespace t = gmr::tag;

// ------------------------------------------------------------- helpers ----

/// A fresh empty scratch directory under the test temp root.
std::string FreshDir(const std::string& name) {
  const std::string path = testing::TempDir() + "/ckpt_test_" + name;
  std::error_code ignore;
  fs::remove_all(path, ignore);
  fs::create_directories(path);
  return path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Fast-failing retry ladder so always-firing faults do not slow tests.
RetryOptions FastRetry() {
  RetryOptions retry;
  retry.initial_backoff_ms = 0.01;
  retry.max_backoff_ms = 0.1;
  return retry;
}

CheckpointOptions Options(const std::string& dir, int retain = 64) {
  CheckpointOptions options;
  options.dir = dir;
  options.every_steps = 1;
  options.retain = retain;
  options.retry = FastRetry();
  return options;
}

Snapshot MakeTestSnapshot(const std::string& driver, std::uint64_t step) {
  Snapshot snapshot;
  snapshot.driver = driver;
  snapshot.step = step;
  Section* payload = snapshot.AddSection("payload");
  payload->lines = {"value " + HexDouble(static_cast<double>(step)),
                    "tag line-two"};
  return snapshot;
}

std::size_t CountEvents(const obs::VectorSink& sink, const std::string& type,
                        const std::string& action) {
  std::size_t count = 0;
  for (const obs::TraceEvent& event : sink.events()) {
    if (event.type != type) continue;
    for (const auto& [key, value] : event.labels) {
      if (key == "action" && value == action) ++count;
    }
  }
  return count;
}

// ----------------------------------------------------- serialize codecs ----

TEST(SerializeTest, HexDoubleRoundTripsExactBits) {
  const double values[] = {0.0,
                           -0.0,
                           1.5,
                           -1.5,
                           1.0 / 3.0,
                           5e-324,  // smallest denormal
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::nan("0x7ff")};
  for (const double value : values) {
    const std::string hex = HexDouble(value);
    EXPECT_EQ(hex.size(), 16u);
    double parsed = 0.0;
    ASSERT_TRUE(ParseHexDouble(hex, &parsed)) << hex;
    EXPECT_EQ(HexDouble(parsed), hex);  // bitwise, incl. NaN payload & -0.0
  }
  double parsed;
  EXPECT_FALSE(ParseHexDouble("abc", &parsed));
  EXPECT_FALSE(ParseHexDouble("zzzzzzzzzzzzzzzz", &parsed));
  EXPECT_FALSE(ParseHexDouble("", &parsed));
}

TEST(SerializeTest, EscapeTokenRoundTrips) {
  const std::string names[] = {"plain", "a b", "x(y)", "100%", "p%20q",
                               "tab\tnewline\n", "Aa0_.-"};
  for (const std::string& name : names) {
    const std::string token = EscapeToken(name);
    EXPECT_EQ(token.find(' '), std::string::npos) << token;
    EXPECT_EQ(token.find('('), std::string::npos) << token;
    EXPECT_EQ(UnescapeToken(token), name);
  }
}

TEST(SerializeTest, ExprLineIsExactStructuralFixpoint) {
  // The pretty printer is structurally lossy (-1.5 reparses as Neg(1.5));
  // the checkpoint codec must not be: NodeCount feeds resumed RNG picks.
  const e::ExprPtr tree =
      e::Add(e::Constant(-1.5),
             e::Mul(e::Neg(e::Constant(1.5)), e::Variable(0, "x")));
  const std::string line = SerializeExpr(*tree);
  std::string error;
  const e::ExprPtr parsed = ParseExprLine(line, &error);
  ASSERT_NE(parsed, nullptr) << error;
  EXPECT_EQ(parsed->NodeCount(), tree->NodeCount());
  EXPECT_EQ(SerializeExpr(*parsed), line);

  const double x = 0.75;
  e::EvalContext ctx;
  ctx.variables = &x;
  ctx.num_variables = 1;
  EXPECT_EQ(HexDouble(e::EvalExpr(*parsed, ctx)),
            HexDouble(e::EvalExpr(*tree, ctx)));
}

TEST(SerializeTest, ParseExprLineRejectsMalformedInput) {
  std::string error;
  EXPECT_EQ(ParseExprLine("", &error), nullptr);
  EXPECT_EQ(ParseExprLine("(c", &error), nullptr);
  EXPECT_EQ(ParseExprLine("(c nothex)", &error), nullptr);
  EXPECT_EQ(ParseExprLine("(q 3ff0000000000000)", &error), nullptr);
  // Trailing garbage after a well-formed tree is an error, not ignored.
  const std::string good = SerializeExpr(*e::Constant(1.0));
  EXPECT_NE(ParseExprLine(good, &error), nullptr);
  EXPECT_EQ(ParseExprLine(good + " (c 0000000000000000)", &error), nullptr);
}

TEST(SerializeTest, ParseExprLineRejectsBadSlots) {
  // A negative slot used to abort in expr::Variable, and one past the int
  // range used to wrap to a small slot.
  for (const char* line : {"(v -1 x)", "(v 4294967297 x)", "(p -1 k)",
                           "(p 2147483648 k)", "(v +1 x)", "(v 1x x)"}) {
    std::string error;
    EXPECT_EQ(ParseExprLine(line, &error), nullptr) << line;
    EXPECT_EQ(error, "bad slot") << line;
  }
  std::string error;
  const e::ExprPtr widest = ParseExprLine("(v 2147483647 x)", &error);
  ASSERT_NE(widest, nullptr) << error;
  EXPECT_EQ(widest->slot(), 2147483647);
}

TEST(SerializeTest, ParseDoublesRejectsASignedCount) {
  std::vector<double> parsed;
  EXPECT_FALSE(ParseDoubles("-1", &parsed));
  EXPECT_FALSE(ParseDoubles("+1 3ff0000000000000", &parsed));
  EXPECT_TRUE(ParseDoubles("1 3ff0000000000000", &parsed));
  EXPECT_EQ(parsed, std::vector<double>{1.0});
}

TEST(SerializeTest, RngStateRoundTripContinuesStreamExactly) {
  Rng rng(1234);
  for (int i = 0; i < 17; ++i) rng.NextUint64();
  rng.Gaussian();  // leaves a cached Box-Muller mate pending

  RngState state = rng.SaveState();
  const std::string line = SerializeRngState(state);
  RngState parsed;
  ASSERT_TRUE(ParseRngState(line, &parsed));
  Rng restored(1);
  restored.RestoreState(parsed);

  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(HexDouble(restored.Gaussian()), HexDouble(rng.Gaussian()));
    EXPECT_EQ(restored.NextUint64(), rng.NextUint64());
  }
  RngState bad;
  EXPECT_FALSE(ParseRngState("not an rng state", &bad));
  EXPECT_FALSE(ParseRngState("", &bad));
}

TEST(SerializeTest, DoublesRoundTripBitExactly) {
  const std::vector<double> values = {
      0.0, -0.0, 1.0 / 3.0, 5e-324, -std::numeric_limits<double>::infinity(),
      std::nan("")};
  const std::string line = SerializeDoubles(values);
  std::vector<double> parsed;
  ASSERT_TRUE(ParseDoubles(line, &parsed));
  ASSERT_EQ(parsed.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(HexDouble(parsed[i]), HexDouble(values[i])) << i;
  }
  EXPECT_EQ(SerializeDoubles(parsed), line);

  std::vector<double> empty_parsed;
  ASSERT_TRUE(ParseDoubles(SerializeDoubles({}), &empty_parsed));
  EXPECT_TRUE(empty_parsed.empty());
  // Declared count must match the payload.
  EXPECT_FALSE(ParseDoubles("2 3ff0000000000000", &parsed));
}

// Same toy problem as obs_test/gp_test: seed "x + 0", revisions "Exp* + R"
// and "Exp* * R", target concept 2x + 1.
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

TEST(SerializeTest, DerivationLineIsExactFixpoint) {
  const t::Grammar grammar = ToyGrammar();
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    const t::DerivationPtr derivation =
        t::GrowRandom(grammar, /*alpha_index=*/0, /*target_size=*/6, rng);
    ASSERT_NE(derivation, nullptr);
    const std::string line = SerializeDerivation(*derivation);
    std::string error;
    const t::DerivationPtr parsed = ParseDerivationLine(line, &error);
    ASSERT_NE(parsed, nullptr) << error;
    EXPECT_TRUE(t::Validate(grammar, *parsed, &error)) << error;
    EXPECT_EQ(SerializeDerivation(*parsed), line);

    const auto original = t::ExpandToExpressions(grammar, *derivation);
    const auto reparsed = t::ExpandToExpressions(grammar, *parsed);
    ASSERT_EQ(original.size(), reparsed.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(SerializeExpr(*reparsed[i]), SerializeExpr(*original[i]));
    }
  }
}

// ----------------------------------------------------- snapshot format ----

TEST(SnapshotTest, EncodeDecodeRoundTrips) {
  Snapshot snapshot = MakeTestSnapshot("tag3p", 42);
  snapshot.AddSection("empty");
  const std::string bytes = EncodeSnapshot(snapshot);

  Snapshot decoded;
  const Status status = DecodeSnapshot(bytes, &decoded);
  ASSERT_TRUE(status.ok()) << status.message;
  EXPECT_EQ(decoded.driver, "tag3p");
  EXPECT_EQ(decoded.step, 42u);
  ASSERT_NE(decoded.FindSection("payload"), nullptr);
  EXPECT_EQ(decoded.FindSection("payload")->lines,
            snapshot.FindSection("payload")->lines);
  ASSERT_NE(decoded.FindSection("empty"), nullptr);
  EXPECT_TRUE(decoded.FindSection("empty")->lines.empty());
  EXPECT_EQ(decoded.FindSection("absent"), nullptr);
  EXPECT_EQ(EncodeSnapshot(decoded), bytes);
}

TEST(SnapshotTest, DecodeRejectsCorruptionAndTruncation) {
  const std::string bytes = EncodeSnapshot(MakeTestSnapshot("d", 7));
  Snapshot decoded;
  EXPECT_FALSE(DecodeSnapshot("", &decoded).ok());

  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x40;  // single bit-rotted payload byte
  EXPECT_FALSE(DecodeSnapshot(flipped, &decoded).ok());

  std::string truncated = bytes.substr(0, bytes.size() / 2);
  EXPECT_FALSE(DecodeSnapshot(truncated, &decoded).ok());

  // Stripping the crc seal entirely must also fail.
  const std::size_t crc_start = bytes.rfind("crc ");
  EXPECT_FALSE(DecodeSnapshot(bytes.substr(0, crc_start), &decoded).ok());
}

TEST(SnapshotStoreTest, SaveLoadRoundTripsNewestFirst) {
  const std::string dir = FreshDir("store_roundtrip");
  SnapshotStore store(dir, /*retain=*/4);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.Save(MakeTestSnapshot("d", 0), FastRetry()).ok());
  ASSERT_TRUE(store.Save(MakeTestSnapshot("d", 1), FastRetry()).ok());

  Snapshot loaded;
  int fallbacks = -1;
  ASSERT_TRUE(store.LoadLatest(&loaded, &fallbacks).ok());
  EXPECT_EQ(loaded.step, 1u);
  EXPECT_EQ(fallbacks, 0);

  // A fresh store instance reads the same chain back from disk.
  SnapshotStore reopened(dir);
  ASSERT_EQ(reopened.entries().size(), 2u);
  EXPECT_EQ(reopened.entries()[0].step, 0u);
  EXPECT_EQ(reopened.entries()[1].step, 1u);
}

TEST(SnapshotStoreTest, RetentionPrunesOldestSnapshots) {
  const std::string dir = FreshDir("store_retention");
  SnapshotStore store(dir, /*retain=*/3);
  for (std::uint64_t step = 0; step < 5; ++step) {
    ASSERT_TRUE(store.Save(MakeTestSnapshot("d", step), FastRetry()).ok());
  }
  ASSERT_EQ(store.entries().size(), 3u);
  EXPECT_EQ(store.entries().front().step, 2u);
  EXPECT_EQ(store.entries().back().step, 4u);

  // The pruned files are really gone: MANIFEST + 3 snapshots remain.
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 4u);
}

TEST(SnapshotStoreTest, ManifestChainAcceptsOnlyTheValidPrefix) {
  const std::string dir = FreshDir("store_chain");
  {
    SnapshotStore store(dir, 8);
    for (std::uint64_t step = 0; step < 3; ++step) {
      ASSERT_TRUE(store.Save(MakeTestSnapshot("d", step), FastRetry()).ok());
    }
  }
  // Tamper with the last manifest record (step field): its chain value no
  // longer verifies, so a fresh store must accept only the first two.
  const std::string manifest_path = dir + "/MANIFEST";
  std::string manifest = ReadFile(manifest_path);
  const std::size_t last_line = manifest.rfind("snap ");
  ASSERT_NE(last_line, std::string::npos);
  manifest[last_line + 7] = '9';  // "snap <seq> <step>..." -> bogus step
  std::ofstream(manifest_path, std::ios::binary) << manifest;

  SnapshotStore reopened(dir);
  ASSERT_EQ(reopened.entries().size(), 2u);
  Snapshot loaded;
  ASSERT_TRUE(reopened.LoadLatest(&loaded).ok());
  EXPECT_EQ(loaded.step, 1u);
}

TEST(SnapshotStoreTest, DropNewerThanRewindsTheChain) {
  const std::string dir = FreshDir("store_rewind");
  SnapshotStore store(dir, 16);
  for (std::uint64_t step = 0; step < 6; ++step) {
    ASSERT_TRUE(store.Save(MakeTestSnapshot("d", step), FastRetry()).ok());
  }
  ASSERT_TRUE(store.DropNewerThan(2).ok());
  ASSERT_EQ(store.entries().size(), 3u);
  EXPECT_EQ(store.entries().back().step, 2u);

  // The rewritten manifest chain is valid and the newer files are deleted.
  SnapshotStore reopened(dir, 16);
  ASSERT_EQ(reopened.entries().size(), 3u);
  Snapshot loaded;
  ASSERT_TRUE(reopened.LoadLatest(&loaded).ok());
  EXPECT_EQ(loaded.step, 2u);
  // Saving after a rewind continues the chain cleanly.
  ASSERT_TRUE(reopened.Save(MakeTestSnapshot("d", 3), FastRetry()).ok());
  SnapshotStore again(dir, 16);
  EXPECT_EQ(again.entries().size(), 4u);
}

TEST(SnapshotStoreTest, TornTmpFilesAreSweptOnOpen) {
  const std::string dir = FreshDir("store_tmp_sweep");
  std::ofstream(dir + "/snap-00000009.gmrck.tmp") << "torn half-write";
  SnapshotStore store(dir);
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(fs::exists(dir + "/snap-00000009.gmrck.tmp"));
}

// --------------------------------------------------------- checkpointer ----

TEST(CheckpointerTest, ShouldSnapshotFollowsCadence) {
  CheckpointOptions options = Options(FreshDir("cadence"));
  options.every_steps = 3;
  Checkpointer every3(options);
  EXPECT_TRUE(every3.ShouldSnapshot(0));
  EXPECT_FALSE(every3.ShouldSnapshot(1));
  EXPECT_TRUE(every3.ShouldSnapshot(3));

  options.every_steps = 0;  // 0 behaves as 1
  Checkpointer every0(options);
  EXPECT_TRUE(every0.ShouldSnapshot(0));
  EXPECT_TRUE(every0.ShouldSnapshot(1));
}

TEST(CheckpointerTest, MakeFingerprintSortsEntries) {
  const std::vector<std::string> lines =
      MakeFingerprint({{"seed", "5"}, {"alpha", "x"}, {"pop", "24"}});
  const std::vector<std::string> expected = {"alpha x", "pop 24", "seed 5"};
  EXPECT_EQ(lines, expected);
}

TEST(CheckpointerTest, ResumeForChecksDriverAndFingerprint) {
  const std::string dir = FreshDir("resume_for");
  const std::vector<std::string> fingerprint =
      MakeFingerprint({{"seed", "5"}});
  {
    Checkpointer writer(Options(dir));
    Snapshot snapshot = MakeTestSnapshot("tag3p", 3);
    snapshot.AddSection("fingerprint")->lines = fingerprint;
    ASSERT_TRUE(writer.Save(std::move(snapshot)));
  }
  obs::VectorSink events;
  Checkpointer reader(Options(dir), &events);
  EXPECT_EQ(reader.ResumeFor("gggp", fingerprint), nullptr);
  EXPECT_EQ(CountEvents(events, "ckpt", "driver_mismatch"), 1u);
  EXPECT_EQ(reader.ResumeFor("tag3p", MakeFingerprint({{"seed", "6"}})),
            nullptr);
  EXPECT_EQ(CountEvents(events, "ckpt", "fingerprint_mismatch"), 1u);

  const Snapshot* resumed = reader.ResumeFor("tag3p", fingerprint);
  ASSERT_NE(resumed, nullptr);
  EXPECT_EQ(resumed->step, 3u);
  // Idempotent on the repeated identical query: same answer, one event.
  EXPECT_EQ(reader.ResumeFor("tag3p", fingerprint), resumed);
  EXPECT_EQ(CountEvents(events, "ckpt", "resume"), 1u);
}

TEST(CheckpointerTest, MalformedTraceOffsetFailsTheLoad) {
  // A trace offset that is not a plain count ("bytes 12abc" is not byte
  // 12, "bytes -1" is not 2^64-1) fails the load and leaves both offsets
  // at 0, and so does a bad "seq" line.
  for (const char* bad : {"bytes 12abc", "bytes -1", "seq 3x"}) {
    const std::string dir = FreshDir("bad_trace_offset");
    {
      Checkpointer writer(Options(dir));
      Snapshot snapshot = MakeTestSnapshot("d", 4);
      snapshot.AddSection("trace")->lines = {"bytes 40", "seq 3", bad};
      ASSERT_TRUE(writer.Save(std::move(snapshot)));
    }
    obs::VectorSink events;
    Checkpointer reader(Options(dir), &events);
    EXPECT_EQ(reader.Load(), nullptr) << bad;
    EXPECT_EQ(reader.ResumeFor("d", {}), nullptr) << bad;
    EXPECT_EQ(CountEvents(events, "ckpt", "load_failed"), 1u) << bad;
    EXPECT_EQ(reader.resume_trace_bytes(), 0u) << bad;
    EXPECT_EQ(reader.resume_trace_sequence(), 0u) << bad;
  }
}

TEST(CheckpointerTest, ResumedTraceSinkLeavesNoGapAcrossTheKillPoint) {
  // Satellite contract: a trace interrupted after the checkpoint and then
  // resumed must be byte-identical to one written by an uninterrupted run —
  // no gap before the checkpoint, no duplicate after it.
  const std::string dir = FreshDir("trace_nogap");
  const std::string interrupted_path = dir + "/interrupted.jsonl";
  const std::string reference_path = dir + "/reference.jsonl";

  auto emit = [](obs::JsonlTraceSink* sink, int index) {
    obs::TraceEvent event("step");
    event.Field("index", static_cast<double>(index));
    sink->Emit(std::move(event));
  };

  // Reference: all five events in one uninterrupted sink.
  {
    obs::JsonlTraceSink sink(reference_path,
                             obs::JsonlTraceOptions::Deterministic());
    for (int i = 0; i < 5; ++i) emit(&sink, i);
  }

  // Interrupted: checkpoint after event 2, then two post-checkpoint events
  // that a crash would lose (or half-write); the resumed sink must discard
  // them and re-emit.
  {
    Checkpointer checkpointer(Options(dir + "/ck"));
    obs::JsonlTraceSink sink(interrupted_path,
                             obs::JsonlTraceOptions::Deterministic());
    checkpointer.AttachTraceSink(&sink);
    for (int i = 0; i < 3; ++i) emit(&sink, i);
    ASSERT_TRUE(checkpointer.Save(MakeTestSnapshot("d", 0)));
    for (int i = 3; i < 5; ++i) emit(&sink, i);
  }
  {
    Checkpointer checkpointer(Options(dir + "/ck"));
    ASSERT_NE(checkpointer.Load(), nullptr);
    EXPECT_GT(checkpointer.resume_trace_bytes(), 0u);
    EXPECT_EQ(checkpointer.resume_trace_sequence(), 3u);
    obs::JsonlTraceOptions options = obs::JsonlTraceOptions::Deterministic();
    options.resume = true;
    options.resume_bytes = checkpointer.resume_trace_bytes();
    options.resume_sequence = checkpointer.resume_trace_sequence();
    obs::JsonlTraceSink sink(interrupted_path, options);
    ASSERT_TRUE(sink.ok());
    for (int i = 3; i < 5; ++i) emit(&sink, i);
  }

  const std::string interrupted = ReadFile(interrupted_path);
  EXPECT_FALSE(interrupted.empty());
  EXPECT_EQ(interrupted, ReadFile(reference_path));
}

TEST(CheckpointerTest, UnwritableTraceFailsTheSave) {
  // A snapshot records the trace's durable offset, so a trace whose bytes
  // never reached the disk must not be recorded as durable: the save fails
  // like a failed snapshot write, writes nothing, and the run goes on.
  obs::JsonlTraceSink sink("/dev/full",
                           obs::JsonlTraceOptions::Deterministic());
  if (!sink.ok()) GTEST_SKIP() << "/dev/full cannot be opened";
  const std::string dir = FreshDir("trace_unwritable");
  obs::VectorSink events;
  Checkpointer checkpointer(Options(dir), &events);
  checkpointer.AttachTraceSink(&sink);
  for (int step = 0; step < 2; ++step) {
    obs::TraceEvent event("step");
    event.Field("index", step);
    sink.Emit(std::move(event));
    EXPECT_FALSE(checkpointer.Save(MakeTestSnapshot("d", step)));
  }
  EXPECT_EQ(checkpointer.saves_attempted(), 2u);
  EXPECT_EQ(checkpointer.saves_failed(), 2u);
  EXPECT_EQ(CountEvents(events, "ckpt", "save_error"), 2u);
  EXPECT_EQ(CountEvents(events, "ckpt", "save"), 0u);
  EXPECT_TRUE(checkpointer.store().entries().empty());

  // A trace on a device with nothing to sync (fsync reports EINVAL) takes
  // every write, so it does not fail the save.
  obs::JsonlTraceSink null_sink("/dev/null",
                                obs::JsonlTraceOptions::Deterministic());
  if (!null_sink.ok()) GTEST_SKIP() << "/dev/null cannot be opened";
  checkpointer.AttachTraceSink(&null_sink);
  null_sink.Emit(obs::TraceEvent("step"));
  EXPECT_TRUE(checkpointer.Save(MakeTestSnapshot("d", 2)));
  EXPECT_EQ(checkpointer.saves_failed(), 2u);
}

// ------------------------------------------------- fault-site matrix -------

class CkptFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { ClearFaults(); }
};

TEST_F(CkptFaultTest, WriteFaultFailsSaveGracefully) {
  const std::string dir = FreshDir("fault_write");
  obs::VectorSink events;
  Checkpointer checkpointer(Options(dir), &events);
  ASSERT_TRUE(checkpointer.Save(MakeTestSnapshot("d", 0)));

  ASSERT_TRUE(SetFaultSpec("ckpt_write:always"));
  EXPECT_FALSE(checkpointer.Save(MakeTestSnapshot("d", 1)));
  EXPECT_EQ(checkpointer.saves_attempted(), 2u);
  EXPECT_EQ(checkpointer.saves_failed(), 1u);
  EXPECT_EQ(CountEvents(events, "ckpt", "save_error"), 1u);
  ClearFaults();

  // The store degrades, never wedges: the next cadence point succeeds and
  // a reader sees the chain {0, 2} with the newest loadable.
  EXPECT_TRUE(checkpointer.Save(MakeTestSnapshot("d", 2)));
  Checkpointer reader(Options(dir));
  ASSERT_NE(reader.Load(), nullptr);
  EXPECT_EQ(reader.Load()->step, 2u);
}

TEST_F(CkptFaultTest, RetryMasksATransientWriteFault) {
  const std::string dir = FreshDir("fault_write_once");
  obs::VectorSink events;
  Checkpointer checkpointer(Options(dir), &events);
  ASSERT_TRUE(SetFaultSpec("ckpt_write:once"));
  EXPECT_TRUE(checkpointer.Save(MakeTestSnapshot("d", 0)));
  EXPECT_EQ(checkpointer.saves_failed(), 0u);
  EXPECT_EQ(CountEvents(events, "ckpt", "save_error"), 0u);
  EXPECT_EQ(CountEvents(events, "ckpt", "save"), 1u);
}

TEST_F(CkptFaultTest, FsyncFaultFailsSaveAndLeavesNoTmpFile) {
  const std::string dir = FreshDir("fault_fsync");
  obs::VectorSink events;
  Checkpointer checkpointer(Options(dir), &events);
  ASSERT_TRUE(SetFaultSpec("ckpt_fsync:always"));
  EXPECT_FALSE(checkpointer.Save(MakeTestSnapshot("d", 0)));
  EXPECT_EQ(checkpointer.saves_failed(), 1u);
  EXPECT_EQ(CountEvents(events, "ckpt", "save_error"), 1u);
  ClearFaults();

  // A non-durable write never leaves a half-written file behind.
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
  EXPECT_TRUE(checkpointer.Save(MakeTestSnapshot("d", 1)));
}

TEST_F(CkptFaultTest, CorruptSnapshotFallsBackToThePreviousOne) {
  const std::string dir = FreshDir("fault_corrupt");
  {
    Checkpointer writer(Options(dir));
    ASSERT_TRUE(writer.Save(MakeTestSnapshot("d", 0)));
    ASSERT_TRUE(SetFaultSpec("ckpt_corrupt:once"));
    // The save itself succeeds; the file is bit-rotted after the fact.
    ASSERT_TRUE(writer.Save(MakeTestSnapshot("d", 1)));
    ClearFaults();
  }
  obs::VectorSink events;
  Checkpointer reader(Options(dir), &events);
  const Snapshot* snapshot = reader.Load();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->step, 0u);  // newest (step 1) failed its CRC
  EXPECT_EQ(CountEvents(events, "ckpt", "load_fallback"), 1u);
}

TEST_F(CkptFaultTest, TornResumeReadFallsBackThenStartsFresh) {
  const std::string dir = FreshDir("fault_torn");
  {
    Checkpointer writer(Options(dir));
    ASSERT_TRUE(writer.Save(MakeTestSnapshot("d", 0)));
    ASSERT_TRUE(writer.Save(MakeTestSnapshot("d", 1)));
  }
  // One torn read: the newest snapshot is skipped, its predecessor loads.
  {
    ASSERT_TRUE(SetFaultSpec("resume_torn:once"));
    obs::VectorSink events;
    Checkpointer reader(Options(dir), &events);
    const Snapshot* snapshot = reader.Load();
    ASSERT_NE(snapshot, nullptr);
    EXPECT_EQ(snapshot->step, 0u);
    EXPECT_EQ(CountEvents(events, "ckpt", "load_fallback"), 1u);
    ClearFaults();
  }
  // Every read torn: Load degrades to "no snapshot" (the driver starts
  // fresh) instead of crashing the run.
  {
    ASSERT_TRUE(SetFaultSpec("resume_torn:always"));
    obs::VectorSink events;
    Checkpointer reader(Options(dir), &events);
    EXPECT_EQ(reader.Load(), nullptr);
    EXPECT_EQ(reader.ResumeFor("d", {}), nullptr);
    EXPECT_EQ(CountEvents(events, "ckpt", "load_failed"), 1u);
  }
}

// ------------------------------------------- resume bit-identity: TAG3P ----

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

gp::Tag3pConfig ToyTagConfig() {
  gp::Tag3pConfig config;
  config.population_size = 24;
  config.max_generations = 6;
  config.bounds = gp::SizeBounds{2, 12};
  config.local_search_steps = 2;
  config.elite_polish_steps = 5;
  config.sigma_rampdown_generations = 3;
  config.seed = 5;
  config.speedups.tree_caching = true;
  config.speedups.short_circuiting = true;
  config.speedups.num_threads = 1;
  return config;
}

void AppendEvalStatsDigest(const gp::EvalStats& stats, std::ostringstream* out) {
  // Deterministic counters only — wall/cpu/compile seconds are real time.
  *out << "evaluated " << stats.individuals_evaluated << " hits "
       << stats.cache_hits << " lookups " << stats.cache_lookups << " full "
       << stats.full_evaluations << " short " << stats.short_circuited
       << " rejects " << stats.static_rejects << " steps "
       << stats.time_steps_evaluated << "\n";
  for (std::size_t i = 0; i < kNumEvalOutcomes; ++i) {
    *out << "outcome " << i << " " << stats.outcomes[i] << "\n";
  }
}

std::string DigestTag3p(const gp::Tag3pResult& result) {
  std::ostringstream out;
  out << "best " << HexDouble(result.best.fitness) << "\n"
      << SerializeDoubles(result.best.parameters) << "\n";
  if (result.best.genotype != nullptr) {
    out << SerializeDerivation(*result.best.genotype) << "\n";
  }
  for (const gp::GenerationStats& g : result.history) {
    out << g.generation << " " << HexDouble(g.best_fitness) << " "
        << HexDouble(g.mean_fitness) << " " << HexDouble(g.best_size) << "\n";
  }
  AppendEvalStatsDigest(result.eval_stats, &out);
  return out.str();
}

/// Rewinds a finished checkpoint directory to a mid-run step, as if the
/// process had been killed there; returns the step resumed runs land on.
std::uint64_t RewindStoreToMiddle(const std::string& dir) {
  SnapshotStore store(dir, /*retain=*/64);
  EXPECT_GE(store.entries().size(), 3u);
  if (store.entries().size() < 3u) return 0;
  const std::uint64_t last = store.entries().back().step;
  const std::uint64_t mid =
      store.entries()[(store.entries().size() - 1) / 2].step;
  EXPECT_LT(mid, last);
  EXPECT_TRUE(store.DropNewerThan(mid).ok());
  return mid;
}

struct DriverRun {
  std::string trace;
  std::string digest;
  bool resumed = false;
  std::uint64_t resumed_step = 0;
};

/// One TAG3P segment against the toy problem: opens (or resumes) the trace
/// and checkpoint state in `dir`, runs to completion, and returns the final
/// trace bytes + result digest. `gate` turns the static gate on over the
/// toy's input range x in [0, 1].
DriverRun RunToyTag3p(const std::string& dir, bool gate = false) {
  const t::Grammar grammar = ToyGrammar();
  const ToyFitness fitness(60);
  const gp::Tag3pProblem problem{&grammar, &fitness, {}};

  DriverRun run;
  const std::string trace_path = dir + "/trace.jsonl";
  {
    Checkpointer checkpointer(Options(dir + "/ck"));
    if (const Snapshot* snapshot = checkpointer.Load()) {
      run.resumed = true;
      run.resumed_step = snapshot->step;
    }
    obs::JsonlTraceOptions options = obs::JsonlTraceOptions::Deterministic();
    options.resume = true;
    options.resume_bytes = checkpointer.resume_trace_bytes();
    options.resume_sequence = checkpointer.resume_trace_sequence();
    obs::JsonlTraceSink sink(trace_path, options);
    EXPECT_TRUE(sink.ok());
    checkpointer.AttachTraceSink(&sink);

    obs::RunContext context;
    context.sink = &sink;
    context.checkpointer = &checkpointer;
    gp::Tag3pConfig config = ToyTagConfig();
    if (gate) {
      config.speedups.static_gate.enabled = true;
      config.speedups.static_gate.domains.variables = {
          analysis::Interval{0.0, 1.0}};
    }
    run.digest = DigestTag3p(gp::RunTag3p(config, problem, context));
  }  // sink destructor drains before the file is read back
  run.trace = ReadFile(trace_path);
  return run;
}

TEST(ResumeBitIdentityTest, Tag3pContinuesByteIdentically) {
  const std::string dir = FreshDir("resume_tag3p");
  const DriverRun full = RunToyTag3p(dir);
  EXPECT_FALSE(full.resumed);
  ASSERT_FALSE(full.trace.empty());

  const std::uint64_t mid = RewindStoreToMiddle(dir + "/ck");
  const DriverRun resumed = RunToyTag3p(dir);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.resumed_step, mid);
  EXPECT_EQ(resumed.trace, full.trace);
  EXPECT_EQ(resumed.digest, full.digest);
}

TEST(ResumeBitIdentityTest, Tag3pWithGateContinuesByteIdentically) {
  // eval_batch reports verdict_cache_hits as a deterministic field, so the
  // gate's verdict cache must survive the resume as the tree cache does.
  const std::string dir = FreshDir("resume_tag3p_gate");
  const DriverRun full = RunToyTag3p(dir, /*gate=*/true);
  EXPECT_FALSE(full.resumed);
  ASSERT_TRUE(std::regex_search(full.trace,
                                std::regex("\"verdict_cache_hits\":[1-9]")));

  const std::uint64_t mid = RewindStoreToMiddle(dir + "/ck");
  const DriverRun resumed = RunToyTag3p(dir, /*gate=*/true);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.resumed_step, mid);
  EXPECT_EQ(resumed.trace, full.trace);
  EXPECT_EQ(resumed.digest, full.digest);
}

TEST(ResumeBitIdentityTest, EvalStatsSurviveResumeAndTimersAccumulate) {
  const std::string dir = FreshDir("resume_stats") + "/ck";
  const t::Grammar grammar = ToyGrammar();
  const ToyFitness fitness(60);
  const gp::Tag3pProblem problem{&grammar, &fitness, {}};

  auto run_segment = [&](std::map<int, gp::EvalStats>* per_generation) {
    Checkpointer checkpointer(Options(dir));
    obs::RunContext context;
    context.checkpointer = &checkpointer;
    gp::Tag3pEngine engine(problem, ToyTagConfig(), context);
    engine.set_generation_callback([&](const gp::GenerationStats& g) {
      (*per_generation)[g.generation] = engine.evaluator().stats();
    });
    return engine.Run();
  };

  std::map<int, gp::EvalStats> full_gens;
  const gp::Tag3pResult full = run_segment(&full_gens);
  const int mid = static_cast<int>(RewindStoreToMiddle(dir));
  std::map<int, gp::EvalStats> resumed_gens;
  const gp::Tag3pResult resumed = run_segment(&resumed_gens);

  // The resumed segment replays only the generations after the checkpoint.
  EXPECT_EQ(resumed_gens.count(mid), 0u);
  ASSERT_GT(resumed_gens.count(mid + 1), 0u);

  // Deterministic counters continue exactly where the first segment left
  // them: every post-resume generation matches the uninterrupted run.
  for (const auto& [generation, stats] : resumed_gens) {
    ASSERT_GT(full_gens.count(generation), 0u);
    std::ostringstream a;
    std::ostringstream b;
    AppendEvalStatsDigest(full_gens[generation], &a);
    AppendEvalStatsDigest(stats, &b);
    EXPECT_EQ(b.str(), a.str()) << "generation " << generation;
  }

  // Timers restore as a floor and accumulate: the first resumed generation
  // already carries at least the first segment's recorded wall/cpu time.
  const gp::EvalStats& at_checkpoint = full_gens[mid];
  const gp::EvalStats& first_resumed = resumed_gens[mid + 1];
  EXPECT_GT(at_checkpoint.wall_seconds, 0.0);
  EXPECT_GE(first_resumed.wall_seconds, at_checkpoint.wall_seconds);
  EXPECT_GE(first_resumed.cpu_seconds, at_checkpoint.cpu_seconds);
  EXPECT_GE(first_resumed.compile_seconds, at_checkpoint.compile_seconds);
  EXPECT_GE(resumed.eval_stats.wall_seconds, at_checkpoint.wall_seconds);

  std::ostringstream a;
  std::ostringstream b;
  AppendEvalStatsDigest(full.eval_stats, &a);
  AppendEvalStatsDigest(resumed.eval_stats, &b);
  EXPECT_EQ(b.str(), a.str());
  EXPECT_EQ(HexDouble(resumed.best.fitness), HexDouble(full.best.fitness));
}

TEST_F(CkptFaultTest, Tag3pSearchIsUnperturbedByPersistentWriteFaults) {
  // Checkpointing must never take a run down or change what it computes: a
  // run whose every snapshot write fails finishes with exactly the result
  // of a run that never checkpointed at all.
  const t::Grammar grammar = ToyGrammar();
  const ToyFitness fitness(60);
  const gp::Tag3pProblem problem{&grammar, &fitness, {}};
  const std::string baseline =
      DigestTag3p(gp::RunTag3p(ToyTagConfig(), problem));

  ASSERT_TRUE(SetFaultSpec("ckpt_write:always"));
  obs::VectorSink events;
  Checkpointer checkpointer(Options(FreshDir("fault_run")), &events);
  obs::RunContext context;
  context.checkpointer = &checkpointer;
  const std::string faulted =
      DigestTag3p(gp::RunTag3p(ToyTagConfig(), problem, context));
  ClearFaults();

  EXPECT_EQ(faulted, baseline);
  EXPECT_GT(checkpointer.saves_attempted(), 0u);
  EXPECT_EQ(checkpointer.saves_failed(), checkpointer.saves_attempted());
  EXPECT_EQ(CountEvents(events, "ckpt", "save_error"),
            checkpointer.saves_failed());
}

// -------------------------------------------- resume bit-identity: GGGP ----

std::string DigestGggp(const gggp::GggpResult& result) {
  std::ostringstream out;
  out << "best " << HexDouble(result.best.fitness) << "\n"
      << SerializeDoubles(result.best.parameters) << "\n";
  for (const auto& equation : result.best.equations) {
    out << SerializeExpr(*equation) << "\n";
  }
  out << SerializeDoubles(result.best_fitness_history) << "\n";
  AppendEvalStatsDigest(result.eval_stats, &out);
  return out.str();
}

DriverRun RunToyGggp(const std::string& dir,
                     const river::RiverDataset& dataset, bool tree_caching) {
  const river::RiverFitness fitness = river::RiverFitness::ForTraining(&dataset);
  const gggp::CfgGrammar grammar = gggp::RiverCfgGrammar();
  const gp::ParameterPriors priors = river::RiverParameterPriors();
  gggp::GggpProblem problem;
  problem.seed_equations = river::ManualProcess();
  problem.grammar = &grammar;
  problem.priors = &priors;
  problem.fitness = &fitness;

  gggp::GggpConfig config;
  config.population_size = 12;
  config.max_generations = 5;
  config.grow_depth = 3;
  config.seed = 9;
  config.speedups.short_circuiting = true;
  config.speedups.tree_caching = tree_caching;

  DriverRun run;
  const std::string trace_path = dir + "/trace.jsonl";
  {
    Checkpointer checkpointer(Options(dir + "/ck"));
    if (const Snapshot* snapshot = checkpointer.Load()) {
      run.resumed = true;
      run.resumed_step = snapshot->step;
    }
    obs::JsonlTraceOptions options = obs::JsonlTraceOptions::Deterministic();
    options.resume = true;
    options.resume_bytes = checkpointer.resume_trace_bytes();
    options.resume_sequence = checkpointer.resume_trace_sequence();
    obs::JsonlTraceSink sink(trace_path, options);
    EXPECT_TRUE(sink.ok());
    checkpointer.AttachTraceSink(&sink);

    obs::RunContext context;
    context.sink = &sink;
    context.checkpointer = &checkpointer;
    run.digest = DigestGggp(gggp::RunGggp(config, problem, context));
  }
  run.trace = ReadFile(trace_path);
  return run;
}

TEST(ResumeBitIdentityTest, GggpContinuesByteIdentically) {
  river::SyntheticConfig data_config;
  data_config.years = 2;
  data_config.train_years = 1;
  data_config.seed = 3;
  const river::RiverDataset dataset = river::GenerateNakdongLike(data_config);

  // With the tree cache on, the cache travels in the snapshot: a resumed
  // run that lost it would miss hits the uninterrupted run scored.
  for (const bool tree_caching : {false, true}) {
    SCOPED_TRACE(tree_caching ? "tree caching" : "no tree caching");
    const std::string dir =
        FreshDir(tree_caching ? "resume_gggp_tc" : "resume_gggp");
    const DriverRun full = RunToyGggp(dir, dataset, tree_caching);
    EXPECT_FALSE(full.resumed);
    ASSERT_FALSE(full.trace.empty());

    const std::uint64_t mid = RewindStoreToMiddle(dir + "/ck");
    const DriverRun resumed = RunToyGggp(dir, dataset, tree_caching);
    EXPECT_TRUE(resumed.resumed);
    EXPECT_EQ(resumed.resumed_step, mid);
    EXPECT_EQ(resumed.trace, full.trace);
    EXPECT_EQ(resumed.digest, full.digest);
  }
}

// -------------------------------- restore: malformed parameter vectors ----

/// Runs `run` — a checkpointed search over the river problem that returns
/// its result digest — to completion, rewinds its checkpoint directory to
/// step 1, and re-saves that snapshot with every population parameter
/// vector cut to 3 values: well formed, CRC-valid, fingerprint intact. The
/// resume must refuse it and start fresh, finishing at the uninterrupted
/// run's digest instead of breeding from the short vectors.
void ExpectShortParameterVectorsStartFresh(
    const std::string& name,
    const std::function<std::string(Checkpointer*)>& run) {
  const std::string dir = FreshDir(name);
  std::string full;
  {
    Checkpointer checkpointer(Options(dir));
    full = run(&checkpointer);
  }
  {
    SnapshotStore store(dir, /*retain=*/64);
    ASSERT_TRUE(store.DropNewerThan(1).ok());
    Snapshot snapshot;
    ASSERT_TRUE(store.LoadLatest(&snapshot).ok());
    ASSERT_EQ(snapshot.step, 1u);
    std::size_t cut = 0;
    for (Section& section : snapshot.sections) {
      if (section.name != "population") continue;
      for (std::string& line : section.lines) {
        std::vector<double> values;
        if (ParseDoubles(line, &values) && values.size() > 3) {
          values.resize(3);
          line = SerializeDoubles(values);
          ++cut;
        }
      }
    }
    ASSERT_GT(cut, 0u);
    ASSERT_TRUE(store.Save(snapshot).ok());
  }
  Checkpointer checkpointer(Options(dir));
  const Snapshot* loaded = checkpointer.Load();
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->step, 1u);
  EXPECT_EQ(run(&checkpointer), full);
}

TEST(RestoreValidationTest, ShortParameterVectorsStartBothDriversFresh) {
  river::SyntheticConfig data_config;
  data_config.years = 2;
  data_config.train_years = 1;
  data_config.seed = 3;
  const river::RiverDataset dataset = river::GenerateNakdongLike(data_config);
  const river::RiverFitness fitness =
      river::RiverFitness::ForTraining(&dataset);
  const gp::ParameterPriors priors = river::RiverParameterPriors();
  ASSERT_GT(priors.size(), 3u);

  const core::RiverPriorKnowledge knowledge = core::BuildRiverPriorKnowledge();
  ExpectShortParameterVectorsStartFresh(
      "short_params_tag3p", [&](Checkpointer* checkpointer) {
        core::GmrConfig config;
        config.tag3p.population_size = 12;
        config.tag3p.max_generations = 4;
        config.tag3p.local_search_steps = 1;
        config.tag3p.elite_polish_steps = 2;
        config.tag3p.seed = 5;
        obs::RunContext context;
        context.checkpointer = checkpointer;
        return DigestTag3p(
            core::RunGmr(config, core::GmrProblem{&dataset, &knowledge},
                         context)
                .search);
      });

  const gggp::CfgGrammar grammar = gggp::RiverCfgGrammar();
  const gggp::GggpProblem problem{river::ManualProcess(), &grammar, &priors,
                                  &fitness};
  ExpectShortParameterVectorsStartFresh(
      "short_params_gggp", [&](Checkpointer* checkpointer) {
        gggp::GggpConfig config;
        config.population_size = 12;
        config.max_generations = 4;
        config.grow_depth = 3;
        config.seed = 9;
        config.speedups.short_circuiting = true;
        obs::RunContext context;
        context.checkpointer = checkpointer;
        return DigestGggp(gggp::RunGggp(config, problem, context));
      });
}

// ------------------------------------- resume bit-identity: calibrators ----

/// Shifted sphere in 4 dimensions (same shape as calibrate_test).
struct SphereProblem {
  calibrate::BoxBounds bounds;
  std::vector<double> optimum = {0.7, 0.25, 13.0, -2.5};
  std::vector<double> initial = {-1.0, 0.9, 19.0, 4.0};

  SphereProblem() {
    bounds.lo = {-2.0, 0.0, 10.0, -5.0};
    bounds.hi = {2.0, 1.0, 20.0, 5.0};
  }

  calibrate::Objective MakeObjective() const {
    const std::vector<double> target = optimum;
    return [target](const std::vector<double>& x) {
      double sum = 0.0;
      for (std::size_t i = 0; i < x.size(); ++i) {
        const double d = x[i] - target[i];
        sum += d * d;
      }
      return sum;
    };
  }
};

std::string DigestCalibration(const calibrate::CalibrationResult& result) {
  std::ostringstream out;
  out << "best " << HexDouble(result.best_objective) << "\n"
      << SerializeDoubles(result.best_parameters) << "\n"
      << "evaluations " << result.evaluations << " failed "
      << result.failed_evaluations << "\n";
  return out.str();
}

DriverRun RunSphereCalibration(const calibrate::Calibrator& method,
                               const std::string& dir) {
  const SphereProblem sphere;
  calibrate::CalibrationConfig config;
  config.budget = 400;
  config.seed = 33;
  calibrate::CalibrationProblem problem;
  problem.objective = sphere.MakeObjective();
  problem.bounds = sphere.bounds;
  problem.initial = sphere.initial;

  DriverRun run;
  const std::string trace_path = dir + "/trace.jsonl";
  {
    Checkpointer checkpointer(Options(dir + "/ck"));
    if (const Snapshot* snapshot = checkpointer.Load()) {
      run.resumed = true;
      run.resumed_step = snapshot->step;
    }
    obs::JsonlTraceOptions options = obs::JsonlTraceOptions::Deterministic();
    options.resume = true;
    options.resume_bytes = checkpointer.resume_trace_bytes();
    options.resume_sequence = checkpointer.resume_trace_sequence();
    obs::JsonlTraceSink sink(trace_path, options);
    EXPECT_TRUE(sink.ok());
    checkpointer.AttachTraceSink(&sink);

    obs::RunContext context;
    context.sink = &sink;
    context.checkpointer = &checkpointer;
    run.digest =
        DigestCalibration(calibrate::Run(method, config, problem, context));
  }
  run.trace = ReadFile(trace_path);
  return run;
}

void ExpectCalibratorResumesBitIdentically(
    const calibrate::Calibrator& method, const std::string& dir_name) {
  const std::string dir = FreshDir(dir_name);
  const DriverRun full = RunSphereCalibration(method, dir);
  EXPECT_FALSE(full.resumed);
  ASSERT_FALSE(full.trace.empty());

  const std::uint64_t mid = RewindStoreToMiddle(dir + "/ck");
  const DriverRun resumed = RunSphereCalibration(method, dir);
  EXPECT_TRUE(resumed.resumed) << method.name();
  EXPECT_EQ(resumed.resumed_step, mid) << method.name();
  EXPECT_EQ(resumed.trace, full.trace) << method.name();
  EXPECT_EQ(resumed.digest, full.digest) << method.name();
}

TEST(ResumeBitIdentityTest, GaContinuesByteIdentically) {
  ExpectCalibratorResumesBitIdentically(calibrate::GaCalibrator{},
                                        "resume_ga");
}

TEST(ResumeBitIdentityTest, SceUaContinuesByteIdentically) {
  ExpectCalibratorResumesBitIdentically(calibrate::SceUaCalibrator{},
                                        "resume_sce_ua");
}

TEST(ResumeBitIdentityTest, DreamContinuesByteIdentically) {
  ExpectCalibratorResumesBitIdentically(calibrate::DreamCalibrator{},
                                        "resume_dream");
}

}  // namespace
}  // namespace gmr::ckpt
