#ifndef GMR_OBS_TELEMETRY_H_
#define GMR_OBS_TELEMETRY_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

/// Run telemetry (DESIGN.md §4f): structured trace events emitted by the
/// search drivers at deterministic coordinator points (generation ends,
/// batch barriers, calibrator iterations) into a TelemetrySink. The default
/// NullSink makes instrumentation free-when-off: every emission site guards
/// with `sink->enabled()`, a non-virtual-call-free false for the null sink.

namespace gmr::obs {

/// One trace event. Payload entries are split by determinism class:
///   - fields/labels   deterministic under kFrozenFrontier — a pure function
///                     of (config, seed), independent of thread count;
///   - timings         wall/cpu measurements, never reproducible;
///   - env_fields/env_labels
///                     machine environment (hostname, git, thread count).
/// JsonlTraceSink can suppress the last two classes so traces byte-compare
/// across machines and thread counts (the determinism contract).
struct TraceEvent {
  explicit TraceEvent(std::string event_type) : type(std::move(event_type)) {}

  std::string type;
  std::vector<std::pair<std::string, double>> fields;
  std::vector<std::pair<std::string, std::string>> labels;
  std::vector<std::pair<std::string, double>> timings;
  std::vector<std::pair<std::string, double>> env_fields;
  std::vector<std::pair<std::string, std::string>> env_labels;

  TraceEvent& Field(std::string key, double value) {
    fields.emplace_back(std::move(key), value);
    return *this;
  }
  TraceEvent& Label(std::string key, std::string value) {
    labels.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  TraceEvent& Timing(std::string key, double seconds) {
    timings.emplace_back(std::move(key), seconds);
    return *this;
  }
  TraceEvent& Env(std::string key, double value) {
    env_fields.emplace_back(std::move(key), value);
    return *this;
  }
  TraceEvent& EnvLabel(std::string key, std::string value) {
    env_labels.emplace_back(std::move(key), std::move(value));
    return *this;
  }
};

/// Consumer of trace events. Emit order defines the trace order: callers
/// emit only from the run coordinator (never from worker lanes), which is
/// what makes traces deterministic regardless of thread count.
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;

  /// Hot-path guard: when false, callers skip building the event entirely.
  virtual bool enabled() const = 0;

  virtual void Emit(TraceEvent event) = 0;

  /// Blocks until buffered events are durably written (no-op for sinks
  /// without a buffer).
  virtual void Flush() {}
};

/// The default sink: drops everything. `enabled()` is false so emission
/// sites never even construct their events — the hot path stays lock-free
/// and allocation-free.
class NullSink final : public TelemetrySink {
 public:
  bool enabled() const override { return false; }
  void Emit(TraceEvent /*event*/) override {}
};

/// Process-wide NullSink, so contexts can always carry a non-null sink.
TelemetrySink* NullTelemetrySink();

/// `sink` when non-null, the shared NullSink otherwise.
inline TelemetrySink* ResolveSink(TelemetrySink* sink) {
  return sink != nullptr ? sink : NullTelemetrySink();
}

/// In-memory sink for tests and programmatic consumers.
class VectorSink final : public TelemetrySink {
 public:
  bool enabled() const override { return true; }
  void Emit(TraceEvent event) override {
    events_.push_back(std::move(event));
  }
  const std::vector<TraceEvent>& events() const { return events_; }

 private:
  std::vector<TraceEvent> events_;
};

struct JsonlTraceOptions {
  /// Include wall/cpu timing entries (never byte-reproducible).
  bool include_timings = true;
  /// Include hostname / git / wall clock / thread-count entries.
  bool include_environment = true;

  /// Preset for byte-comparable traces: timings and environment suppressed.
  static JsonlTraceOptions Deterministic() {
    JsonlTraceOptions options;
    options.include_timings = false;
    options.include_environment = false;
    return options;
  }

  /// Resume mode: instead of truncating the trace file, reopen it, discard
  /// everything past `resume_bytes` (events emitted after the checkpoint
  /// that is being resumed from — they will be re-emitted by the resumed
  /// run), and continue sequence numbering at `resume_sequence`. With both
  /// at their defaults and resume=true, an empty/new file behaves like a
  /// fresh sink.
  bool resume = false;
  std::uint64_t resume_bytes = 0;
  std::uint64_t resume_sequence = 0;
};

/// JSONL sink: one JSON object per line, in emit order. Emit() serializes
/// and writes on the calling thread, into the stdio buffer of the file;
/// emits are coordinator-only, and the drivers Flush() at every generation
/// barrier. Sequence numbers are assigned at Emit, so the written order is
/// exactly the emit order.
class JsonlTraceSink final : public TelemetrySink {
 public:
  explicit JsonlTraceSink(std::string path, JsonlTraceOptions options = {});
  ~JsonlTraceSink() override;

  JsonlTraceSink(const JsonlTraceSink&) = delete;
  JsonlTraceSink& operator=(const JsonlTraceSink&) = delete;

  bool enabled() const override { return true; }
  void Emit(TraceEvent event) override;
  void Flush() override;

  /// Flush() plus fsync: on success every emitted event is durably on
  /// disk (survives SIGKILL / power loss) and `*bytes` is the durable byte
  /// offset of the file end — the value a checkpoint records so a resumed
  /// sink can truncate back to exactly this point. False when any write,
  /// flush or sync of the file failed since it was opened (a failed write
  /// stays failed), so the trace cannot be trusted up to that offset. A
  /// sink whose file never opened has nothing to make durable: true, 0.
  bool DurableFlush(std::uint64_t* bytes);

  /// False when the trace file could not be opened (events are dropped).
  bool ok() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }
  std::uint64_t events_emitted() const { return sequence_; }

 private:
  const std::string path_;
  const JsonlTraceOptions options_;
  std::FILE* file_ = nullptr;
  std::uint64_t sequence_ = 0;  // emits are coordinator-only
};

/// Serializes an event to one JSON line (no trailing newline). Field order
/// is fixed (type, seq, fields, labels, timings, environment) and doubles
/// are formatted reproducibly, so identical event streams serialize to
/// identical bytes.
std::string SerializeEvent(const TraceEvent& event, std::uint64_t sequence,
                           const JsonlTraceOptions& options);

/// Reproducible JSON number formatting: integers print without a decimal
/// point, everything else as shortest-round-trip-ish %.17g.
std::string FormatJsonNumber(double value);

/// Appends `value` JSON-escaped (quotes included) to `out`.
void AppendJsonString(std::string* out, const std::string& value);

}  // namespace gmr::obs

#endif  // GMR_OBS_TELEMETRY_H_
