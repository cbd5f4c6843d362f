#include "ckpt/checkpoint.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "common/parse.h"

namespace gmr::ckpt {
namespace {

constexpr char kTraceSection[] = "trace";
constexpr char kFingerprintSection[] = "fingerprint";

}  // namespace

Checkpointer::Checkpointer(CheckpointOptions options,
                           obs::TelemetrySink* operational_sink)
    : options_(std::move(options)),
      store_(options_.dir, options_.retain),
      operational_(obs::ResolveSink(operational_sink)) {
  if (!store_.ok()) {
    EmitOperational("dir_error", 0, 0);
  }
}

const Snapshot* Checkpointer::Load() {
  if (load_attempted_) return load_succeeded_ ? &loaded_ : nullptr;
  load_attempted_ = true;
  if (!store_.ok() || store_.entries().empty()) return nullptr;
  int fallbacks = 0;
  const Status status = store_.LoadLatest(&loaded_, &fallbacks);
  if (fallbacks > 0) {
    EmitOperational(status.ok() ? "load_fallback" : "load_failed",
                    static_cast<double>(loaded_.step),
                    static_cast<double>(fallbacks));
  }
  if (!status.ok()) return nullptr;
  // Trace continuation offsets: "bytes <n>" and "seq <n>" lines. A
  // malformed offset fails the load rather than splicing the resumed trace
  // at a wrong byte.
  std::uint64_t bytes = 0;
  std::uint64_t seq = 0;
  if (const Section* trace = loaded_.FindSection(kTraceSection)) {
    for (const std::string& line : trace->lines) {
      const std::string_view text(line);
      bool ok = true;
      if (text.starts_with("bytes ")) {
        ok = ParseUnsigned(text.substr(6), &bytes);
      } else if (text.starts_with("seq ")) {
        ok = ParseUnsigned(text.substr(4), &seq);
      }
      if (!ok) {
        EmitOperational("load_failed", static_cast<double>(loaded_.step), 0);
        return nullptr;
      }
    }
  }
  resume_trace_bytes_ = bytes;
  resume_trace_seq_ = seq;
  load_succeeded_ = true;
  return &loaded_;
}

const Snapshot* Checkpointer::ResumeFor(
    const std::string& driver, const std::vector<std::string>& fingerprint) {
  if (resume_attempted_ && driver == resume_driver_ &&
      fingerprint == resume_fingerprint_) {
    return resume_result_;
  }
  resume_attempted_ = true;
  resume_driver_ = driver;
  resume_fingerprint_ = fingerprint;
  resume_result_ = nullptr;
  const Snapshot* snapshot = Load();
  if (snapshot == nullptr) return nullptr;
  if (snapshot->driver != driver) {
    EmitOperational("driver_mismatch", static_cast<double>(snapshot->step), 0);
    return nullptr;
  }
  const Section* section = snapshot->FindSection(kFingerprintSection);
  const std::vector<std::string> empty;
  const std::vector<std::string>& stored =
      section != nullptr ? section->lines : empty;
  if (stored != fingerprint) {
    EmitOperational("fingerprint_mismatch",
                    static_cast<double>(snapshot->step), 0);
    return nullptr;
  }
  EmitOperational("resume", static_cast<double>(snapshot->step), 0);
  resume_result_ = snapshot;
  return snapshot;
}

bool Checkpointer::Save(Snapshot snapshot) {
  ++saves_attempted_;
  if (!store_.ok()) {
    ++saves_failed_;
    return false;
  }
  // Durable-flush the run trace first so the recorded offset covers every
  // event emitted before this checkpoint: a resumed sink truncates to
  // exactly this point and re-emits everything after it. A trace that
  // cannot be made durable fails the save like a failed snapshot write.
  std::uint64_t bytes = 0;
  bool ok = trace_sink_ == nullptr || trace_sink_->DurableFlush(&bytes);
  if (ok && trace_sink_ != nullptr) {
    Section* trace = snapshot.AddSection(kTraceSection);
    trace->lines.push_back("bytes " + std::to_string(bytes));
    trace->lines.push_back("seq " +
                           std::to_string(trace_sink_->events_emitted()));
  }
  ok = ok && store_.Save(snapshot, options_.retry).ok();
  if (!ok) {
    ++saves_failed_;
    EmitOperational("save_error", static_cast<double>(snapshot.step), 0);
    return false;
  }
  EmitOperational("save", static_cast<double>(snapshot.step),
                  static_cast<double>(store_.entries().back().seq));
  return true;
}

void Checkpointer::EmitOperational(const char* action, double step,
                                   double detail) {
  if (!operational_->enabled()) return;
  obs::TraceEvent event("ckpt");
  event.Label("action", action).Field("step", step);
  if (detail != 0) event.Field("detail", detail);
  operational_->Emit(std::move(event));
}

std::vector<std::string> MakeFingerprint(
    const std::vector<std::pair<std::string, std::string>>& entries) {
  std::vector<std::string> lines;
  lines.reserve(entries.size());
  for (const auto& [key, value] : entries) {
    lines.push_back(key + " " + value);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

}  // namespace gmr::ckpt
