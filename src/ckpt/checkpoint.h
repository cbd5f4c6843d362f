#ifndef GMR_CKPT_CHECKPOINT_H_
#define GMR_CKPT_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/snapshot.h"
#include "common/retry.h"
#include "obs/telemetry.h"

/// The driver-facing checkpoint service (DESIGN.md §4i).
///
/// A Checkpointer is handed to a run through `obs::RunContext::checkpointer`.
/// Drivers call `ResumeFor(driver, fingerprint)` once before initialization
/// (restoring state from the returned snapshot when non-null) and
/// `Save(snapshot)` at their batch barrier whenever `ShouldSnapshot(step)`.
///
/// Failure policy — checkpointing must never take a run down:
///   - a failed Save (disk fault, after bounded retry/backoff) emits a
///     `ckpt` operational event and returns false; the run continues and
///     the next cadence point tries again;
///   - a corrupt/truncated newest snapshot falls back to the previous valid
///     one (SnapshotStore walks the chain), with the skip count reported;
///   - when every snapshot is corrupt, or the fingerprint does not match
///     (different seed/config reusing a stale directory), ResumeFor returns
///     null and the driver starts fresh.
///
/// Operational events go only to the Checkpointer's own sink, never to the
/// run's trace sink: the run trace must stay byte-identical between
/// interrupted and uninterrupted runs, and resume/fallback events by
/// definition only occur in one of them.
namespace gmr::ckpt {

struct CheckpointOptions {
  /// Snapshot directory (created if missing).
  std::string dir;
  /// Snapshot every N steps (generations / iterations). 0 behaves as 1.
  std::uint64_t every_steps = 1;
  /// Snapshots retained on disk (older ones pruned).
  int retain = 3;
  /// Transient-I/O retry policy for snapshot and manifest writes.
  RetryOptions retry;
};

class Checkpointer {
 public:
  /// `operational_sink` receives ckpt lifecycle events (save/resume/
  /// fallback/error); null means no reporting. Not owned.
  explicit Checkpointer(CheckpointOptions options,
                        obs::TelemetrySink* operational_sink = nullptr);

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  /// False when the snapshot directory could not be created; Save becomes
  /// a no-op that reports one error event.
  bool ok() const { return store_.ok(); }

  /// Loads (once, cached) the newest snapshot that validates, walking the
  /// chain past corrupt entries. Null when the store is empty or nothing
  /// validates. Called by the run owner before constructing a resumed
  /// trace sink, and internally by ResumeFor.
  const Snapshot* Load();

  /// Trace continuation offsets recorded in the loaded snapshot (0 when
  /// there is no snapshot or it carries no trace section). Feed these into
  /// JsonlTraceOptions::resume_bytes / resume_sequence.
  std::uint64_t resume_trace_bytes() const { return resume_trace_bytes_; }
  std::uint64_t resume_trace_sequence() const { return resume_trace_seq_; }

  /// Attaches the run's trace sink: every Save then durably flushes it and
  /// records its byte/sequence offsets in a `trace` section. Not owned.
  void AttachTraceSink(obs::JsonlTraceSink* sink) { trace_sink_ = sink; }

  /// The loaded snapshot when it matches this driver and config
  /// fingerprint (exact line-for-line match of the `fingerprint` section);
  /// null otherwise — the driver then starts fresh. Mismatches emit an
  /// operational event, so silently ignoring a stale directory is visible.
  /// Idempotent for a repeated identical query (the run owner may probe the
  /// resume decision before the driver restores): the cached answer is
  /// returned and events are emitted only once.
  const Snapshot* ResumeFor(const std::string& driver,
                            const std::vector<std::string>& fingerprint);

  /// True when `step` is on the snapshot cadence.
  bool ShouldSnapshot(std::uint64_t step) const {
    const std::uint64_t every =
        options_.every_steps == 0 ? 1 : options_.every_steps;
    return step % every == 0;
  }

  /// Durably writes the snapshot (adding the `trace` section when a trace
  /// sink is attached). False on failure — reported, never fatal. A trace
  /// sink that cannot be made durable fails the save the same way, and no
  /// snapshot is written.
  bool Save(Snapshot snapshot);

  /// Saves attempted / failed (for tests and telemetry).
  std::uint64_t saves_attempted() const { return saves_attempted_; }
  std::uint64_t saves_failed() const { return saves_failed_; }

  SnapshotStore& store() { return store_; }
  const CheckpointOptions& options() const { return options_; }

 private:
  void EmitOperational(const char* action, double step, double detail);

  CheckpointOptions options_;
  SnapshotStore store_;
  obs::TelemetrySink* operational_;
  obs::JsonlTraceSink* trace_sink_ = nullptr;

  bool load_attempted_ = false;
  bool load_succeeded_ = false;
  bool resume_attempted_ = false;
  std::string resume_driver_;
  std::vector<std::string> resume_fingerprint_;
  const Snapshot* resume_result_ = nullptr;
  Snapshot loaded_;
  std::uint64_t resume_trace_bytes_ = 0;
  std::uint64_t resume_trace_seq_ = 0;
  std::uint64_t saves_attempted_ = 0;
  std::uint64_t saves_failed_ = 0;
};

/// Builds the standard config-fingerprint section contents: sorted
/// `key value` lines. Drivers include seed, population/chain sizes, and
/// anything else that must match for a resume to be meaningful.
std::vector<std::string> MakeFingerprint(
    const std::vector<std::pair<std::string, std::string>>& entries);

}  // namespace gmr::ckpt

#endif  // GMR_CKPT_CHECKPOINT_H_
