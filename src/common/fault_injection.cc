#include "common/fault_injection.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "common/parse.h"

namespace gmr {
namespace {

enum class Mode : std::uint8_t { kOff = 0, kAlways, kNever, kFirst, kAfter, kProb };

/// One armed fault point. The counter is atomic (queried from worker
/// threads); the rest is written only while arming.
struct Arm {
  Mode mode = Mode::kOff;
  std::uint64_t n = 0;      // kFirst / kAfter threshold
  double p = 0.0;           // kProb probability
  std::uint64_t seed = 0;   // kProb seed
  std::atomic<std::uint64_t> calls{0};
};

Arm g_arms[kNumFaultPoints];
std::atomic<bool> g_ready{false};  // env spec parsed (or overridden)
std::atomic<int> g_armed{0};       // points armed with a firing-capable mode
std::mutex g_mu;

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Resets every arm to kOff. Caller holds g_mu.
void ResetArmsLocked() {
  for (Arm& arm : g_arms) {
    arm.mode = Mode::kOff;
    arm.n = 0;
    arm.p = 0.0;
    arm.seed = 0;
    arm.calls.store(0, std::memory_order_relaxed);
  }
  g_armed.store(0, std::memory_order_release);
}

bool ParsePoint(const std::string& name, FaultPoint* point) {
  if (name == "derivative_nan") {
    *point = FaultPoint::kDerivativeNan;
  } else if (name == "pool_task") {
    *point = FaultPoint::kPoolTask;
  } else if (name == "batch_compile") {
    *point = FaultPoint::kBatchCompile;
  } else if (name == "ckpt_write") {
    *point = FaultPoint::kCkptWrite;
  } else if (name == "ckpt_fsync") {
    *point = FaultPoint::kCkptFsync;
  } else if (name == "ckpt_corrupt") {
    *point = FaultPoint::kCkptCorrupt;
  } else if (name == "resume_torn") {
    *point = FaultPoint::kResumeTorn;
  } else if (name == "tape_alloc") {
    *point = FaultPoint::kTapeAlloc;
  } else if (name == "adjoint_nan") {
    *point = FaultPoint::kAdjointNan;
  } else {
    return false;
  }
  return true;
}

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t end = text.find(sep, begin);
    if (end == std::string::npos) {
      parts.push_back(text.substr(begin));
      break;
    }
    parts.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return parts;
}

/// Parses one `point:mode[...]` entry into the global table. Caller holds
/// g_mu. Returns false with *error set on malformed input.
bool ParseEntryLocked(const std::string& entry, std::string* error) {
  const std::vector<std::string> parts = Split(entry, ':');
  FaultPoint point;
  if (parts.size() < 2 || !ParsePoint(parts[0], &point)) {
    if (error != nullptr) *error = "bad fault entry '" + entry + "'";
    return false;
  }
  Arm& arm = g_arms[static_cast<int>(point)];
  const std::string& mode = parts[1];
  if (mode == "always" && parts.size() == 2) {
    arm.mode = Mode::kAlways;
  } else if (mode == "never" && parts.size() == 2) {
    arm.mode = Mode::kNever;
  } else if (mode == "once" && parts.size() == 2) {
    arm.mode = Mode::kFirst;
    arm.n = 1;
  } else if ((mode == "first" || mode == "after") && parts.size() == 3 &&
             ParseUnsigned(parts[2], &arm.n)) {
    arm.mode = mode == "first" ? Mode::kFirst : Mode::kAfter;
  } else if (mode == "prob" && (parts.size() == 3 || parts.size() == 4)) {
    char* end = nullptr;
    arm.p = std::strtod(parts[2].c_str(), &end);
    if (end != parts[2].c_str() + parts[2].size() || arm.p < 0.0 ||
        arm.p > 1.0) {
      if (error != nullptr) *error = "bad probability in '" + entry + "'";
      return false;
    }
    arm.seed = 0;
    if (parts.size() == 4 && !ParseUnsigned(parts[3], &arm.seed)) {
      if (error != nullptr) *error = "bad seed in '" + entry + "'";
      return false;
    }
    arm.mode = Mode::kProb;
  } else {
    if (error != nullptr) *error = "bad fault mode in '" + entry + "'";
    return false;
  }
  arm.calls.store(0, std::memory_order_relaxed);
  return true;
}

bool ParseSpecLocked(const std::string& spec, std::string* error) {
  ResetArmsLocked();
  int armed = 0;
  for (const std::string& entry : Split(spec, ',')) {
    if (entry.empty()) continue;
    if (!ParseEntryLocked(entry, error)) {
      ResetArmsLocked();
      return false;
    }
  }
  for (const Arm& arm : g_arms) {
    if (arm.mode != Mode::kOff && arm.mode != Mode::kNever) ++armed;
  }
  g_armed.store(armed, std::memory_order_release);
  return true;
}

void EnsureInitialized() {
  if (g_ready.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_ready.load(std::memory_order_relaxed)) return;
  const char* env = std::getenv("GMR_FAULT");
  if (env != nullptr && env[0] != '\0') {
    std::string error;
    if (!ParseSpecLocked(env, &error)) {
      std::fprintf(stderr, "[gmr] ignoring malformed GMR_FAULT: %s\n",
                   error.c_str());
    }
  }
  g_ready.store(true, std::memory_order_release);
}

}  // namespace

const char* FaultPointName(FaultPoint point) {
  switch (point) {
    case FaultPoint::kDerivativeNan:
      return "derivative_nan";
    case FaultPoint::kPoolTask:
      return "pool_task";
    case FaultPoint::kBatchCompile:
      return "batch_compile";
    case FaultPoint::kCkptWrite:
      return "ckpt_write";
    case FaultPoint::kCkptFsync:
      return "ckpt_fsync";
    case FaultPoint::kCkptCorrupt:
      return "ckpt_corrupt";
    case FaultPoint::kResumeTorn:
      return "resume_torn";
    case FaultPoint::kTapeAlloc:
      return "tape_alloc";
    case FaultPoint::kAdjointNan:
      return "adjoint_nan";
  }
  return "unknown";
}

bool FaultInjected(FaultPoint point) {
  EnsureInitialized();
  if (g_armed.load(std::memory_order_acquire) == 0) return false;
  Arm& arm = g_arms[static_cast<int>(point)];
  switch (arm.mode) {
    case Mode::kOff:
    case Mode::kNever:
      return false;
    case Mode::kAlways:
      arm.calls.fetch_add(1, std::memory_order_relaxed);
      return true;
    case Mode::kFirst:
      return arm.calls.fetch_add(1, std::memory_order_relaxed) < arm.n;
    case Mode::kAfter:
      return arm.calls.fetch_add(1, std::memory_order_relaxed) >= arm.n;
    case Mode::kProb: {
      const std::uint64_t c =
          arm.calls.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t h = SplitMix64(arm.seed * 0x2545f4914f6cdd1dULL + c);
      const double u =
          static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
      return u < arm.p;
    }
  }
  return false;
}

bool SetFaultSpec(const std::string& spec, std::string* error) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_ready.store(true, std::memory_order_release);  // env no longer consulted
  return ParseSpecLocked(spec, error);
}

void ClearFaults() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_ready.store(true, std::memory_order_release);
  ResetArmsLocked();
}

bool AnyFaultArmed() {
  EnsureInitialized();
  return g_armed.load(std::memory_order_acquire) > 0;
}

}  // namespace gmr
