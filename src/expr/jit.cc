#include "expr/jit.h"

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <system_error>
#include <vector>

namespace gmr::expr {
namespace {

/// Preamble with the protected-operator kernels, kept textually in sync
/// with the semantics of eval.h.
const char kPreamble[] = R"(#include <math.h>
static double gmr_pdiv(double a, double b) {
  return fabs(b) < 1e-9 ? 1.0 : a / b;
}
static double gmr_plog(double a) {
  double m = fabs(a);
  return m < 1e-12 ? 0.0 : log(m);
}
static double gmr_pexp(double a) {
  if (a > 80.0) a = 80.0;
  if (a < -80.0) a = -80.0;
  return exp(a);
}
static double gmr_min(double a, double b) { return a < b ? a : b; }
static double gmr_max(double a, double b) { return a > b ? a : b; }
)";

void EmitNode(const Expr& node, std::ostringstream& out) {
  switch (node.kind()) {
    case NodeKind::kConstant: {
      const double v = node.value();
      // %.17g renders non-finite values as inf/nan, which are not C
      // literals; spell them through math.h instead.
      if (std::isnan(v)) {
        out << "(0.0/0.0)";
        return;
      }
      if (std::isinf(v)) {
        out << (v > 0 ? "HUGE_VAL" : "(-HUGE_VAL)");
        return;
      }
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out << buf;
      return;
    }
    case NodeKind::kParameter:
      out << "p[" << node.slot() << ']';
      return;
    case NodeKind::kVariable:
      out << "v[" << node.slot() << ']';
      return;
    case NodeKind::kAdd:
    case NodeKind::kSub:
    case NodeKind::kMul:
      out << '(';
      EmitNode(*node.children()[0], out);
      out << ' ' << KindName(node.kind()) << ' ';
      EmitNode(*node.children()[1], out);
      out << ')';
      return;
    case NodeKind::kDiv:
      out << "gmr_pdiv(";
      EmitNode(*node.children()[0], out);
      out << ", ";
      EmitNode(*node.children()[1], out);
      out << ')';
      return;
    case NodeKind::kMin:
    case NodeKind::kMax:
      out << (node.kind() == NodeKind::kMin ? "gmr_min(" : "gmr_max(");
      EmitNode(*node.children()[0], out);
      out << ", ";
      EmitNode(*node.children()[1], out);
      out << ')';
      return;
    case NodeKind::kNeg:
      // The space keeps "-" from fusing with a negative constant literal
      // into the C decrement operator ("--1" does not compile).
      out << "(- ";
      EmitNode(*node.children()[0], out);
      out << ')';
      return;
    case NodeKind::kLog:
      out << "gmr_plog(";
      EmitNode(*node.children()[0], out);
      out << ')';
      return;
    case NodeKind::kExp:
      out << "gmr_pexp(";
      EmitNode(*node.children()[0], out);
      out << ')';
      return;
  }
}

/// RAII owner of the process-wide scratch directory. Constructed lazily by
/// JitScratchDir(); the destructor (static-object teardown at exit) removes
/// whatever is left — normally nothing, since sources and shared objects
/// are unlinked eagerly, but a compile killed mid-flight can strand files.
///
/// Signal tolerance: SIGKILL (the checkpoint crash drill, a preempted
/// batch job) never runs the destructor, so the directory name embeds the
/// owning PID (`gmr_jit_p<pid>_XXXXXX`) and construction first sweeps any
/// sibling whose owner is no longer alive (kill(pid, 0) => ESRCH). A
/// killed run's scratch is thus reclaimed by the next run — typically the
/// resume of the very same job — instead of accreting in TMPDIR.
class ScratchDirOwner {
 public:
  ScratchDirOwner() {
    const char* tmpdir = std::getenv("TMPDIR");
    const std::string base = tmpdir != nullptr ? tmpdir : "/tmp";
    SweepStaleScratchDirs(base);
    std::string pattern =
        base + "/gmr_jit_p" + std::to_string(getpid()) + "_XXXXXX";
    std::vector<char> buffer(pattern.begin(), pattern.end());
    buffer.push_back('\0');
    if (mkdtemp(buffer.data()) != nullptr) {
      path_.assign(buffer.data());
    }
  }

  ~ScratchDirOwner() {
    if (path_.empty()) return;
    std::error_code ec;  // best effort; never throw during teardown
    std::filesystem::remove_all(path_, ec);
  }

  const std::string& path() const { return path_; }

 private:
  /// Removes `gmr_jit_p<pid>_*` directories whose owning process is gone.
  /// Best effort throughout: TMPDIR races and permission errors are
  /// ignored, and a live (or undeterminable) owner is left alone.
  static void SweepStaleScratchDirs(const std::string& base) {
    std::error_code ec;
    std::filesystem::directory_iterator it(base, ec);
    if (ec) return;
    for (const auto& entry : it) {
      const std::string name = entry.path().filename().string();
      constexpr char kPrefix[] = "gmr_jit_p";
      constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;
      if (name.compare(0, kPrefixLen, kPrefix) != 0) continue;
      char* end = nullptr;
      const long pid = std::strtol(name.c_str() + kPrefixLen, &end, 10);
      if (end == name.c_str() + kPrefixLen || *end != '_' || pid <= 0) {
        continue;
      }
      if (pid == static_cast<long>(getpid())) continue;
      if (kill(static_cast<pid_t>(pid), 0) == -1 && errno == ESRCH) {
        std::filesystem::remove_all(entry.path(), ec);
      }
    }
  }

  std::string path_;
};

}  // namespace

/// The compiler command, probed once. Empty when none works.
const std::string& JitCompilerCommand() {
  static const std::string* const command = [] {
    for (const char* candidate : {"cc", "gcc", "clang"}) {
      const std::string probe =
          std::string(candidate) + " --version > /dev/null 2>&1";
      if (std::system(probe.c_str()) == 0) {
        return new std::string(candidate);
      }
    }
    return new std::string();
  }();
  return *command;
}

const std::string& JitScratchDir() {
  static ScratchDirOwner owner;
  return owner.path();
}

std::string JitScratchStem() {
  static std::atomic<int> counter{0};
  const std::string& dir = JitScratchDir();
  std::ostringstream stem;
  if (dir.empty()) {
    const char* tmpdir = std::getenv("TMPDIR");
    stem << (tmpdir != nullptr ? tmpdir : "/tmp") << "/gmr_jit_" << getpid();
  } else {
    stem << dir << "/m";
  }
  stem << '_' << counter.fetch_add(1);
  return stem.str();
}

const char* JitKernelPreamble() { return kPreamble; }

std::string RenderCExpression(const Expr& root) {
  std::ostringstream out;
  EmitNode(root, out);
  return out.str();
}

bool JitAvailable() { return !JitCompilerCommand().empty(); }

void JitCircuitBreaker::RecordFailure(const std::string& reason) {
  const int failures =
      consecutive_failures_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (failures < threshold_) return;
  // exchange() makes exactly one caller the opener, so the disable line is
  // logged once even when lanes race past the threshold together.
  if (!open_.exchange(true, std::memory_order_acq_rel)) {
    disable_logs_.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr,
                 "[gmr] JIT disabled for the rest of this run after %d "
                 "consecutive compile failures (last: %s); falling back to "
                 "the bytecode VM\n",
                 failures, reason.c_str());
  }
}

JitCircuitBreaker* JitCircuitBreaker::Default() {
  static JitCircuitBreaker* const breaker = new JitCircuitBreaker();
  return breaker;
}

}  // namespace gmr::expr
