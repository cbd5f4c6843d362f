#include "expr/batch_jit.h"

#include <dlfcn.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/fault_injection.h"

namespace gmr::expr {

std::string BatchSymbolName(std::uint64_t structure_hash) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "gmr_b_%016llx",
                static_cast<unsigned long long>(structure_hash));
  return buffer;
}

std::string GenerateBatchCSource(
    const std::vector<std::pair<std::uint64_t, const Expr*>>& entries) {
  std::ostringstream out;
  out << JitKernelPreamble();
  for (const auto& [hash, root] : entries) {
    // One exported symbol per unique structure.
    out << "double " << BatchSymbolName(hash)
        << "(const double* v, const double* p) {\n  return "
        << RenderCExpression(*root) << ";\n}\n";
  }
  return out.str();
}

BatchJitSession::BatchJitSession(JitCircuitBreaker* breaker)
    : breaker_(breaker != nullptr ? breaker : JitCircuitBreaker::Default()) {}

BatchJitSession::~BatchJitSession() {
  for (void* handle : handles_) dlclose(handle);
}

BatchJitSession::BatchFn BatchJitSession::Lookup(
    std::uint64_t structure_hash) const {
  BatchFn fn = nullptr;
  if (!cache_.Lookup(structure_hash, &fn)) return nullptr;
  return fn;
}

std::vector<BatchJitSession::BatchFn> BatchJitSession::CompileBatch(
    const std::vector<const Expr*>& roots) {
  std::lock_guard<std::mutex> lock(compile_mu_);
  std::vector<BatchFn> result(roots.size(), nullptr);
  requests_.fetch_add(roots.size(), std::memory_order_relaxed);

  // Resolve cache hits and collect the unique misses in first-seen order
  // (deterministic TU content for a deterministic population order).
  std::vector<std::pair<std::uint64_t, const Expr*>> misses;
  std::unordered_map<std::uint64_t, std::size_t> miss_index;
  std::vector<std::uint64_t> hashes(roots.size(), 0);
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < roots.size(); ++i) {
    hashes[i] = roots[i]->StructuralHash();
    if ((result[i] = Lookup(hashes[i])) != nullptr) {
      ++hits;
      continue;
    }
    if (miss_index.emplace(hashes[i], misses.size()).second) {
      misses.emplace_back(hashes[i], roots[i]);
    }
  }
  hits_.fetch_add(hits, std::memory_order_relaxed);
  unique_misses_.fetch_add(misses.size(), std::memory_order_relaxed);
  if (misses.empty()) return result;

  const auto fail = [this](const std::string& reason) {
    compile_failures_.fetch_add(1, std::memory_order_relaxed);
    breaker_->RecordFailure(reason);
  };
  if (FaultInjected(FaultPoint::kBatchCompile)) {
    fail("fault injection: batch_compile");
    return result;
  }
  if (!breaker_->allowed()) return result;
  if (!JitAvailable()) {
    fail("no C compiler found on this system");
    return result;
  }

  last_source_ = GenerateBatchCSource(misses);
  const std::string stem = JitScratchStem();
  const std::string source_path = stem + ".c";
  const std::string library_path = stem + ".so";
  {
    std::ofstream out(source_path);
    if (!out) {
      fail("cannot write " + source_path);
      return result;
    }
    out << last_source_;
  }

  // One compiler invocation for the whole generation. -ffp-contract=off
  // keeps every multiply and add rounded on its own, as in the VM.
  const std::string command =
      JitCompilerCommand() + " -O2 -ffp-contract=off -shared -fPIC -o " +
      library_path + " " + source_path + " -lm > /dev/null 2>&1";
  tu_compiles_.fetch_add(1, std::memory_order_relaxed);
  const int status = std::system(command.c_str());
  std::remove(source_path.c_str());
  if (status != 0) {
    fail("batch compiler failed: " + command);
    return result;
  }

  void* handle = dlopen(library_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  // Unlink eagerly (the mapping stays valid until dlclose): no .so is ever
  // stranded, even when a later dlsym fails or the run aborts.
  std::remove(library_path.c_str());
  if (handle == nullptr) {
    fail(std::string("dlopen: ") + dlerror());
    return result;
  }
  handles_.push_back(handle);

  bool all_resolved = true;
  for (const auto& [hash, root] : misses) {
    (void)root;
    const std::string symbol = BatchSymbolName(hash);
    auto fn = reinterpret_cast<BatchFn>(dlsym(handle, symbol.c_str()));
    if (fn == nullptr) {
      all_resolved = false;
      continue;
    }
    cache_.Insert(hash, fn);
    symbols_compiled_.fetch_add(1, std::memory_order_relaxed);
  }
  if (all_resolved) {
    breaker_->RecordSuccess();
  } else {
    fail("dlsym failed for a batch symbol");
  }
  for (std::size_t i = 0; i < roots.size(); ++i) {
    if (result[i] == nullptr) result[i] = Lookup(hashes[i]);
  }
  return result;
}

BatchJitSession::Stats BatchJitSession::stats() const {
  Stats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.unique_misses = unique_misses_.load(std::memory_order_relaxed);
  s.tu_compiles = tu_compiles_.load(std::memory_order_relaxed);
  s.symbols_compiled = symbols_compiled_.load(std::memory_order_relaxed);
  s.compile_failures = compile_failures_.load(std::memory_order_relaxed);
  return s;
}

BatchJitSession* BatchJitSession::Default() {
  static BatchJitSession* const session = new BatchJitSession();
  return session;
}

}  // namespace gmr::expr
