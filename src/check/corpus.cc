#include "check/corpus.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "analysis/grammar_io.h"
#include "common/check.h"
#include "common/parse.h"
#include "core/model_io.h"
#include "expr/print.h"

namespace gmr::check {
namespace {

/// Value of a "# key: value" header comment, or "" when absent.
std::string HeaderValue(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  const std::string prefix = "# " + key + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      std::string value = line.substr(prefix.size());
      const auto start = value.find_first_not_of(" \t");
      return start == std::string::npos ? "" : value.substr(start);
    }
    // Headers live before the first non-comment line.
    if (!line.empty() && line[0] != '#') break;
  }
  return "";
}

/// Reads the `# seed:` header strictly: a typo must not replay a different
/// case. Counts a missing or bad header as a replay error and returns false.
bool ReadSeed(const std::string& path, std::uint64_t* seed,
              ReplayResult* result) {
  const std::string text = HeaderValue(path, "seed");
  if (ParseUnsigned(text, seed)) return true;
  ++result->errors;
  result->messages.push_back(
      path + (text.empty() ? ": missing '# seed:' header"
                           : ": bad '# seed:' header '" + text + "'"));
  return false;
}

void ReplayModelFile(const std::string& path, const OracleContext& ctx,
                     ReplayResult* result) {
  const std::string property = HeaderValue(path, "property");
  const ExprOracle oracle = FindExprOracle(property);
  if (oracle == nullptr) {
    ++result->errors;
    result->messages.push_back(path + ": unknown or missing '# property:' (" +
                               property + ")");
    return;
  }
  ExprCase c;
  if (!ReadSeed(path, &c.seed, result)) return;
  core::SavedModel model;
  std::string error;
  if (!core::LoadModel(path, SymbolsOf(*ctx.config), &model, &error) ||
      model.equations.empty()) {
    ++result->errors;
    result->messages.push_back(path + ": " +
                               (error.empty() ? "no equations" : error));
    return;
  }
  c.tree = model.equations.front();
  c.parameters = model.parameters;
  c.parameters.resize(
      static_cast<std::size_t>(std::max(ctx.config->num_parameters, 0)), 0.0);
  ++result->files;
  const OracleResult verdict = oracle(c, ctx);
  if (!verdict.ok) {
    ++result->failures;
    result->messages.push_back(path + ": " + property +
                               " still fails: " + verdict.detail);
  }
}

void ReplayGrammarFile(const std::string& path, const OracleContext& ctx,
                       ThreadPool* pool, ReplayResult* result) {
  std::uint64_t seed = 0;
  if (!ReadSeed(path, &seed, result)) return;
  tag::Grammar grammar;
  std::string error;
  if (!analysis::LoadGrammarSpec(path, SymbolsOf(*ctx.config), &grammar,
                                 &error)) {
    ++result->errors;
    result->messages.push_back(path + ": " + error);
    return;
  }
  if (grammar.num_alpha_trees() == 0) {
    ++result->errors;
    result->messages.push_back(path + ": grammar has no alpha tree");
    return;
  }
  ++result->files;
  const OracleResult verdict = CheckDerivationDeterministic(
      grammar, /*alpha_index=*/0, /*count=*/8, /*target_size=*/6, seed, pool);
  if (!verdict.ok) {
    ++result->failures;
    result->messages.push_back(path + ": derivation still fails: " +
                               verdict.detail);
  }
}

}  // namespace

std::string WriteCounterexample(
    const std::string& dir, const Counterexample& counterexample,
    const std::vector<std::string>& parameter_names) {
  GMR_CHECK(counterexample.tree != nullptr);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + counterexample.property + "-" +
                           std::to_string(counterexample.seed) + ".gmr";
  std::ofstream out(path);
  if (!out) return "";
  out << "# gmr-model v1\n";
  out << "# property: " << counterexample.property << "\n";
  out << "# seed: " << counterexample.seed << "\n";
  if (!counterexample.detail.empty()) {
    out << "# detail: " << counterexample.detail << "\n";
  }
  out << "equation " << expr::ToString(*counterexample.tree) << "\n";
  char buffer[64];
  for (std::size_t slot = 0; slot < counterexample.parameters.size(); ++slot) {
    const double value = counterexample.parameters[slot];
    if (value == 0.0 || slot >= parameter_names.size()) continue;
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    out << "param " << parameter_names[slot] << " = " << buffer << "\n";
  }
  out.flush();
  return out ? path : "";
}

ReplayResult ReplayCorpus(const std::string& dir, const OracleContext& ctx,
                          ThreadPool* pool) {
  ReplayResult result;
  GMR_CHECK(ctx.config != nullptr);
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return result;  // Missing directory: nothing to replay.
  std::vector<std::string> models;
  std::vector<std::string> grammars;
  for (const auto& entry : it) {
    if (!entry.is_regular_file()) continue;
    const std::string path = entry.path().string();
    if (entry.path().extension() == ".gmr") models.push_back(path);
    if (entry.path().extension() == ".gmrg") grammars.push_back(path);
  }
  std::sort(models.begin(), models.end());
  std::sort(grammars.begin(), grammars.end());
  for (const std::string& path : models) {
    ReplayModelFile(path, ctx, &result);
  }
  for (const std::string& path : grammars) {
    ReplayGrammarFile(path, ctx, pool, &result);
  }
  return result;
}

}  // namespace gmr::check
