// gmr_lint: static analysis of saved model files (# gmr-model v1) and TAG
// grammar specs (# gmr-grammar v1).
//
//   gmr_lint [options] <file>...
//
//   --strict            exit non-zero on warnings, not just errors
//   --require-findings  exit 0 iff EVERY file produced at least one
//                       warning or error (for lint-corpus regression tests);
//                       exit 2 when some file came back clean
//   --builtin-grammar   additionally lint the built-in river TAG grammar
//   --no-notes          suppress note-level diagnostics
//   --preset=<name>     constituent registry model files are linted
//                       against: plankton2 (default, the legacy two-species
//                       problem) or transport1..transport5. The preset
//                       decides the variable layout, the per-constituent
//                       dimension table, the parameter boxes, and which
//                       output closure the inactive-parameter check uses.
//   --severity=<t>      reporting threshold: note | warn | error.
//                       Diagnostics below the threshold are suppressed and
//                       the exit code becomes severity-graded: 0 clean,
//                       1 warnings only, 2 errors (or load/usage errors).
//                       Without this flag the legacy scheme applies (0/1
//                       with --strict, 2 reserved for usage/load errors).
//
// Model files are linted over the bounded river domains (simulation clamp,
// physical driver ranges, Table III parameter boxes) and against the river
// dimension knowledge base: interval findings, units-mismatch findings,
// mass-balance direction findings, and inactive-parameter findings (live
// parameters provably outside the B_Phy output closure). Grammar files
// additionally get dimension-inconsistent-beta findings. Findings are
// node-addressed as <file>:eqN:<child-path>.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "analysis/activity.h"
#include "analysis/dataflow.h"
#include "analysis/grammar_io.h"
#include "analysis/grammar_lint.h"
#include "analysis/lint.h"
#include "analysis/sign.h"
#include "analysis/units.h"
#include "core/model_io.h"
#include "core/river_grammar.h"
#include "river/biology.h"
#include "river/constituents.h"
#include "river/domains.h"
#include "river/parameters.h"
#include "river/variables.h"

namespace {

struct Options {
  bool strict = false;
  bool require_findings = false;
  bool builtin_grammar = false;
  bool notes = true;
  /// Reporting threshold as a Severity int, or -1 for the legacy scheme.
  int severity = -1;
  /// Constituent registry model files are linted against.
  gmr::river::ConstituentSet constituents =
      gmr::river::ConstituentSet::LegacyPlankton();
  std::vector<std::string> files;
};

bool ResolvePreset(const char* name, gmr::river::ConstituentSet* set) {
  const std::string preset = name;
  if (preset == "plankton2") {
    *set = gmr::river::ConstituentSet::LegacyPlankton();
    return true;
  }
  for (int n = 1; n <= 5; ++n) {
    if (preset == "transport" + std::to_string(n)) {
      *set = gmr::river::ConstituentSet::Transport(n);
      return true;
    }
  }
  return false;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--strict") == 0) {
      options->strict = true;
    } else if (std::strcmp(arg, "--require-findings") == 0) {
      options->require_findings = true;
    } else if (std::strcmp(arg, "--builtin-grammar") == 0) {
      options->builtin_grammar = true;
    } else if (std::strcmp(arg, "--no-notes") == 0) {
      options->notes = false;
    } else if (std::strncmp(arg, "--preset=", 9) == 0) {
      if (!ResolvePreset(arg + 9, &options->constituents)) {
        std::fprintf(stderr,
                     "gmr_lint: --preset expects plankton2 or "
                     "transport1..transport5 (got %s)\n",
                     arg + 9);
        return false;
      }
    } else if (std::strncmp(arg, "--severity=", 11) == 0) {
      const char* level = arg + 11;
      if (std::strcmp(level, "note") == 0) {
        options->severity = static_cast<int>(gmr::analysis::Severity::kNote);
      } else if (std::strcmp(level, "warn") == 0) {
        options->severity =
            static_cast<int>(gmr::analysis::Severity::kWarning);
      } else if (std::strcmp(level, "error") == 0) {
        options->severity =
            static_cast<int>(gmr::analysis::Severity::kError);
      } else {
        std::fprintf(stderr,
                     "gmr_lint: --severity expects note, warn, or error "
                     "(got %s)\n",
                     level);
        return false;
      }
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "gmr_lint: unknown option %s\n", arg);
      return false;
    } else {
      options->files.emplace_back(arg);
    }
  }
  return !options->files.empty() || options->builtin_grammar;
}

/// First non-empty line decides the file kind.
enum class FileKind { kModel, kGrammar, kUnknown };

FileKind SniffKind(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.find("gmr-model") != std::string::npos) return FileKind::kModel;
    if (line.find("gmr-grammar") != std::string::npos) {
      return FileKind::kGrammar;
    }
    break;
  }
  return FileKind::kUnknown;
}

void Print(const std::string& path, const gmr::analysis::Diagnostic& d) {
  std::printf("%s:%s\n", path.c_str(),
              gmr::analysis::FormatDiagnostic(d).c_str());
}

struct FileOutcome {
  bool load_failed = false;
  std::size_t errors = 0;
  std::size_t warnings = 0;

  bool HasFindings() const { return load_failed || errors + warnings > 0; }
};

/// Prints a diagnostic list and folds its counts into `outcome`.
void Report(const std::string& path, const Options& options,
            const std::vector<gmr::analysis::Diagnostic>& diagnostics,
            FileOutcome* outcome) {
  for (const gmr::analysis::Diagnostic& d : diagnostics) {
    if (d.severity == gmr::analysis::Severity::kNote && !options.notes) {
      continue;
    }
    // Below the --severity threshold: fully suppressed (neither printed nor
    // counted toward the exit code).
    if (options.severity >= 0 &&
        static_cast<int>(d.severity) < options.severity) {
      continue;
    }
    Print(path, d);
    if (d.severity == gmr::analysis::Severity::kError) ++outcome->errors;
    if (d.severity == gmr::analysis::Severity::kWarning) ++outcome->warnings;
  }
}

FileOutcome LintModelFile(const std::string& path, const Options& options) {
  FileOutcome outcome;
  const gmr::river::ConstituentSet& constituents = options.constituents;
  const gmr::expr::SymbolTable symbols = gmr::river::SymbolsFor(constituents);
  const gmr::analysis::DomainEnv domains =
      gmr::river::LintDomainsFor(constituents);
  gmr::core::SavedModel model;
  std::string error;
  if (!gmr::core::LoadModel(path, symbols, &model, &error)) {
    std::printf("%s:-: error [load-failed] %s\n", path.c_str(),
                error.c_str());
    outcome.load_failed = true;
    return outcome;
  }
  gmr::analysis::LintOptions lint_options;
  lint_options.num_states = static_cast<int>(constituents.size());
  lint_options.variable_names = constituents.VariableNames();
  // Dead-parameter reporting covers exactly the parameters the file
  // declares; slots the file never mentions are not its business.
  lint_options.parameter_names.assign(model.parameters.size(), "");
  for (const std::string& name : model.declared_parameters) {
    const auto it = symbols.parameters.find(name);
    if (it != symbols.parameters.end() &&
        static_cast<std::size_t>(it->second) <
            lint_options.parameter_names.size()) {
      lint_options.parameter_names[static_cast<std::size_t>(it->second)] =
          name;
    }
  }
  lint_options.note_constant_foldable = options.notes;
  lint_options.note_dominated_branches = options.notes;
  const gmr::analysis::LintResult result =
      gmr::analysis::LintEquations(model.equations, domains, lint_options);
  Report(path, options, result.diagnostics, &outcome);

  // Dimensional consistency and mass-balance direction, per equation,
  // against the preset's per-constituent dimension table and the same
  // bounded domains the interval checks use. Both passes report by node
  // pointer (shared subtrees once); WalkAddresses recovers the
  // first-occurrence address for the <file>:eqN:<path> format.
  const gmr::analysis::UnitsEnv units_env =
      gmr::river::UnitsEnvFor(constituents);
  std::vector<gmr::analysis::Diagnostic> extra;
  for (std::size_t eq = 0; eq < model.equations.size(); ++eq) {
    const gmr::analysis::UnitsResult units =
        gmr::analysis::AnalyzeUnits(*model.equations[eq], units_env);
    const gmr::analysis::MassBalanceResult balance =
        gmr::analysis::CheckMassBalance(*model.equations[eq], domains);
    if (units.findings.empty() && balance.findings.empty()) continue;
    std::map<const gmr::expr::Expr*, std::vector<int>> addresses;
    gmr::analysis::WalkAddresses(
        *model.equations[eq],
        [&addresses](const gmr::expr::Expr& node,
                     const std::vector<int>& address) {
          addresses.emplace(&node, address);
        });
    auto attach = [&](const gmr::expr::Expr* node, const char* code,
                      const std::string& message) {
      gmr::analysis::Diagnostic d;
      d.severity = gmr::analysis::Severity::kWarning;
      d.code = code;
      d.equation = static_cast<int>(eq);
      const auto it = addresses.find(node);
      if (it != addresses.end()) d.address = it->second;
      d.message = message;
      extra.push_back(std::move(d));
    };
    for (const gmr::analysis::UnitsFinding& f : units.findings) {
      attach(f.node, f.code, f.message);
    }
    for (const gmr::analysis::SignFinding& f : balance.findings) {
      attach(f.node, f.code, f.message);
    }
  }

  // Declared parameters that are syntactically live yet provably outside
  // every observed constituent's output closure: calibration budget spent
  // on them is wasted (the activity oracle guarantees perturbing them
  // leaves rollouts bit-identical). A parameter driving any observed
  // output — sediment as well as nitrate under the five-species transport
  // registry — is active. Dead parameters are already reported by
  // LintEquations.
  std::vector<int> observed = constituents.ObservedConstituents();
  if (observed.empty()) observed.push_back(constituents.PrimaryObserved());
  std::string observed_names;
  gmr::analysis::Activity closure;
  bool closure_valid = false;
  for (const int output : observed) {
    if (static_cast<std::size_t>(output) >= model.equations.size()) continue;
    closure |= gmr::analysis::OutputClosureActivity(model.equations, output,
                                                    domains);
    if (!observed_names.empty()) observed_names += "/";
    observed_names += constituents.at(static_cast<std::size_t>(output)).name;
    closure_valid = true;
  }
  if (closure_valid) {
    for (std::size_t slot = 0; slot < lint_options.parameter_names.size();
         ++slot) {
      const std::string& name = lint_options.parameter_names[slot];
      if (name.empty() || slot >= 63) continue;
      const int slot_index = static_cast<int>(slot);
      if (std::find(result.live_parameters.begin(),
                    result.live_parameters.end(),
                    slot_index) == result.live_parameters.end()) {
        continue;
      }
      if ((closure.parameters & gmr::analysis::ActivityBit(slot_index)) !=
          0) {
        continue;
      }
      gmr::analysis::Diagnostic d;
      d.severity = gmr::analysis::Severity::kWarning;
      d.code = "inactive-parameter";
      d.message = "parameter " + name +
                  " is referenced but provably cannot affect the " +
                  observed_names +
                  " output trajectory; calibration can freeze it";
      extra.push_back(std::move(d));
    }
  }

  // Gradient-structural-zero: the activity of every equation over the same
  // lint domains, the pass that prunes the reverse sweep (grad/adjoint.h).
  // A syntactically live parameter outside every equation's activity
  // accumulates an adjoint of exactly 0.0 on every rollout — L-BFGS/Adam
  // and the TAG3P elite polish can never move it, so it should be frozen
  // or the model revised. Strictly sharper than inactive-parameter: the
  // activity pass also prunes x - x, self-division, and operands locked
  // inside the protected div/log bands by their domains.
  {
    gmr::analysis::Activity activity;
    const int num_parameters =
        static_cast<int>(lint_options.parameter_names.size());
    for (const gmr::expr::ExprPtr& equation : model.equations) {
      activity |= gmr::analysis::AnalyzeActivity(*equation, domains);
    }
    for (const int slot : result.live_parameters) {
      if (slot < 0 || slot >= num_parameters || slot >= 63) continue;
      const std::string& name =
          lint_options.parameter_names[static_cast<std::size_t>(slot)];
      if (name.empty()) continue;
      if ((activity.parameters & gmr::analysis::ActivityBit(slot)) != 0) {
        continue;
      }
      gmr::analysis::Diagnostic d;
      d.severity = gmr::analysis::Severity::kWarning;
      d.code = "zero-gradient";
      d.message =
          "parameter " + name +
          " has a structurally zero reverse-mode gradient over the "
          "declared domains; gradient-based calibration cannot move it";
      extra.push_back(std::move(d));
    }
  }
  Report(path, options, extra, &outcome);
  return outcome;
}

FileOutcome LintGrammarFile(const std::string& path, const Options& options) {
  FileOutcome outcome;
  gmr::tag::Grammar grammar;
  std::string error;
  if (!gmr::analysis::LoadGrammarSpec(path, gmr::river::RiverSymbols(),
                                      &grammar, &error)) {
    std::printf("%s:-: error [load-failed] %s\n", path.c_str(),
                error.c_str());
    outcome.load_failed = true;
    return outcome;
  }
  const gmr::analysis::GrammarLintResult result =
      gmr::analysis::LintGrammar(grammar);
  Report(path, options, result.diagnostics, &outcome);
  Report(path, options,
         gmr::analysis::AnalyzeGrammarDimensions(grammar,
                                                 gmr::river::RiverUnitsEnv())
             .diagnostics,
         &outcome);
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: gmr_lint [--strict] [--require-findings] "
                 "[--builtin-grammar] [--no-notes] "
                 "[--severity=note|warn|error] <file>...\n");
    return 2;
  }

  bool any_usage_error = false;
  bool any_findings = false;
  bool all_files_have_findings = true;
  std::size_t errors = 0;
  std::size_t warnings = 0;
  auto fold = [&](const FileOutcome& outcome) {
    if (outcome.HasFindings()) {
      any_findings = true;
    } else {
      all_files_have_findings = false;
    }
    errors += outcome.errors + (outcome.load_failed ? 1 : 0);
    warnings += outcome.warnings;
  };

  for (const std::string& path : options.files) {
    switch (SniffKind(path)) {
      case FileKind::kModel:
        fold(LintModelFile(path, options));
        break;
      case FileKind::kGrammar:
        fold(LintGrammarFile(path, options));
        break;
      case FileKind::kUnknown:
        std::fprintf(stderr,
                     "gmr_lint: %s: not a gmr-model or gmr-grammar file\n",
                     path.c_str());
        any_usage_error = true;
        break;
    }
  }

  if (options.builtin_grammar) {
    FileOutcome outcome;
    const gmr::core::RiverPriorKnowledge knowledge =
        gmr::core::BuildRiverPriorKnowledge();
    Report("<builtin-river-grammar>", options,
           gmr::analysis::LintGrammar(knowledge.grammar).diagnostics,
           &outcome);
    Report("<builtin-river-grammar>", options,
           gmr::analysis::AnalyzeGrammarDimensions(
               knowledge.grammar, gmr::river::RiverUnitsEnv())
               .diagnostics,
           &outcome);
    fold(outcome);
  }

  std::printf("gmr_lint: %zu error(s), %zu warning(s)\n", errors, warnings);
  if (any_usage_error) return 2;
  if (options.require_findings) return all_files_have_findings ? 0 : 2;
  if (options.severity >= 0) {
    // Severity-graded scheme: 2 errors, 1 warnings, 0 clean (diagnostics
    // below the threshold were suppressed in Report and count as clean).
    if (errors > 0) return 2;
    if (warnings > 0) return 1;
    return 0;
  }
  if (errors > 0) return 1;
  if (options.strict && warnings > 0) return 1;
  return 0;
}
