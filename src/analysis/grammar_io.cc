#include "analysis/grammar_io.h"

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "common/parse.h"

namespace gmr::analysis {
namespace {

/// Marker variable slots injected into the parser's symbol table for the
/// grammar pseudo-identifiers. expr::Variable requires slot >= 0, so the
/// markers sit far above any real variable slot (river uses 12).
constexpr int kFootMarkerSlot = 1 << 20;
constexpr int kFirstSlotMarker = kFootMarkerSlot + 1;

bool Fail(std::string* error, int line_number, const std::string& message) {
  if (error != nullptr) {
    *error = "line " + std::to_string(line_number) + ": " + message;
  }
  return false;
}

/// Converts a parsed expression into a TAG tree labeled `label`, turning
/// marker leaves into foot/slot nodes and counting the feet encountered.
tag::TagNodePtr ToTagNode(const expr::ExprPtr& e, const tag::Symbol& label,
                          const std::map<int, tag::Symbol>& slot_markers,
                          int* foot_count) {
  if (e->kind() == expr::NodeKind::kVariable) {
    if (e->slot() == kFootMarkerSlot) {
      ++*foot_count;
      return tag::FootNode(label);
    }
    const auto it = slot_markers.find(e->slot());
    if (it != slot_markers.end()) return tag::SlotNode(it->second);
  }
  if (e->children().empty()) return tag::LeafNode(e);
  std::vector<tag::TagNodePtr> children;
  children.reserve(e->children().size());
  for (const expr::ExprPtr& child : e->children()) {
    children.push_back(ToTagNode(child, label, slot_markers, foot_count));
  }
  return tag::OperatorNode(label, e->kind(), std::move(children));
}

}  // namespace

bool ParseGrammarSpec(std::istream& in, const expr::SymbolTable& symbols,
                      tag::Grammar* grammar, std::string* error) {
  expr::SymbolTable augmented = symbols;
  augmented.variables["FOOT"] = kFootMarkerSlot;
  std::map<int, tag::Symbol> slot_markers;
  std::map<tag::Symbol, tag::SlotSpec> slot_specs;
  int next_marker = kFirstSlotMarker;

  std::string line;
  int line_number = 0;
  bool header_seen = false;
  std::size_t trees = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line.find("gmr-grammar") != std::string::npos) header_seen = true;
      continue;
    }
    std::istringstream ss(line);
    std::string keyword;
    ss >> keyword;
    if (keyword == "slot") {
      std::string label;
      std::string lo_text;
      std::string hi_text;
      std::string extra;
      ss >> label >> lo_text >> hi_text >> extra;
      if (label.empty() || lo_text.empty() || hi_text.empty() ||
          !extra.empty()) {
        return Fail(error, line_number, "bad slot line: " + line);
      }
      tag::SlotSpec spec;
      if (!ParseDouble(lo_text, &spec.lo) || !ParseDouble(hi_text, &spec.hi)) {
        return Fail(error, line_number, "bad slot bound: " + line);
      }
      // Grammar::SetSlotSpec aborts on lo > hi or NaN; turn that into a
      // load error here. Non-finite bounds pass through for LintGrammar.
      if (!(spec.lo <= spec.hi)) {
        return Fail(error, line_number,
                    "slot " + label + " has lo > hi (or NaN bounds)");
      }
      if (augmented.variables.count(label) != 0 ||
          augmented.parameters.count(label) != 0) {
        return Fail(error, line_number,
                    "slot label " + label + " shadows an existing symbol");
      }
      augmented.variables[label] = next_marker;
      slot_markers[next_marker] = label;
      ++next_marker;
      slot_specs[label] = spec;
    } else if (keyword == "alpha" || keyword == "beta") {
      std::string name;
      std::string label;
      std::string colon;
      ss >> name >> label >> colon;
      if (name.empty() || label.empty() || colon != ":") {
        return Fail(error, line_number, "bad " + keyword + " line: " + line);
      }
      std::string text;
      std::getline(ss, text);
      const expr::ParseResult parsed = expr::Parse(text, augmented);
      if (!parsed.ok()) {
        return Fail(error, line_number, "bad expression: " + parsed.error);
      }
      int foot_count = 0;
      tag::TagNodePtr root =
          ToTagNode(parsed.expr, label, slot_markers, &foot_count);
      if (keyword == "alpha") {
        if (foot_count != 0) {
          return Fail(error, line_number,
                      "alpha tree " + name + " must not contain FOOT");
        }
        grammar->AddAlphaTree(tag::ElementaryTree(name, std::move(root)));
      } else {
        if (foot_count != 1) {
          return Fail(error, line_number,
                      "beta tree " + name + " must contain exactly one FOOT"
                      " (found " + std::to_string(foot_count) + ")");
        }
        grammar->AddBetaTree(tag::ElementaryTree(name, std::move(root)));
      }
      ++trees;
    } else {
      return Fail(error, line_number, "unknown keyword: " + keyword);
    }
  }
  if (!header_seen) {
    if (error != nullptr) *error = "missing gmr-grammar header";
    return false;
  }
  if (trees == 0) {
    if (error != nullptr) *error = "no trees in grammar spec";
    return false;
  }
  for (const auto& [label, spec] : slot_specs) {
    grammar->SetSlotSpec(label, spec);
  }
  return true;
}

bool LoadGrammarSpec(const std::string& path,
                     const expr::SymbolTable& symbols, tag::Grammar* grammar,
                     std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  return ParseGrammarSpec(in, symbols, grammar, error);
}

}  // namespace gmr::analysis
