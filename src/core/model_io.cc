#include "core/model_io.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "common/parse.h"
#include "expr/print.h"

namespace gmr::core {

bool SaveModel(const std::string& path, const SavedModel& model,
               const std::vector<std::string>& parameter_names) {
  GMR_CHECK_EQ(model.parameters.size(), parameter_names.size());
  std::ofstream out(path);
  if (!out) return false;
  out << "# gmr-model v1\n";
  for (const auto& eq : model.equations) {
    out << "equation " << expr::ToString(*eq) << '\n';
  }
  out.precision(17);
  for (std::size_t i = 0; i < model.parameters.size(); ++i) {
    out << "param " << parameter_names[i] << " = " << model.parameters[i]
        << '\n';
  }
  return static_cast<bool>(out);
}

bool LoadModel(const std::string& path, const expr::SymbolTable& symbols,
               SavedModel* model, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  model->equations.clear();
  model->declared_parameters.clear();

  // Parameter vector sized to the largest slot in the symbol table.
  int max_slot = -1;
  for (const auto& [name, slot] : symbols.parameters) {
    max_slot = std::max(max_slot, slot);
  }
  model->parameters.assign(static_cast<std::size_t>(max_slot + 1), 0.0);

  std::string line;
  bool header_seen = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line.find("gmr-model") != std::string::npos) header_seen = true;
      continue;
    }
    std::istringstream ss(line);
    std::string keyword;
    ss >> keyword;
    if (keyword == "equation") {
      std::string text;
      std::getline(ss, text);
      const expr::ParseResult result = expr::Parse(text, symbols);
      if (!result.ok()) {
        if (error != nullptr) *error = "bad equation: " + result.error;
        return false;
      }
      model->equations.push_back(result.expr);
    } else if (keyword == "param") {
      std::string name;
      std::string equals;
      std::string value_text;
      std::string extra;
      ss >> name >> equals >> value_text >> extra;
      if (equals != "=" || value_text.empty() || !extra.empty()) {
        if (error != nullptr) *error = "bad param line: " + line;
        return false;
      }
      const auto it = symbols.parameters.find(name);
      if (it == symbols.parameters.end()) {
        if (error != nullptr) *error = "unknown parameter: " + name;
        return false;
      }
      if (std::find(model->declared_parameters.begin(),
                    model->declared_parameters.end(),
                    name) != model->declared_parameters.end()) {
        if (error != nullptr) *error = "duplicate parameter: " + name;
        return false;
      }
      double value = 0.0;
      if (!ParseDouble(value_text, &value)) {
        if (error != nullptr) *error = "bad param value: " + line;
        return false;
      }
      model->parameters[static_cast<std::size_t>(it->second)] = value;
      model->declared_parameters.push_back(name);
    } else {
      if (error != nullptr) *error = "unknown keyword: " + keyword;
      return false;
    }
  }
  if (!header_seen) {
    if (error != nullptr) *error = "missing gmr-model header";
    return false;
  }
  if (model->equations.empty()) {
    if (error != nullptr) *error = "no equations in file";
    return false;
  }
  return true;
}

}  // namespace gmr::core
