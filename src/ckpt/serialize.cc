#include "ckpt/serialize.h"

#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/parse.h"

namespace gmr::ckpt {
namespace {

bool IsPlainNameChar(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Token-stream cursor for the recursive-descent S-expression parsers.
struct Cursor {
  const std::vector<std::string>* tokens;
  std::size_t pos = 0;

  bool Done() const { return pos >= tokens->size(); }
  const std::string& Peek() const { return (*tokens)[pos]; }
  const std::string& Next() { return (*tokens)[pos++]; }
  bool Eat(const char* literal) {
    if (Done() || Peek() != literal) return false;
    ++pos;
    return true;
  }
};

expr::ExprPtr ParseExprNode(Cursor* cur, std::string* error);

expr::ExprPtr Fail(std::string* error, const std::string& message) {
  if (error != nullptr && error->empty()) *error = message;
  return nullptr;
}

expr::ExprPtr ParseExprNode(Cursor* cur, std::string* error) {
  if (!cur->Eat("(")) return Fail(error, "expected '('");
  if (cur->Done()) return Fail(error, "truncated expression");
  const std::string head = cur->Next();
  expr::ExprPtr result;
  if (head == "c") {
    double value;
    if (cur->Done() || !ParseHexDouble(cur->Next(), &value)) {
      return Fail(error, "bad constant");
    }
    result = expr::Constant(value);
  } else if (head == "p" || head == "v") {
    int slot;
    if (cur->Done() || !ParseUnsigned(cur->Next(), &slot)) {
      return Fail(error, "bad slot");
    }
    if (cur->Done()) return Fail(error, "missing name");
    const std::string name = UnescapeToken(cur->Next());
    result = head == "p" ? expr::Parameter(slot, name)
                         : expr::Variable(slot, name);
  } else {
    expr::NodeKind kind;
    int arity = 2;
    if (head == "+") {
      kind = expr::NodeKind::kAdd;
    } else if (head == "-") {
      kind = expr::NodeKind::kSub;
    } else if (head == "*") {
      kind = expr::NodeKind::kMul;
    } else if (head == "/") {
      kind = expr::NodeKind::kDiv;
    } else if (head == "min") {
      kind = expr::NodeKind::kMin;
    } else if (head == "max") {
      kind = expr::NodeKind::kMax;
    } else if (head == "neg") {
      kind = expr::NodeKind::kNeg;
      arity = 1;
    } else if (head == "log") {
      kind = expr::NodeKind::kLog;
      arity = 1;
    } else if (head == "exp") {
      kind = expr::NodeKind::kExp;
      arity = 1;
    } else {
      return Fail(error, "unknown operator '" + head + "'");
    }
    expr::ExprPtr a = ParseExprNode(cur, error);
    if (a == nullptr) return nullptr;
    if (arity == 1) {
      result = expr::MakeUnary(kind, std::move(a));
    } else {
      expr::ExprPtr b = ParseExprNode(cur, error);
      if (b == nullptr) return nullptr;
      result = expr::MakeBinary(kind, std::move(a), std::move(b));
    }
  }
  if (!cur->Eat(")")) return Fail(error, "expected ')'");
  return result;
}

void AppendExpr(const expr::Expr& node, std::string* out) {
  out->push_back('(');
  switch (node.kind()) {
    case expr::NodeKind::kConstant:
      *out += "c ";
      *out += HexDouble(node.value());
      break;
    case expr::NodeKind::kParameter:
    case expr::NodeKind::kVariable:
      out->push_back(node.kind() == expr::NodeKind::kParameter ? 'p' : 'v');
      out->push_back(' ');
      *out += std::to_string(node.slot());
      out->push_back(' ');
      *out += EscapeToken(node.name());
      break;
    case expr::NodeKind::kAdd:
    case expr::NodeKind::kSub:
    case expr::NodeKind::kMul:
    case expr::NodeKind::kDiv:
    case expr::NodeKind::kMin:
    case expr::NodeKind::kMax:
    case expr::NodeKind::kNeg:
    case expr::NodeKind::kLog:
    case expr::NodeKind::kExp: {
      const char* op = "?";
      switch (node.kind()) {
        case expr::NodeKind::kAdd: op = "+"; break;
        case expr::NodeKind::kSub: op = "-"; break;
        case expr::NodeKind::kMul: op = "*"; break;
        case expr::NodeKind::kDiv: op = "/"; break;
        case expr::NodeKind::kMin: op = "min"; break;
        case expr::NodeKind::kMax: op = "max"; break;
        case expr::NodeKind::kNeg: op = "neg"; break;
        case expr::NodeKind::kLog: op = "log"; break;
        case expr::NodeKind::kExp: op = "exp"; break;
        default: break;
      }
      *out += op;
      for (const expr::ExprPtr& child : node.children()) {
        out->push_back(' ');
        AppendExpr(*child, out);
      }
      break;
    }
  }
  out->push_back(')');
}

void AppendDerivation(const tag::DerivationNode& node, std::string* out) {
  *out += "(d ";
  *out += std::to_string(node.tree_index);
  *out += " (";
  for (std::size_t i = 0; i < node.lexemes.size(); ++i) {
    if (i > 0) out->push_back(' ');
    *out += HexDouble(node.lexemes[i]);
  }
  *out += ") (";
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) out->push_back(' ');
    out->push_back('(');
    *out += std::to_string(node.children[i].address_index);
    out->push_back(' ');
    AppendDerivation(*node.children[i].node, out);
    out->push_back(')');
  }
  *out += "))";
}

tag::DerivationPtr ParseDerivationNode(Cursor* cur, std::string* error) {
  auto fail = [error](const std::string& message) -> tag::DerivationPtr {
    if (error != nullptr && error->empty()) *error = message;
    return nullptr;
  };
  if (!cur->Eat("(") || !cur->Eat("d")) return fail("expected '(d'");
  auto node = std::make_unique<tag::DerivationNode>();
  if (cur->Done() || !ParseUnsigned(cur->Next(), &node->tree_index)) {
    return fail("bad tree index");
  }
  if (!cur->Eat("(")) return fail("expected lexeme list");
  while (!cur->Done() && cur->Peek() != ")") {
    double lexeme;
    if (!ParseHexDouble(cur->Next(), &lexeme)) return fail("bad lexeme");
    node->lexemes.push_back(lexeme);
  }
  if (!cur->Eat(")")) return fail("unterminated lexeme list");
  if (!cur->Eat("(")) return fail("expected child list");
  while (!cur->Done() && cur->Peek() != ")") {
    if (!cur->Eat("(")) return fail("expected '(' in child list");
    tag::DerivationNode::AdjunctionChild child;
    if (cur->Done() || !ParseUnsigned(cur->Next(), &child.address_index)) {
      return fail("bad adjunction address");
    }
    child.node = ParseDerivationNode(cur, error);
    if (child.node == nullptr) return nullptr;
    if (!cur->Eat(")")) return fail("unterminated child");
    node->children.push_back(std::move(child));
  }
  if (!cur->Eat(")")) return fail("unterminated child list");
  if (!cur->Eat(")")) return fail("expected ')'");
  return node;
}

}  // namespace

std::string HexDouble(double value) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value), "double must be 64-bit");
  std::memcpy(&bits, &value, sizeof(bits));
  return HexUint64(bits);
}

bool ParseHexDouble(const std::string& token, double* value) {
  std::uint64_t bits;
  if (!ParseHexUint64(token, &bits)) return false;
  std::memcpy(value, &bits, sizeof(bits));
  return true;
}

std::string HexUint64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

bool ParseHexUint64(const std::string& token, std::uint64_t* value) {
  if (token.size() != 16) return false;
  std::uint64_t bits = 0;
  for (const char c : token) {
    const int digit = HexValue(c);
    if (digit < 0) return false;
    bits = (bits << 4) | static_cast<std::uint64_t>(digit);
  }
  *value = bits;
  return true;
}

std::string EscapeToken(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    if (IsPlainNameChar(c)) {
      out.push_back(c);
    } else {
      char buffer[4];
      std::snprintf(buffer, sizeof(buffer), "%%%02x",
                    static_cast<unsigned char>(c));
      out += buffer;
    }
  }
  // An empty name still needs a token to hold its place.
  if (out.empty()) out = "%";
  return out;
}

std::string UnescapeToken(const std::string& token) {
  if (token == "%") return "";
  std::string out;
  out.reserve(token.size());
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (token[i] == '%' && i + 2 < token.size()) {
      const int hi = HexValue(token[i + 1]);
      const int lo = HexValue(token[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
        continue;
      }
    }
    out.push_back(token[i]);
  }
  return out;
}

std::string SerializeExpr(const expr::Expr& root) {
  std::string out;
  AppendExpr(root, &out);
  return out;
}

expr::ExprPtr ParseExprLine(const std::string& line, std::string* error) {
  const std::vector<std::string> tokens = TokenizeSExpr(line);
  Cursor cur{&tokens};
  expr::ExprPtr result = ParseExprNode(&cur, error);
  if (result != nullptr && !cur.Done()) {
    if (error != nullptr) *error = "trailing tokens after expression";
    return nullptr;
  }
  return result;
}

std::string SerializeDerivation(const tag::DerivationNode& root) {
  std::string out;
  AppendDerivation(root, &out);
  return out;
}

tag::DerivationPtr ParseDerivationLine(const std::string& line,
                                       std::string* error) {
  const std::vector<std::string> tokens = TokenizeSExpr(line);
  Cursor cur{&tokens};
  tag::DerivationPtr result = ParseDerivationNode(&cur, error);
  if (result != nullptr && !cur.Done()) {
    if (error != nullptr) *error = "trailing tokens after derivation";
    return nullptr;
  }
  return result;
}

std::string SerializeRngState(const RngState& state) {
  std::string out;
  for (int i = 0; i < 4; ++i) {
    out += HexUint64(state.s[i]);
    out.push_back(' ');
  }
  out += HexDouble(state.cached_gaussian);
  out.push_back(' ');
  out.push_back(state.has_cached_gaussian ? '1' : '0');
  return out;
}

bool ParseRngState(const std::string& line, RngState* state) {
  const std::vector<std::string> tokens = TokenizeSExpr(line);
  if (tokens.size() != 6) return false;
  for (int i = 0; i < 4; ++i) {
    if (!ParseHexUint64(tokens[i], &state->s[i])) return false;
  }
  if (!ParseHexDouble(tokens[4], &state->cached_gaussian)) return false;
  if (tokens[5] != "0" && tokens[5] != "1") return false;
  state->has_cached_gaussian = tokens[5] == "1";
  return true;
}

std::string SerializeDoubles(const std::vector<double>& values) {
  std::string out = std::to_string(values.size());
  for (const double value : values) {
    out.push_back(' ');
    out += HexDouble(value);
  }
  return out;
}

bool ParseDoubles(const std::string& line, std::vector<double>* values) {
  const std::vector<std::string> tokens = TokenizeSExpr(line);
  if (tokens.empty()) return false;
  std::size_t n = 0;
  if (!ParseUnsigned(tokens[0], &n) || tokens.size() - 1 != n) return false;
  values->clear();
  values->reserve(n);
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    double value;
    if (!ParseHexDouble(tokens[i], &value)) return false;
    values->push_back(value);
  }
  return true;
}

std::vector<std::string> TokenizeSExpr(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  for (const char c : line) {
    if (c == '(' || c == ')') {
      if (!current.empty()) {
        tokens.push_back(std::move(current));
        current.clear();
      }
      tokens.emplace_back(1, c);
    } else if (c == ' ' || c == '\t') {
      if (!current.empty()) {
        tokens.push_back(std::move(current));
        current.clear();
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

}  // namespace gmr::ckpt
