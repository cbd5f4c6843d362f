#include "expr/parser.h"

#include <cctype>
#include <cstdlib>
#include <limits>
#include <vector>

namespace gmr::expr {
namespace {

struct Token {
  enum Kind { kNumber, kIdent, kOp, kLParen, kRParen, kComma, kEnd } kind;
  std::string text;
  double number = 0.0;
  std::size_t pos = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  /// Tokenizes the whole input; returns false and sets `error` on a bad
  /// character.
  bool Tokenize(std::vector<Token>* tokens, std::string* error) {
    std::size_t i = 0;
    while (i < text_.size()) {
      const char c = text_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') {
        char* end = nullptr;
        const double v = std::strtod(text_.c_str() + i, &end);
        if (end == text_.c_str() + i) {
          // A lone '.' is in the number alphabet but strtod consumes
          // nothing; without this check the loop would never advance.
          *error =
              "malformed number at position " + std::to_string(i);
          return false;
        }
        Token t{Token::kNumber, "", v, i};
        i = static_cast<std::size_t>(end - text_.c_str());
        tokens->push_back(t);
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        std::size_t j = i;
        while (j < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[j])) ||
                text_[j] == '_')) {
          ++j;
        }
        tokens->push_back({Token::kIdent, text_.substr(i, j - i), 0.0, i});
        i = j;
        continue;
      }
      switch (c) {
        case '+': case '-': case '*': case '/':
          tokens->push_back({Token::kOp, std::string(1, c), 0.0, i});
          break;
        case '(':
          tokens->push_back({Token::kLParen, "(", 0.0, i});
          break;
        case ')':
          tokens->push_back({Token::kRParen, ")", 0.0, i});
          break;
        case ',':
          tokens->push_back({Token::kComma, ",", 0.0, i});
          break;
        default:
          *error = "unexpected character '" + std::string(1, c) +
                   "' at position " + std::to_string(i);
          return false;
      }
      ++i;
    }
    tokens->push_back({Token::kEnd, "", 0.0, text_.size()});
    return true;
  }

 private:
  const std::string& text_;
};

class Parser {
 public:
  Parser(std::vector<Token> tokens, const SymbolTable& symbols)
      : tokens_(std::move(tokens)), symbols_(symbols) {}

  ParseResult Run() {
    ParseResult result;
    result.expr = ParseExpr();
    if (result.expr != nullptr && Peek().kind != Token::kEnd) {
      Fail("unexpected trailing input");
      result.expr = nullptr;
    }
    result.error = error_;
    return result;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  /// Consumes one token. The cursor never moves past the end token, so a
  /// truncated input keeps reading kEnd (and reports the input's length as
  /// its error position) instead of indexing past the vector.
  const Token& Next() {
    const Token& token = tokens_[pos_];
    if (token.kind != Token::kEnd) ++pos_;
    return token;
  }

  void Fail(const std::string& message) {
    if (error_.empty()) {
      error_ = message + " at position " + std::to_string(Peek().pos);
    }
  }

  ExprPtr ParseExpr() {
    ExprPtr lhs = ParseTerm();
    if (lhs == nullptr) return nullptr;
    while (Peek().kind == Token::kOp &&
           (Peek().text == "+" || Peek().text == "-")) {
      const std::string op = Next().text;
      ExprPtr rhs = ParseTerm();
      if (rhs == nullptr) return nullptr;
      lhs = op == "+" ? Add(lhs, rhs) : Sub(lhs, rhs);
    }
    return lhs;
  }

  ExprPtr ParseTerm() {
    ExprPtr lhs = ParseUnary();
    if (lhs == nullptr) return nullptr;
    while (Peek().kind == Token::kOp &&
           (Peek().text == "*" || Peek().text == "/")) {
      const std::string op = Next().text;
      ExprPtr rhs = ParseUnary();
      if (rhs == nullptr) return nullptr;
      lhs = op == "*" ? Mul(lhs, rhs) : Div(lhs, rhs);
    }
    return lhs;
  }

  ExprPtr ParseUnary() {
    if (Peek().kind == Token::kOp && Peek().text == "-") {
      Next();
      ExprPtr operand = ParseUnary();
      if (operand == nullptr) return nullptr;
      return Neg(operand);
    }
    return ParsePrimary();
  }

  ExprPtr ParsePrimary() {
    const Token& t = Next();
    switch (t.kind) {
      case Token::kNumber:
        return Constant(t.number);
      case Token::kLParen: {
        ExprPtr inner = ParseExpr();
        if (inner == nullptr) return nullptr;
        if (Next().kind != Token::kRParen) {
          Fail("expected ')'");
          return nullptr;
        }
        return inner;
      }
      case Token::kIdent: {
        if (Peek().kind == Token::kLParen) return ParseCall(t.text);
        return ResolveLeaf(t.text);
      }
      default:
        Fail("expected a number, identifier, or '('");
        return nullptr;
    }
  }

  ExprPtr ParseCall(const std::string& name) {
    Next();  // consume '('
    std::vector<ExprPtr> args;
    if (Peek().kind != Token::kRParen) {
      while (true) {
        ExprPtr arg = ParseExpr();
        if (arg == nullptr) return nullptr;
        args.push_back(std::move(arg));
        if (Peek().kind == Token::kComma) {
          Next();
          continue;
        }
        break;
      }
    }
    if (Next().kind != Token::kRParen) {
      Fail("expected ')' after call arguments");
      return nullptr;
    }
    if (name == "min" || name == "max") {
      if (args.size() != 2) {
        Fail(name + " takes exactly 2 arguments");
        return nullptr;
      }
      return name == "min" ? Min(args[0], args[1]) : Max(args[0], args[1]);
    }
    if (name == "log" || name == "exp") {
      if (args.size() != 1) {
        Fail(name + " takes exactly 1 argument");
        return nullptr;
      }
      return name == "log" ? Log(args[0]) : Exp(args[0]);
    }
    Fail("unknown function '" + name + "'");
    return nullptr;
  }

  ExprPtr ResolveLeaf(const std::string& name) {
    auto var = symbols_.variables.find(name);
    if (var != symbols_.variables.end()) {
      return Variable(var->second, name);
    }
    auto par = symbols_.parameters.find(name);
    if (par != symbols_.parameters.end()) {
      return Parameter(par->second, name);
    }
    // Reserved non-finite literals: the printer emits "inf"/"nan" for
    // constants produced by folding (e.g. 1e308 + 1e308), so the grammar
    // must accept them back or round-trip is not total. A symbol table
    // entry with either name wins, mirroring variable-over-parameter
    // shadowing.
    if (name == "inf") {
      return Constant(std::numeric_limits<double>::infinity());
    }
    if (name == "nan") {
      return Constant(std::numeric_limits<double>::quiet_NaN());
    }
    Fail("unknown identifier '" + name + "'");
    return nullptr;
  }

  std::vector<Token> tokens_;
  const SymbolTable& symbols_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

ParseResult Parse(const std::string& text, const SymbolTable& symbols) {
  std::vector<Token> tokens;
  std::string error;
  Lexer lexer(text);
  if (!lexer.Tokenize(&tokens, &error)) {
    ParseResult result;
    result.error = error;
    return result;
  }
  Parser parser(std::move(tokens), symbols);
  return parser.Run();
}

}  // namespace gmr::expr
