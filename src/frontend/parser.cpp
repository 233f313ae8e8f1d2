#include "frontend/parser.hpp"

#include <map>
#include <vector>

#include "frontend/lexer.hpp"

namespace csfma {

std::string element_name(const std::string& array, int index, bool is_array) {
  if (!is_array) return array;
  std::string name = array;
  name.append(1, '[').append(std::to_string(index)).append(1, ']');
  return name;
}

namespace {

enum class SymKind { Input, Output, Var };

struct Symbol {
  SymKind kind;
  bool is_array = false;
  int size = 1;
  std::vector<int> def;  // node id per element, -1 if unassigned
};

class Parser {
 public:
  explicit Parser(std::vector<Token> toks) : toks_(std::move(toks)) {}

  KernelInfo parse() {
    expect(Tok::KwKernel);
    info_.name = expect(Tok::Ident).text;
    expect(Tok::LBrace);
    while (at(Tok::KwInput) || at(Tok::KwOutput) || at(Tok::KwVar)) {
      parse_decl();
    }
    while (!at(Tok::RBrace)) parse_assignment();
    expect(Tok::RBrace);
    expect(Tok::End);
    finalize_outputs();
    info_.graph.validate();
    return std::move(info_);
  }

 private:
  const Token& cur() const { return toks_[pos_]; }
  bool at(Tok k) const { return cur().kind == k; }
  const Token& expect(Tok k) {
    CSFMA_CHECK_MSG(at(k), "line " << cur().line << ": expected "
                                   << to_string(k) << ", found "
                                   << to_string(cur().kind));
    return toks_[pos_++];
  }
  bool accept(Tok k) {
    if (!at(k)) return false;
    ++pos_;
    return true;
  }

  void parse_decl() {
    SymKind kind = SymKind::Var;
    if (accept(Tok::KwInput)) kind = SymKind::Input;
    else if (accept(Tok::KwOutput)) kind = SymKind::Output;
    else expect(Tok::KwVar);
    expect(Tok::KwDouble);
    const Token& name = expect(Tok::Ident);
    CSFMA_CHECK_MSG(syms_.count(name.text) == 0,
                    "line " << name.line << ": redeclaration of " << name.text);
    Symbol s;
    s.kind = kind;
    if (accept(Tok::LBracket)) {
      const Token& n = expect(Tok::Number);
      CSFMA_CHECK_MSG(n.number >= 1 && n.number == (int)n.number,
                      "line " << n.line << ": bad array size");
      s.is_array = true;
      s.size = (int)n.number;
      expect(Tok::RBracket);
    }
    s.def.assign((size_t)s.size, -1);
    expect(Tok::Semicolon);
    syms_.emplace(name.text, std::move(s));
  }

  /// Resolve name[index] to {symbol, element}.
  std::pair<Symbol*, int> parse_lvalue_ref() {
    const Token& name = expect(Tok::Ident);
    auto it = syms_.find(name.text);
    CSFMA_CHECK_MSG(it != syms_.end(),
                    "line " << name.line << ": undeclared " << name.text);
    Symbol& s = it->second;
    int index = 0;
    if (s.is_array) {
      expect(Tok::LBracket);
      const Token& n = expect(Tok::Number);
      index = (int)n.number;
      CSFMA_CHECK_MSG(n.number == index && index >= 0 && index < s.size,
                      "line " << n.line << ": index out of range for "
                              << name.text);
      expect(Tok::RBracket);
    }
    last_ref_name_ = &name.text;
    return {&s, index};
  }

  int read_element(Symbol& s, const std::string& name, int index, int line) {
    if (s.def[(size_t)index] >= 0) return s.def[(size_t)index];
    CSFMA_CHECK_MSG(s.kind == SymKind::Input,
                    "line " << line << ": " << name << "[" << index
                            << "] read before assignment");
    int id = info_.graph.add_input(element_name(name, index, s.is_array));
    s.def[(size_t)index] = id;
    return id;
  }

  void parse_assignment() {
    int line = cur().line;
    auto [sym, index] = parse_lvalue_ref();
    const std::string& name = *last_ref_name_;
    CSFMA_CHECK_MSG(sym->kind != SymKind::Input,
                    "line " << line << ": cannot assign to input " << name);
    CSFMA_CHECK_MSG(sym->def[(size_t)index] < 0,
                    "line " << line << ": element assigned twice: " << name
                            << "[" << index << "]");
    expect(Tok::Assign);
    int value = parse_expr();
    expect(Tok::Semicolon);
    sym->def[(size_t)index] = value;
    ++info_.statements;
  }

  int parse_expr() {  // + -
    int lhs = parse_term();
    for (;;) {
      if (accept(Tok::Plus)) {
        lhs = info_.graph.add_op(OpKind::Add, {lhs, parse_term()});
      } else if (accept(Tok::Minus)) {
        lhs = info_.graph.add_op(OpKind::Sub, {lhs, parse_term()});
      } else {
        return lhs;
      }
    }
  }

  int parse_term() {  // * /
    int lhs = parse_unary();
    for (;;) {
      if (accept(Tok::Star)) {
        lhs = info_.graph.add_op(OpKind::Mul, {lhs, parse_unary()});
      } else if (accept(Tok::Slash)) {
        lhs = info_.graph.add_op(OpKind::Div, {lhs, parse_unary()});
      } else {
        return lhs;
      }
    }
  }

  int parse_unary() {
    if (accept(Tok::Minus)) {
      return info_.graph.add_op(OpKind::Neg, {parse_unary()});
    }
    return parse_primary();
  }

  int parse_primary() {
    if (at(Tok::Number)) {
      return info_.graph.add_const(expect(Tok::Number).number);
    }
    if (accept(Tok::LParen)) {
      int e = parse_expr();
      expect(Tok::RParen);
      return e;
    }
    int line = cur().line;
    auto [sym, index] = parse_lvalue_ref();
    return read_element(*sym, *last_ref_name_, index, line);
  }

  void finalize_outputs() {
    for (auto& [name, s] : syms_) {
      if (s.kind != SymKind::Output) continue;
      for (int i = 0; i < s.size; ++i) {
        CSFMA_CHECK_MSG(s.def[(size_t)i] >= 0,
                        "output " << name << "[" << i << "] never assigned");
        info_.graph.add_output(element_name(name, i, s.is_array),
                               s.def[(size_t)i]);
      }
    }
  }

  std::vector<Token> toks_;
  size_t pos_ = 0;
  KernelInfo info_;
  std::map<std::string, Symbol> syms_;
  const std::string* last_ref_name_ = nullptr;  // a token's text in toks_
};

}  // namespace

KernelInfo parse_kernel(const std::string& source, TraceSession* trace) {
  std::vector<Token> toks;
  {
    TraceSpan lex_span(trace, "lex", "hls");
    lex_span.arg("bytes", (std::uint64_t)source.size());
    toks = lex_kernel(source);
  }
  TraceSpan parse_span(trace, "parse", "hls");
  parse_span.arg("tokens", (std::uint64_t)toks.size());
  return Parser(std::move(toks)).parse();
}

}  // namespace csfma
