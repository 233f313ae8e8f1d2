#include "frontend/lexer.hpp"

#include <cctype>
#include <cstdlib>

#include "common/check.hpp"

namespace csfma {

const char* to_string(Tok t) {
  switch (t) {
    case Tok::KwKernel: return "'kernel'";
    case Tok::KwInput: return "'input'";
    case Tok::KwOutput: return "'output'";
    case Tok::KwVar: return "'var'";
    case Tok::KwDouble: return "'double'";
    case Tok::Ident: return "identifier";
    case Tok::Number: return "number";
    case Tok::LBrace: return "'{'";
    case Tok::RBrace: return "'}'";
    case Tok::LBracket: return "'['";
    case Tok::RBracket: return "']'";
    case Tok::LParen: return "'('";
    case Tok::RParen: return "')'";
    case Tok::Assign: return "'='";
    case Tok::Plus: return "'+'";
    case Tok::Minus: return "'-'";
    case Tok::Star: return "'*'";
    case Tok::Slash: return "'/'";
    case Tok::Semicolon: return "';'";
    case Tok::End: return "end of input";
  }
  return "?";
}

std::vector<Token> lex_kernel(const std::string& src) {
  std::vector<Token> out;
  // Generated kernels average about 1.65 source bytes per token.
  out.reserve(src.size() * 2 / 3 + 1);
  int line = 1;
  size_t i = 0;
  auto push = [&](Tok k, std::string text) {
    out.push_back({k, std::move(text), 0.0, line});
  };
  while (i < src.size()) {
    char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace((unsigned char)c)) {
      ++i;
      continue;
    }
    if (c == '#' || (c == '/' && i + 1 < src.size() && src[i + 1] == '/')) {
      while (i < src.size() && src[i] != '\n') ++i;
      continue;
    }
    if (std::isalpha((unsigned char)c) || c == '_') {
      size_t j = i;
      while (j < src.size() &&
             (std::isalnum((unsigned char)src[j]) || src[j] == '_'))
        ++j;
      std::string word = src.substr(i, j - i);
      i = j;
      Tok k = Tok::Ident;
      if (word == "kernel") k = Tok::KwKernel;
      else if (word == "input") k = Tok::KwInput;
      else if (word == "output") k = Tok::KwOutput;
      else if (word == "var") k = Tok::KwVar;
      else if (word == "double") k = Tok::KwDouble;
      push(k, std::move(word));
      continue;
    }
    if (std::isdigit((unsigned char)c) ||
        (c == '.' && i + 1 < src.size() && std::isdigit((unsigned char)src[i + 1]))) {
      char* end = nullptr;
      double v = std::strtod(src.c_str() + i, &end);
      CSFMA_CHECK_MSG(end != src.c_str() + i, "bad number at line " << line);
      out.push_back({Tok::Number,
                     src.substr(i, (size_t)(end - (src.c_str() + i))), v, line});
      i = (size_t)(end - src.c_str());
      continue;
    }
    Tok k;
    switch (c) {
      case '{': k = Tok::LBrace; break;
      case '}': k = Tok::RBrace; break;
      case '[': k = Tok::LBracket; break;
      case ']': k = Tok::RBracket; break;
      case '(': k = Tok::LParen; break;
      case ')': k = Tok::RParen; break;
      case '=': k = Tok::Assign; break;
      case '+': k = Tok::Plus; break;
      case '-': k = Tok::Minus; break;
      case '*': k = Tok::Star; break;
      case '/': k = Tok::Slash; break;
      case ';': k = Tok::Semicolon; break;
      default:
        CSFMA_CHECK_MSG(false, "unexpected character '" << c << "' at line "
                                                        << line);
        return out;
    }
    push(k, std::string(1, c));
    ++i;
  }
  push(Tok::End, "");
  return out;
}

}  // namespace csfma
