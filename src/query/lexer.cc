#include "query/lexer.h"

#include <cctype>

#include "util/str.h"

namespace tagg {
namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

Result<std::vector<Token>> Lex(std::string_view query) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = query.size();
  while (i < n) {
    const char c = query[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    const size_t start = i;
    if (IsIdentStart(c)) {
      while (i < n && IsIdentChar(query[i])) ++i;
      tokens.push_back({TokenType::kIdentifier,
                        std::string(query.substr(start, i - start)), start});
      continue;
    }
    // A numeric literal, with its sign when a '-' directly precedes the
    // digits: the grammar has no arithmetic, so the sign can only be the
    // literal's, and it stays in the text so that INT64_MIN and -0.0
    // parse exactly.
    const bool signed_number =
        c == '-' && i + 1 < n &&
        std::isdigit(static_cast<unsigned char>(query[i + 1]));
    if (signed_number || std::isdigit(static_cast<unsigned char>(c))) {
      if (signed_number) ++i;
      while (i < n && std::isdigit(static_cast<unsigned char>(query[i]))) {
        ++i;
      }
      bool is_float = false;
      if (i < n && query[i] == '.' && i + 1 < n &&
          std::isdigit(static_cast<unsigned char>(query[i + 1]))) {
        is_float = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(query[i]))) {
          ++i;
        }
      }
      tokens.push_back({is_float ? TokenType::kFloatLiteral
                                 : TokenType::kIntLiteral,
                        std::string(query.substr(start, i - start)), start});
      continue;
    }
    switch (c) {
      case '\'': {
        ++i;
        std::string text;
        bool closed = false;
        while (i < n) {
          if (query[i] == '\'') {
            if (i + 1 < n && query[i + 1] == '\'') {  // escaped quote
              text += '\'';
              i += 2;
              continue;
            }
            closed = true;
            ++i;
            break;
          }
          text += query[i];
          ++i;
        }
        if (!closed) {
          return Status::InvalidArgument(StringPrintf(
              "unterminated string literal at position %zu", start));
        }
        tokens.push_back({TokenType::kStringLiteral, std::move(text), start});
        continue;
      }
      case ',':
        tokens.push_back({TokenType::kComma, ",", start});
        ++i;
        continue;
      case '(':
        tokens.push_back({TokenType::kLParen, "(", start});
        ++i;
        continue;
      case ')':
        tokens.push_back({TokenType::kRParen, ")", start});
        ++i;
        continue;
      case '*':
        tokens.push_back({TokenType::kStar, "*", start});
        ++i;
        continue;
      case ';':
        tokens.push_back({TokenType::kSemicolon, ";", start});
        ++i;
        continue;
      case '=':
        tokens.push_back({TokenType::kEq, "=", start});
        ++i;
        continue;
      case '!':
        if (i + 1 < n && query[i + 1] == '=') {
          tokens.push_back({TokenType::kNe, "!=", start});
          i += 2;
          continue;
        }
        return Status::InvalidArgument(
            StringPrintf("unexpected '!' at position %zu", start));
      case '<':
        if (i + 1 < n && query[i + 1] == '=') {
          tokens.push_back({TokenType::kLe, "<=", start});
          i += 2;
        } else if (i + 1 < n && query[i + 1] == '>') {
          tokens.push_back({TokenType::kNe, "<>", start});
          i += 2;
        } else {
          tokens.push_back({TokenType::kLt, "<", start});
          ++i;
        }
        continue;
      case '>':
        if (i + 1 < n && query[i + 1] == '=') {
          tokens.push_back({TokenType::kGe, ">=", start});
          i += 2;
        } else {
          tokens.push_back({TokenType::kGt, ">", start});
          ++i;
        }
        continue;
      default:
        return Status::InvalidArgument(StringPrintf(
            "unexpected character '%c' at position %zu", c, start));
    }
  }
  tokens.push_back({TokenType::kEnd, "", n});
  return tokens;
}

}  // namespace tagg
