#include "query/parser.h"

#include <charconv>

#include "query/lexer.h"
#include "util/str.h"

namespace tagg {

std::string_view CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

std::string Predicate::ToString() const {
  switch (kind) {
    case Kind::kComparison:
      return column + " " + std::string(CompareOpToString(op)) + " " +
             literal.ToString();
    case Kind::kValidOverlaps:
      return "VALID OVERLAPS " + InstantToString(period.start()) + " TO " +
             InstantToString(period.end());
    case Kind::kAnd:
      return "(" + lhs->ToString() + " AND " + rhs->ToString() + ")";
    case Kind::kOr:
      return "(" + lhs->ToString() + " OR " + rhs->ToString() + ")";
    case Kind::kNot:
      return "(NOT " + lhs->ToString() + ")";
  }
  return "?";
}

std::string SelectItem::ToString() const {
  if (!is_aggregate) return column;
  return std::string(AggregateKindToString(aggregate)) + "(" +
         (column.empty() ? "*" : column) + ")";
}

std::string SelectStmt::ToString() const {
  std::string out = explain
                        ? (analyze ? "EXPLAIN ANALYZE SELECT "
                                   : "EXPLAIN SELECT ")
                        : "SELECT ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i].ToString();
  }
  out += " FROM " + relation;
  if (where) out += " WHERE " + where->ToString();
  if (!group_by.empty() || temporal.kind != TemporalGrouping::Kind::kInstant) {
    out += " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += group_by[i];
    }
    if (temporal.kind == TemporalGrouping::Kind::kSpan) {
      if (!group_by.empty()) out += ", ";
      out += "SPAN " + std::to_string(temporal.span_width);
      if (temporal.has_window) {
        out += " FROM " + std::to_string(temporal.window_start) + " TO " +
               std::to_string(temporal.window_end);
      }
    }
  }
  return out;
}

namespace {

/// Token-stream cursor with expectation helpers.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectStmt> Parse() {
    SelectStmt stmt;
    if (Peek().IsWord("EXPLAIN")) {
      Advance();
      stmt.explain = true;
      if (Peek().IsWord("ANALYZE")) {
        Advance();
        stmt.analyze = true;
      }
    }
    TAGG_RETURN_IF_ERROR(ExpectWord("SELECT"));
    TAGG_RETURN_IF_ERROR(ParseSelectList(&stmt));
    TAGG_RETURN_IF_ERROR(ExpectWord("FROM"));
    TAGG_ASSIGN_OR_RETURN(stmt.relation, ExpectIdentifier("relation name"));
    if (Peek().IsWord("WHERE")) {
      Advance();
      TAGG_ASSIGN_OR_RETURN(stmt.where, ParseOr());
    }
    if (Peek().IsWord("GROUP")) {
      Advance();
      TAGG_RETURN_IF_ERROR(ExpectWord("BY"));
      TAGG_RETURN_IF_ERROR(ParseGroupBy(&stmt));
    }
    if (Peek().Is(TokenType::kSemicolon)) Advance();
    if (!Peek().Is(TokenType::kEnd)) {
      return Unexpected("end of query");
    }
    return stmt;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }

  Status Unexpected(std::string_view wanted) const {
    return Status::InvalidArgument(StringPrintf(
        "expected %.*s but found %s at position %zu",
        static_cast<int>(wanted.size()), wanted.data(),
        Peek().ToString().c_str(), Peek().position));
  }

  Status ExpectWord(std::string_view word) {
    if (!Peek().IsWord(word)) return Unexpected(word);
    Advance();
    return Status::OK();
  }

  Result<std::string> ExpectIdentifier(std::string_view what) {
    if (!Peek().Is(TokenType::kIdentifier)) return Unexpected(what);
    return Advance().text;
  }

  Status ParseSelectList(SelectStmt* stmt) {
    while (true) {
      TAGG_ASSIGN_OR_RETURN(SelectItem item, ParseItem());
      stmt->items.push_back(std::move(item));
      if (!Peek().Is(TokenType::kComma)) break;
      Advance();
    }
    return Status::OK();
  }

  Result<SelectItem> ParseItem() {
    if (!Peek().Is(TokenType::kIdentifier)) {
      return Unexpected("column or aggregate");
    }
    SelectItem item;
    // An aggregate name followed by '(' is an aggregate call; otherwise
    // the word is a plain column reference (so a column named "count" is
    // still usable unparenthesized).
    auto agg = ParseAggregateKind(Peek().text);
    if (agg.ok() && Peek(1).Is(TokenType::kLParen)) {
      item.is_aggregate = true;
      item.aggregate = agg.value();
      Advance();  // aggregate name
      Advance();  // '('
      if (Peek().Is(TokenType::kStar)) {
        if (item.aggregate != AggregateKind::kCount) {
          return Status::InvalidArgument(
              "only COUNT accepts '*' as its argument");
        }
        Advance();
      } else {
        TAGG_ASSIGN_OR_RETURN(item.column,
                              ExpectIdentifier("aggregate argument"));
      }
      if (!Peek().Is(TokenType::kRParen)) return Unexpected(")");
      Advance();
      return item;
    }
    item.column = Advance().text;
    return item;
  }

  Result<std::unique_ptr<Predicate>> ParseOr() {
    TAGG_ASSIGN_OR_RETURN(std::unique_ptr<Predicate> lhs, ParseAnd());
    while (Peek().IsWord("OR")) {
      Advance();
      TAGG_ASSIGN_OR_RETURN(std::unique_ptr<Predicate> rhs, ParseAnd());
      auto node = std::make_unique<Predicate>();
      node->kind = Predicate::Kind::kOr;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<std::unique_ptr<Predicate>> ParseAnd() {
    TAGG_ASSIGN_OR_RETURN(std::unique_ptr<Predicate> lhs, ParseNot());
    while (Peek().IsWord("AND")) {
      Advance();
      TAGG_ASSIGN_OR_RETURN(std::unique_ptr<Predicate> rhs, ParseNot());
      auto node = std::make_unique<Predicate>();
      node->kind = Predicate::Kind::kAnd;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<std::unique_ptr<Predicate>> ParseNot() {
    if (Peek().IsWord("NOT")) {
      Advance();
      TAGG_ASSIGN_OR_RETURN(std::unique_ptr<Predicate> inner, ParseNot());
      auto node = std::make_unique<Predicate>();
      node->kind = Predicate::Kind::kNot;
      node->lhs = std::move(inner);
      return node;
    }
    return ParsePrimary();
  }

  Result<std::unique_ptr<Predicate>> ParsePrimary() {
    if (Peek().Is(TokenType::kLParen)) {
      Advance();
      TAGG_ASSIGN_OR_RETURN(std::unique_ptr<Predicate> inner, ParseOr());
      if (!Peek().Is(TokenType::kRParen)) return Unexpected(")");
      Advance();
      return inner;
    }
    // The valid clause: VALID OVERLAPS a TO (b | FOREVER).
    if (Peek().IsWord("VALID") && Peek(1).IsWord("OVERLAPS")) {
      Advance();
      Advance();
      TAGG_ASSIGN_OR_RETURN(Instant start, ExpectInt("period start"));
      TAGG_RETURN_IF_ERROR(ExpectWord("TO"));
      Instant end;
      if (Peek().IsWord("FOREVER")) {
        Advance();
        end = kForever;
      } else {
        TAGG_ASSIGN_OR_RETURN(end, ExpectInt("period end"));
      }
      auto period = Period::Make(start, end);
      if (!period.ok()) return period.status();
      auto node = std::make_unique<Predicate>();
      node->kind = Predicate::Kind::kValidOverlaps;
      node->period = period.value();
      return node;
    }
    auto node = std::make_unique<Predicate>();
    node->kind = Predicate::Kind::kComparison;
    TAGG_ASSIGN_OR_RETURN(node->column, ExpectIdentifier("column"));
    switch (Peek().type) {
      case TokenType::kEq:
        node->op = CompareOp::kEq;
        break;
      case TokenType::kNe:
        node->op = CompareOp::kNe;
        break;
      case TokenType::kLt:
        node->op = CompareOp::kLt;
        break;
      case TokenType::kLe:
        node->op = CompareOp::kLe;
        break;
      case TokenType::kGt:
        node->op = CompareOp::kGt;
        break;
      case TokenType::kGe:
        node->op = CompareOp::kGe;
        break;
      default:
        return Unexpected("comparison operator");
    }
    Advance();
    TAGG_ASSIGN_OR_RETURN(node->literal, ParseLiteral());
    return node;
  }

  Result<Value> ParseLiteral() {
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kIntLiteral: {
        int64_t v = 0;
        const auto [ptr, ec] =
            std::from_chars(t.text.data(), t.text.data() + t.text.size(), v);
        if (ec != std::errc() || ptr != t.text.data() + t.text.size()) {
          return Status::InvalidArgument("integer literal '" + t.text +
                                         "' out of range");
        }
        Advance();
        return Value::Int(v);
      }
      case TokenType::kFloatLiteral: {
        double v = 0.0;
        const auto [ptr, ec] =
            std::from_chars(t.text.data(), t.text.data() + t.text.size(), v);
        if (ec != std::errc() || ptr != t.text.data() + t.text.size()) {
          return Status::InvalidArgument("numeric literal '" + t.text +
                                         "' out of range");
        }
        Advance();
        return Value::Double(v);
      }
      case TokenType::kStringLiteral:
        Advance();
        return Value::String(t.text);
      default:
        return Unexpected("literal");
    }
  }

  Result<Instant> ExpectInt(std::string_view what) {
    if (!Peek().Is(TokenType::kIntLiteral)) return Unexpected(what);
    const Token& t = Advance();
    Instant v = 0;
    const auto [ptr, ec] =
        std::from_chars(t.text.data(), t.text.data() + t.text.size(), v);
    if (ec != std::errc() || ptr != t.text.data() + t.text.size()) {
      return Status::InvalidArgument("integer literal '" + t.text +
                                     "' out of range");
    }
    return v;
  }

  Status ParseGroupBy(SelectStmt* stmt) {
    bool temporal_seen = false;
    while (true) {
      if (Peek().IsWord("INSTANT")) {
        if (temporal_seen) {
          return Status::InvalidArgument(
              "multiple temporal grouping clauses");
        }
        temporal_seen = true;
        Advance();
        stmt->temporal.kind = TemporalGrouping::Kind::kInstant;
      } else if (Peek().IsWord("SPAN")) {
        if (temporal_seen) {
          return Status::InvalidArgument(
              "multiple temporal grouping clauses");
        }
        temporal_seen = true;
        Advance();
        stmt->temporal.kind = TemporalGrouping::Kind::kSpan;
        TAGG_ASSIGN_OR_RETURN(stmt->temporal.span_width,
                              ExpectInt("span width"));
        if (Peek().IsWord("FROM")) {
          Advance();
          TAGG_ASSIGN_OR_RETURN(stmt->temporal.window_start,
                                ExpectInt("window start"));
          TAGG_RETURN_IF_ERROR(ExpectWord("TO"));
          TAGG_ASSIGN_OR_RETURN(stmt->temporal.window_end,
                                ExpectInt("window end"));
          stmt->temporal.has_window = true;
        }
      } else {
        TAGG_ASSIGN_OR_RETURN(std::string column,
                              ExpectIdentifier("grouping column"));
        stmt->group_by.push_back(std::move(column));
      }
      if (!Peek().Is(TokenType::kComma)) break;
      Advance();
    }
    return Status::OK();
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<SelectStmt> ParseSelect(std::string_view query) {
  TAGG_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(query));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace tagg
