// Recursive-descent parser for the TSQL2-flavored query language.
//
// Grammar (keywords case-insensitive):
//
//   select     := [EXPLAIN [ANALYZE]] SELECT item (',' item)* FROM identifier
//                 [WHERE or_expr] [GROUP BY group_item (',' group_item)*]
//                 [';']
//   item       := agg_name '(' (identifier | '*') ')' | identifier
//   agg_name   := COUNT | SUM | MIN | MAX | AVG
//   or_expr    := and_expr (OR and_expr)*
//   and_expr   := not_expr (AND not_expr)*
//   not_expr   := NOT not_expr | primary
//   primary    := '(' or_expr ')'
//               | VALID OVERLAPS integer TO (integer | FOREVER)
//               | identifier cmp literal
//   cmp        := '=' | '<>' | '!=' | '<' | '<=' | '>' | '>='
//   literal    := integer | float | string
//   integer    := ['-'] digit+           (a sign directly before digits)
//   float      := ['-'] digit+ '.' digit+
//   group_item := INSTANT
//               | SPAN integer [FROM integer TO integer]
//               | identifier

#pragma once

#include <string_view>

#include "query/ast.h"
#include "util/result.h"

namespace tagg {

/// Parses one SELECT statement; errors carry the offending position.
Result<SelectStmt> ParseSelect(std::string_view query);

}  // namespace tagg
