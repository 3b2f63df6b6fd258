#include "query/analyzer.h"

#include <algorithm>

#include "util/str.h"

namespace tagg {
namespace {

Result<size_t> ResolveColumn(const Schema& schema, const std::string& name) {
  const auto idx = schema.IndexOf(name);
  if (!idx.has_value()) {
    return Status::NotFound("column '" + name + "' does not exist in " +
                            schema.ToString());
  }
  return *idx;
}

bool IsNumeric(ValueType type) {
  return type == ValueType::kInt || type == ValueType::kDouble;
}

Result<std::unique_ptr<BoundPredicate>> BindPredicate(
    const Predicate& pred, const Schema& schema) {
  auto bound = std::make_unique<BoundPredicate>();
  bound->kind = pred.kind;
  switch (pred.kind) {
    case Predicate::Kind::kComparison: {
      TAGG_ASSIGN_OR_RETURN(bound->attribute,
                            ResolveColumn(schema, pred.column));
      const ValueType column_type = schema.attribute(bound->attribute).type;
      const ValueType literal_type = pred.literal.type();
      const bool compatible =
          (IsNumeric(column_type) && IsNumeric(literal_type)) ||
          (column_type == ValueType::kString &&
           literal_type == ValueType::kString);
      if (!compatible) {
        return Status::InvalidArgument(
            "cannot compare column '" + pred.column + "' (" +
            std::string(ValueTypeToString(column_type)) + ") with literal " +
            pred.literal.ToString());
      }
      bound->op = pred.op;
      bound->literal = pred.literal;
      return bound;
    }
    case Predicate::Kind::kValidOverlaps:
      bound->period = pred.period;
      return bound;
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr: {
      TAGG_ASSIGN_OR_RETURN(bound->lhs, BindPredicate(*pred.lhs, schema));
      TAGG_ASSIGN_OR_RETURN(bound->rhs, BindPredicate(*pred.rhs, schema));
      return bound;
    }
    case Predicate::Kind::kNot: {
      TAGG_ASSIGN_OR_RETURN(bound->lhs, BindPredicate(*pred.lhs, schema));
      return bound;
    }
  }
  return Status::Internal("unknown predicate kind");
}

}  // namespace

Result<BoundQuery> Analyze(const SelectStmt& stmt, const Catalog& catalog) {
  BoundQuery query;
  query.explain = stmt.explain;
  query.analyze = stmt.analyze;
  TAGG_ASSIGN_OR_RETURN(query.relation, catalog.Get(stmt.relation));
  TAGG_ASSIGN_OR_RETURN(query.stats, catalog.GetStats(stmt.relation));
  query.column_backing = catalog.GetColumnBacking(stmt.relation);
  const Schema& schema = query.relation->schema();

  if (stmt.items.empty()) {
    return Status::InvalidArgument("empty select list");
  }

  // Bind grouping columns first so select items can be checked against
  // them.
  for (const std::string& name : stmt.group_by) {
    TAGG_ASSIGN_OR_RETURN(size_t idx, ResolveColumn(schema, name));
    if (std::find(query.group_attributes.begin(),
                  query.group_attributes.end(),
                  idx) != query.group_attributes.end()) {
      return Status::InvalidArgument("duplicate grouping column '" + name +
                                     "'");
    }
    query.group_attributes.push_back(idx);
  }

  bool has_aggregate = false;
  for (const SelectItem& item : stmt.items) {
    BoundOutputColumn column;
    if (item.is_aggregate) {
      has_aggregate = true;
      BoundAggregate agg;
      agg.kind = item.aggregate;
      agg.display_name = item.ToString();
      if (!item.column.empty()) {
        TAGG_ASSIGN_OR_RETURN(agg.attribute,
                              ResolveColumn(schema, item.column));
      }
      TAGG_RETURN_IF_ERROR(
          CheckAggregateInput(agg.kind, agg.attribute, &schema));
      column.is_aggregate = true;
      column.index = query.aggregates.size();
      column.name = agg.display_name;
      query.aggregates.push_back(std::move(agg));
    } else {
      TAGG_ASSIGN_OR_RETURN(size_t idx, ResolveColumn(schema, item.column));
      const auto it = std::find(query.group_attributes.begin(),
                                query.group_attributes.end(), idx);
      if (it == query.group_attributes.end()) {
        return Status::InvalidArgument(
            "column '" + item.column +
            "' must appear in the GROUP BY clause to be selected");
      }
      column.is_aggregate = false;
      column.index =
          static_cast<size_t>(it - query.group_attributes.begin());
      column.name = schema.attribute(idx).name;
    }
    query.columns.push_back(std::move(column));
  }
  if (!has_aggregate) {
    return Status::InvalidArgument(
        "query must contain at least one aggregate");
  }

  if (stmt.where != nullptr) {
    TAGG_ASSIGN_OR_RETURN(query.where, BindPredicate(*stmt.where, schema));
  }

  query.temporal = stmt.temporal;
  if (query.temporal.kind == TemporalGrouping::Kind::kSpan) {
    if (query.temporal.span_width <= 0) {
      return Status::InvalidArgument("span width must be positive");
    }
    if (query.temporal.has_window &&
        query.temporal.window_start > query.temporal.window_end) {
      return Status::InvalidArgument("span window start after end");
    }
  }
  return query;
}

}  // namespace tagg
