// Relation: an in-memory valid-time relation (schema + tuples).
//
// Algorithms in src/core consume relations through a single forward scan,
// matching the paper's "all algorithms read the relation only one time"
// property (Section 6).

#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "temporal/schema.h"
#include "temporal/tuple.h"
#include "util/result.h"

namespace tagg {

/// A named, schema-checked collection of valid-time tuples in insertion
/// order (the order the aggregation algorithms see them in).
class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema, std::string name = "")
      : schema_(std::move(schema)), name_(std::move(name)) {}

  const Schema& schema() const { return schema_; }
  const std::string& name() const { return name_; }

  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }
  const Tuple& tuple(size_t i) const { return tuples_[i]; }
  const std::vector<Tuple>& tuples() const { return tuples_; }

  std::vector<Tuple>::const_iterator begin() const { return tuples_.begin(); }
  std::vector<Tuple>::const_iterator end() const { return tuples_.end(); }

  /// Appends after validating against the schema.
  Status Append(Tuple tuple);

  /// Appends without validation (trusted internal callers, e.g. the
  /// workload generator).
  void AppendUnchecked(Tuple tuple) { tuples_.push_back(std::move(tuple)); }

  void Reserve(size_t n) { tuples_.reserve(n); }
  void Clear() { tuples_.clear(); }

  /// Sorts tuples "totally ordered by time": by start time, ties broken by
  /// end time (Section 5.2).  Stable, so value order among exact period
  /// ties is preserved.
  void SortByTime();

  /// True when the relation is totally ordered by time.
  bool IsSortedByTime() const;

  /// The smallest period covering every tuple's validity; error when empty.
  Result<Period> Lifespan() const;

  /// A copy containing only tuples satisfying `pred`.
  Relation Filter(const std::function<bool(const Tuple&)>& pred) const;

  /// Multi-line rendering for debugging and examples.
  std::string ToString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::string name_;
  std::vector<Tuple> tuples_;
};

/// The rows of a relation an evaluation reads, where they lie: every row,
/// or a list of row indices (a WHERE's survivors, one GROUP BY group) in
/// the order listed.  It borrows the relation and the index list; neither
/// may change while the selection is in use.
class RowSelection {
 public:
  /// Every row of `relation`, in order.
  explicit RowSelection(const Relation& relation) : relation_(&relation) {}

  /// The rows of `relation` at the indices `rows`, in that order.
  RowSelection(const Relation& relation, std::span<const size_t> rows)
      : relation_(&relation), rows_(rows), all_(false) {}

  const Relation& relation() const { return *relation_; }
  size_t size() const { return all_ ? relation_->size() : rows_.size(); }
  bool empty() const { return size() == 0; }

  /// The relation index of the i-th selected row.
  size_t row(size_t i) const { return all_ ? i : rows_[i]; }
  const Tuple& tuple(size_t i) const { return relation_->tuple(row(i)); }

  /// Calls fn(tuple) for every selected tuple in order, stopping at the
  /// first error.
  template <typename Fn>
  Status ForEach(Fn&& fn) const {
    if (all_) {
      for (const Tuple& t : *relation_) TAGG_RETURN_IF_ERROR(fn(t));
    } else {
      for (size_t r : rows_) TAGG_RETURN_IF_ERROR(fn(relation_->tuple(r)));
    }
    return Status::OK();
  }

  /// True when the selected tuples are totally ordered by time.
  bool IsSortedByTime() const;

  /// The smallest period covering every selected tuple; error when empty.
  Result<Period> Lifespan() const;

 private:
  const Relation* relation_;
  std::span<const size_t> rows_;
  bool all_ = true;
};

}  // namespace tagg
