#include "temporal/relation.h"

#include <algorithm>

namespace tagg {

Status Relation::Append(Tuple tuple) {
  TAGG_RETURN_IF_ERROR(schema_.Validate(tuple.values()));
  tuples_.push_back(std::move(tuple));
  return Status::OK();
}

void Relation::SortByTime() {
  std::stable_sort(tuples_.begin(), tuples_.end(),
                   [](const Tuple& a, const Tuple& b) {
                     return a.valid() < b.valid();
                   });
}

bool Relation::IsSortedByTime() const {
  return RowSelection(*this).IsSortedByTime();
}

Result<Period> Relation::Lifespan() const {
  return RowSelection(*this).Lifespan();
}

bool RowSelection::IsSortedByTime() const {
  for (size_t i = 1; i < size(); ++i) {
    if (tuple(i).valid() < tuple(i - 1).valid()) return false;
  }
  return true;
}

Result<Period> RowSelection::Lifespan() const {
  if (empty()) {
    return Status::InvalidArgument("empty relation has no lifespan");
  }
  Instant lo = tuple(0).start();
  Instant hi = tuple(0).end();
  for (size_t i = 1; i < size(); ++i) {
    lo = std::min(lo, tuple(i).start());
    hi = std::max(hi, tuple(i).end());
  }
  return Period(lo, hi);
}

Relation Relation::Filter(
    const std::function<bool(const Tuple&)>& pred) const {
  Relation out(schema_, name_);
  for (const Tuple& t : tuples_) {
    if (pred(t)) out.AppendUnchecked(t);
  }
  return out;
}

std::string Relation::ToString(size_t max_rows) const {
  std::string out = name_.empty() ? "<relation>" : name_;
  out += " " + schema_.ToString() + ", " + std::to_string(size()) +
         " tuples\n";
  const size_t shown = std::min(max_rows, tuples_.size());
  for (size_t i = 0; i < shown; ++i) {
    out += "  " + tuples_[i].ToString() + "\n";
  }
  if (shown < tuples_.size()) {
    out += "  ... (" + std::to_string(tuples_.size() - shown) + " more)\n";
  }
  return out;
}

}  // namespace tagg
