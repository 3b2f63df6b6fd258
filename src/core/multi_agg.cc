#include "core/multi_agg.h"

#include "util/str.h"

namespace tagg {

MultiOp::MultiOp(std::vector<AggregateKind> kinds)
    : arity_(kinds.size()) {
  for (size_t i = 0; i < kinds.size(); ++i) kinds_[i] = kinds[i];
}

Result<MultiOp> MultiOp::Make(std::vector<AggregateKind> kinds) {
  if (kinds.empty()) {
    return Status::InvalidArgument("MultiOp requires at least one aggregate");
  }
  if (kinds.size() > kMaxMultiAggregates) {
    return Status::InvalidArgument(StringPrintf(
        "MultiOp fuses at most %zu aggregates, got %zu",
        kMaxMultiAggregates, kinds.size()));
  }
  return MultiOp(std::move(kinds));
}

MultiOp::State MultiOp::Combine(State x, const State& y) const {
  for (size_t i = 0; i < arity_; ++i) {
    SubState& a = x.sub[i];
    const SubState& b = y.sub[i];
    switch (kinds_[i]) {
      case AggregateKind::kCount:
        a.b += b.b;
        break;
      case AggregateKind::kSum:
      case AggregateKind::kAvg:
        a.a += b.a;
        a.b += b.b;
        break;
      case AggregateKind::kMin:
        if (b.b != 0 && (a.b == 0 || b.a < a.a)) a.a = b.a;
        a.b |= b.b;
        break;
      case AggregateKind::kMax:
        if (b.b != 0 && (a.b == 0 || b.a > a.a)) a.a = b.a;
        a.b |= b.b;
        break;
    }
  }
  return x;
}

void MultiOp::Add(State& s, const Input& input) const {
  for (size_t i = 0; i < arity_; ++i) {
    if ((input.valid_mask & (1u << i)) == 0) continue;
    SubState& a = s.sub[i];
    const double v = input.values[i];
    switch (kinds_[i]) {
      case AggregateKind::kCount:
        a.b += 1;
        break;
      case AggregateKind::kSum:
      case AggregateKind::kAvg:
        a.a += v;
        a.b += 1;
        break;
      case AggregateKind::kMin:
        if (a.b == 0 || v < a.a) a.a = v;
        a.b = 1;
        break;
      case AggregateKind::kMax:
        if (a.b == 0 || v > a.a) a.a = v;
        a.b = 1;
        break;
    }
  }
}

Value MultiOp::FinalizeAt(const State& s, size_t i) const {
  const SubState& a = s.sub[i];
  switch (kinds_[i]) {
    case AggregateKind::kCount:
      return Value::Int(a.b);
    case AggregateKind::kSum:
      return a.b > 0 ? Value::Double(a.a) : Value::Null();
    case AggregateKind::kMin:
    case AggregateKind::kMax:
      return a.b != 0 ? Value::Double(a.a) : Value::Null();
    case AggregateKind::kAvg:
      return a.b > 0
                 ? Value::Double(a.a / static_cast<double>(a.b))
                 : Value::Null();
  }
  return Value::Null();
}

// ComputeMultiAggregate is defined in aggregates.cc, beside
// ComputeTemporalAggregate: both run the one algorithm dispatch, feed loop
// and tuple reader of the aggregate-input rule.

}  // namespace tagg
