// ShardMap: the range partitioning of the time-line behind the shard
// router.
//
// The timeline [kOrigin, kForever] is cut into N contiguous, disjoint
// ranges; shard i owns [starts[i], starts[i+1] - 1] (the last shard runs
// to kForever).  Range partitioning — rather than hashing — is what makes
// sharded temporal aggregation *exact*: a tuple straddling a boundary is
// clipped into per-shard fragments whose union covers exactly the same
// instants, so every instant's covering multiset (the input of all five
// monoid aggregates) is preserved shard-locally, and per-shard series are
// time-disjoint and merge by concatenation + seam coalescing with no
// cross-shard state combine (a key-hash scheme would need a state-level
// merge — see docs/SHARDING.md).
//
// The map is immutable after construction; topology changes build a new
// map and publish it atomically (shard/sharded_service.h).

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "temporal/period.h"
#include "util/result.h"

namespace tagg {
namespace shard {

/// One shard's clip of a period (the output of SplitOver).
struct ShardSlice {
  size_t shard = 0;
  Period range;
};

class ShardMap {
 public:
  /// The trivial single-shard map owning the whole time-line.
  ShardMap();

  /// Builds a map from range start instants.  `starts` must begin with
  /// kOrigin and be strictly increasing; starts.size() becomes the shard
  /// count.
  static Result<ShardMap> FromStarts(std::vector<Instant> starts);

  /// Splits `hot` into `shards` near-equal ranges: shard 0 additionally
  /// owns everything before the hot window and the last shard everything
  /// after it.  Boundaries that would collide (hot window narrower than
  /// the shard count) are dropped, so the result may hold fewer shards.
  static Result<ShardMap> MakeUniform(size_t shards, const Period& hot);

  size_t num_shards() const { return starts_.size(); }
  const std::vector<Instant>& starts() const { return starts_; }

  /// The shard whose range contains `t` (total: every in-line instant is
  /// owned by exactly one shard).
  size_t OwnerOf(Instant t) const;

  /// Shard i's owned range.
  Period RangeOf(size_t shard) const;

  /// The ascending list of (shard, clipped sub-period) slices covering
  /// `p` exactly: one slice per overlapped shard, slices meet exactly at
  /// the boundaries.  A period inside one shard yields a single slice.
  std::vector<ShardSlice> SplitOver(const Period& p) const;

  /// "3 shards: [0, 9] [10, 99] [100, forever]".
  std::string ToString() const;

  bool operator==(const ShardMap& other) const {
    return starts_ == other.starts_;
  }

 private:
  explicit ShardMap(std::vector<Instant> starts)
      : starts_(std::move(starts)) {}

  std::vector<Instant> starts_;  // starts_[0] == kOrigin, ascending
};

}  // namespace shard
}  // namespace tagg
