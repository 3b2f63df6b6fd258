// Bounded-memory external sort of fixed-size POD records.
//
// The classic two-phase approach: in-memory run generation (buffer up to
// memory_budget_records records, sort them, write a run) followed by a
// single k-way index-heap merge over all runs.  Runs live in anonymous
// SpillFiles (storage/spill_file), so they vanish with the sorter even
// when it is abandoned mid-sort.
//
// The partitioned aggregation's columnar kernel uses this to sort a
// spilled region's endpoint events without materializing the region in
// memory: Add() every record, then Merge() exactly once to stream them
// back in sorted order.  While at most `memory_budget_records` records
// have been added, no run is written and Merge sorts and emits straight
// from the buffer — the common case for small regions.
//
// Records follow `layout`, which sets their size; run files go through the
// compressed temporal column codec (storage/temporal_column).  Runs are
// written sorted, so the delta-of-delta timestamp encoding is at its best
// there.

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "storage/spill_file.h"
#include "util/result.h"

namespace tagg {

class PodRunSorter {
 public:
  using Less = std::function<bool(const void*, const void*)>;
  using Emit = std::function<Status(const void*)>;

  PodRunSorter(TemporalColumnLayout layout, Less less,
               size_t memory_budget_records);

  /// Buffers one record, flushing a sorted run when the budget is full.
  Status Add(const void* record);

  /// Streams every added record through `emit` in sorted order.  Call
  /// once; the sorter is spent afterwards.
  Status Merge(const Emit& emit);

  /// Runs spilled to temp files (0 when everything fit in the budget).
  /// Stable across Merge(), which releases the run files themselves.
  size_t runs_generated() const { return runs_generated_; }

  /// Largest number of records simultaneously held in memory.
  size_t peak_buffered_records() const { return peak_buffered_; }

  /// Bytes of run records before/after the codec, accumulated as runs are
  /// flushed (stable across Merge, which frees the files).
  uint64_t run_raw_bytes() const { return run_raw_bytes_; }
  uint64_t run_encoded_bytes() const { return run_encoded_bytes_; }

 private:
  Status FlushRun();
  void SortBuffer(std::vector<const char*>& order) const;

  TemporalColumnLayout layout_;
  size_t record_size_;
  Less less_;
  size_t budget_;
  std::vector<char> buffer_;
  size_t buffered_ = 0;
  size_t peak_buffered_ = 0;
  size_t runs_generated_ = 0;
  uint64_t run_raw_bytes_ = 0;
  uint64_t run_encoded_bytes_ = 0;
  std::vector<std::unique_ptr<SpillFile>> runs_;
};

}  // namespace tagg
