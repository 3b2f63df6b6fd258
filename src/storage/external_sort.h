// External merge sort of a heap file by time.
//
// The paper's headline recommendation is "first sort the underlying
// relation, then apply the k-ordered aggregation tree algorithm with
// k = 1"; at disk scale that sort is external.  This module implements the
// classic two-phase approach: bounded-memory run generation (load up to
// memory_budget_records records, sort by (start, end), write a run file)
// followed by a single k-way merge over all runs into the output heap
// file.  Run files are heap files themselves and are deleted after the
// merge.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "storage/heap_file.h"
#include "storage/spill_file.h"
#include "util/result.h"

namespace tagg {

/// Knobs for the external sort.
struct ExternalSortOptions {
  /// Records sorted in memory per run.  Small values force many runs and
  /// exercise the merge; defaults to 64K records (8 MiB).
  size_t memory_budget_records = 64 * 1024;

  /// Directory for run files; defaults to the output file's directory
  /// (empty string).
  std::string temp_dir;
};

/// Sorts `input` by (start, end) into a new heap file at `output_path`.
/// The input file is not modified.
Result<std::unique_ptr<HeapFile>> ExternalSortByTime(
    const HeapFile& input, const std::string& output_path,
    const ExternalSortOptions& options = {});

/// Bounded-memory sort of fixed-size POD records: the same two-phase
/// machinery as ExternalSortByTime (in-memory run generation, then a
/// k-way index-heap merge) generalized over the record type, with
/// anonymous SpillFiles as the run medium instead of named heap files.
///
/// The partitioned aggregation's columnar kernel uses this to sort a
/// spilled region's endpoint events without materializing the region in
/// memory: Add() every record, then Merge() exactly once to stream them
/// back in sorted order.  While at most `memory_budget_records` records
/// have been added, no run is written and Merge sorts and emits straight
/// from the buffer — the common case for small regions.
///
/// A non-empty `layout` routes run files through the compressed temporal
/// column codec (storage/temporal_column): runs are written sorted, so
/// the delta-of-delta timestamp encoding is at its best there.
class PodRunSorter {
 public:
  using Less = std::function<bool(const void*, const void*)>;
  using Emit = std::function<Status(const void*)>;

  PodRunSorter(size_t record_size, Less less,
               size_t memory_budget_records,
               TemporalColumnLayout layout = {});

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
  /// flushed (stable across Merge, which frees the files).  Equal without
  /// a layout.
  uint64_t run_raw_bytes() const { return run_raw_bytes_; }
  uint64_t run_encoded_bytes() const { return run_encoded_bytes_; }

 private:
  Status FlushRun();
  void SortBuffer(std::vector<const char*>& order) const;

  size_t record_size_;
  Less less_;
  size_t budget_;
  TemporalColumnLayout layout_;
  std::vector<char> buffer_;
  size_t buffered_ = 0;
  size_t peak_buffered_ = 0;
  size_t runs_generated_ = 0;
  uint64_t run_raw_bytes_ = 0;
  uint64_t run_encoded_bytes_ = 0;
  std::vector<std::unique_ptr<SpillFile>> runs_;
};

}  // namespace tagg
