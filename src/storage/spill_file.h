// SpillFile: an anonymous temporary file of fixed-size POD records, stored
// as compressed temporal column blocks (storage/temporal_column).
//
// The limited-memory partitioned aggregation (core/partitioned_agg) spills
// each time-line region's clipped tuples to its own temp file so that
// phase-2 workers can replay regions independently — no shared cursor, and
// therefore no restriction on combining spilling with parallel workers.
//
// Writers: Append is thread-safe (one mutex per file); routing workers
// batch entries in private staging buffers and append a chunk at a time,
// so the lock is taken once per ~kDefaultChunkRecords records, not once
// per record.  Readers: a Reader is a single-threaded sequential cursor
// with its own decode buffer; open one only after all writers have
// finished (the partitioned build's phase barrier guarantees this).
//
// The record layout is fixed at Create and sets the record size: each
// Append encodes its batch as one self-contained block outside the lock,
// and the Reader decodes block by block.  raw_bytes()/encoded_bytes()
// expose the before/after sizes for the compression metrics.

#pragma once

#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/temporal_column.h"
#include "util/result.h"

namespace tagg {

class SpillFile {
 public:
  /// The staging-batch size writers should target, so the append lock
  /// stays cold and each block is long enough for the delta encoding.
  static constexpr size_t kDefaultChunkRecords = 4096;

  /// Creates an anonymous temp file (std::tmpfile: unlinked on creation,
  /// reclaimed by the OS even on crash) holding records of `layout`
  /// (layout.record_size() bytes each).  The layout must not be empty.
  static Result<std::unique_ptr<SpillFile>> Create(
      TemporalColumnLayout layout);

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;
  ~SpillFile();

  /// Appends `n` contiguous records.  Thread-safe; concurrent appends are
  /// serialized per file, and records of one call stay contiguous.  Each
  /// call becomes one compressed block (encode happens outside the lock),
  /// so batch appends as kDefaultChunkRecords chunks.
  Status Append(const void* records, size_t n);

  size_t record_size() const { return layout_.record_size(); }

  /// Records appended so far.  Takes the append lock; cheap, but intended
  /// for after-the-write accounting, not per-record hot paths.
  size_t record_count() const;

  /// record_count() * record_size(): what the records occupy in memory.
  uint64_t raw_bytes() const;

  /// Bytes actually written to the file.
  uint64_t encoded_bytes() const;

  /// Sequential cursor over the file's records.  Construct after all
  /// writers finished; exactly one Reader should be active per file.
  class Reader {
   public:
    explicit Reader(SpillFile& file) : file_(file) {}

    /// The next record, or nullptr at end of file.  The pointer is valid
    /// until the next call.
    Result<const void*> Next();

   private:
    Status Fill();

    SpillFile& file_;
    std::vector<char> buffer_;
    std::vector<char> block_;  // encoded block scratch
    size_t records_in_buffer_ = 0;
    size_t next_in_buffer_ = 0;
    size_t remaining_ = 0;
    bool primed_ = false;
  };

 private:
  SpillFile(std::FILE* file, TemporalColumnLayout layout)
      : file_(file), layout_(std::move(layout)) {}

  std::FILE* file_;
  TemporalColumnLayout layout_;
  mutable std::mutex mutex_;
  size_t count_ = 0;
  uint64_t file_bytes_ = 0;
};

}  // namespace tagg
