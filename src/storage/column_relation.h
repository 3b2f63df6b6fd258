// Columnar stored relations: sorted-by-start temporal column blocks with
// per-block zone maps and precomputed monoid summaries.
//
// PR 8 put the temporal-column codec (storage/temporal_column) under the
// spill files; this module applies it to *stored relations* (the ROADMAP
// item 4 follow-on).  A column relation file holds the Employed relation
// totally ordered by time as a sequence of self-contained TCB1 blocks,
// followed by a footer the query layer loads once and keeps resident:
//
//   header  (16 bytes)   magic "TCR1", version, rows per block
//   block 0..B-1         TCB1 blocks of ColumnRecord rows (40 bytes raw:
//                        start, end, salary, two name words), each block
//                        CRC-checked and independently decodable
//   footer  (80 B/block) one ColumnBlockInfo per block: file offset,
//                        encoded size, row count, the zone map
//                        (min/max start, min/max end) and the value
//                        summaries (sum, min, max of the salary column)
//   trailer (32 bytes)   magic "TCRF", version, block count, row count,
//                        CRC32 of the footer bytes
//
// The footer is what makes scans *pruned* (core/column_scan): a window
// query zone-map-skips blocks disjoint from the window, composes the
// footer summaries for blocks whose every row fully covers the window,
// and decodes only the boundary-straddling remainder.  Because
// PackColumnRecord rejects NULL attributes, every stored row carries a
// real salary, so `rows` doubles as the COUNT summary and the (sum, rows)
// pair as the AVG summary.
//
// Writers enforce the sorted-by-start invariant (so min_start is
// nondecreasing across blocks and a window's upper bound cuts the block
// list); readers validate magic, version, trailer CRC, and per-block
// geometry before serving a single row.  Each Reader owns its own file
// handle, so concurrent scans of one shared ColumnRelation never contend.
//
// Fault-injector seams (testing/fault_injector.h):
//   column_relation.create   ColumnRelationWriter::Create / Open's fopen
//   column_relation.append   block encode + write (FlushBlock)
//   column_relation.footer   footer/trailer write in Finish, footer read
//                            and validation in Open
//   column_relation.read     Reader::ReadBlock and Reader::ReadColumns

#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "storage/temporal_column.h"
#include "temporal/catalog.h"
#include "temporal/tuple.h"
#include "util/result.h"

namespace tagg {

/// Longest storable name: the two name words hold a length byte plus up
/// to 15 name bytes.
inline constexpr size_t kMaxNameLength = 15;

/// One stored row of the Employed relation as five 8-byte fields: the
/// paper's four germane attributes (name, salary, start, stop).  The two
/// name words hold 16 bytes: the name's length, then its bytes, then
/// zero padding.
struct ColumnRecord {
  Instant start;
  Instant end;
  int64_t salary;
  uint64_t name0;
  uint64_t name1;
};
static_assert(sizeof(ColumnRecord) == 40);

/// The codec layout of a ColumnRecord: timestamps delta-of-delta encoded,
/// the salary as a zigzag varint, the name words through the exact
/// XOR-double window codec (arbitrary bit patterns round-trip).
TemporalColumnLayout ColumnRecordLayout();

/// The attribute index of the stored value column (salary) in the
/// Employed record schema — the only attribute a pruned scan can
/// aggregate besides COUNT(*).
inline constexpr size_t kColumnValueAttribute = 1;

/// Default rows per block: 4096 rows x 40 raw bytes = 160 KiB raw per
/// block, small enough that narrow windows prune most of a large file and
/// large enough that the codec and CRC amortize.
inline constexpr uint32_t kDefaultColumnRowsPerBlock = 4096;

/// Fixed on-disk sizes.
inline constexpr size_t kColumnHeaderSize = 16;
inline constexpr size_t kColumnTrailerSize = 32;
inline constexpr size_t kColumnBlockInfoSize = 80;

/// Footer entry of one block: location, zone map, and monoid summaries.
/// Ten 8-byte fields; written to disk verbatim.
struct ColumnBlockInfo {
  uint64_t offset;         ///< file offset of the block's TCB1 header
  uint64_t encoded_bytes;  ///< total encoded block size (header + payload)
  uint64_t rows;           ///< rows in the block (== COUNT summary)
  Instant min_start;       ///< zone map over the rows' periods
  Instant max_start;
  Instant min_end;
  Instant max_end;
  double sum;        ///< SUM of the value column over the block's rows
  double min_value;  ///< MIN of the value column
  double max_value;  ///< MAX of the value column
};
static_assert(sizeof(ColumnBlockInfo) == kColumnBlockInfoSize);

/// Packs an Employed tuple (string name, int salary) into columnar
/// shape.  InvalidArgument for any other arity or types (NULLs included)
/// and for a name longer than kMaxNameLength bytes.
Status PackColumnRecord(const Tuple& tuple, ColumnRecord* out);

/// Inverse of PackColumnRecord.  Corruption for a name length over
/// kMaxNameLength or an invalid period.
Result<Tuple> UnpackColumnRecord(const ColumnRecord& record);

/// Streaming writer: append rows in nondecreasing start order, then
/// Finish() exactly once to seal the footer and trailer.
class ColumnRelationWriter {
 public:
  static Result<std::unique_ptr<ColumnRelationWriter>> Create(
      const std::string& path,
      uint32_t rows_per_block = kDefaultColumnRowsPerBlock);

  ColumnRelationWriter(const ColumnRelationWriter&) = delete;
  ColumnRelationWriter& operator=(const ColumnRelationWriter&) = delete;
  ~ColumnRelationWriter();

  /// Buffers one row; encodes and writes a block when rows_per_block
  /// accumulate.  Rejects rows that break the sorted-by-start invariant.
  Status Append(const ColumnRecord& record);

  /// Flushes the partial tail block, writes footer + trailer, and closes
  /// the file.  The writer is unusable afterwards.
  Status Finish();

  uint64_t row_count() const { return row_count_; }
  /// Encoded block bytes written so far (excludes header/footer/trailer).
  uint64_t encoded_bytes() const { return encoded_bytes_; }

 private:
  ColumnRelationWriter(std::string path, std::FILE* file,
                       uint32_t rows_per_block);

  Status FlushBlock();

  std::string path_;
  std::FILE* file_;
  uint32_t rows_per_block_;
  std::vector<ColumnRecord> pending_;
  std::vector<ColumnBlockInfo> blocks_;
  uint64_t next_offset_ = kColumnHeaderSize;
  uint64_t row_count_ = 0;
  uint64_t encoded_bytes_ = 0;
  Instant last_start_ = 0;
  bool have_rows_ = false;
  bool finished_ = false;
};

class ColumnRelationReader;

/// The columns a pruned scan reads of one block: start, end and salary,
/// the first three fields of ColumnRecordLayout(), decoded into arrays,
/// plus the block's encoded bytes.  Filled by
/// ColumnRelationReader::ReadColumns.  The buffers only grow, so reading
/// into the same object again reuses memory that is already mapped and
/// likely cached; an object holds as much as the largest block it has
/// read (24 B a row plus the encoded block: about 96 KB + 53 KB for a
/// default 4,096-row block of short names).
class ColumnBlockColumns {
 public:
  /// Rows of the last block read; 0 after a failed read.
  size_t rows() const { return rows_; }
  std::span<const Instant> start() const { return {start_.data(), rows_}; }
  std::span<const Instant> end() const { return {end_.data(), rows_}; }
  std::span<const int64_t> salary() const { return {salary_.data(), rows_}; }

 private:
  friend class ColumnRelationReader;

  std::vector<char> encoded_;
  std::vector<Instant> start_;
  std::vector<Instant> end_;
  std::vector<int64_t> salary_;
  size_t rows_ = 0;
};

/// Immutable, shareable metadata of an opened column relation file: the
/// validated footer plus the file geometry.  Registered with the catalog
/// as the ColumnBacking of its in-memory relation; scans obtain a Reader
/// (one file handle per scan) and never mutate shared state, so one
/// ColumnRelation serves any number of concurrent scans.
class ColumnRelation : public ColumnBacking,
                       public std::enable_shared_from_this<ColumnRelation> {
 public:
  /// Opens and validates a file written by ColumnRelationWriter: magic,
  /// version, trailer CRC over the footer, per-block geometry, and the
  /// sorted-by-start invariant.
  static Result<std::shared_ptr<const ColumnRelation>> Open(
      const std::string& path);

  uint64_t row_count() const override { return row_count_; }
  const std::string& path() const override { return path_; }

  const std::vector<ColumnBlockInfo>& blocks() const { return blocks_; }
  uint32_t rows_per_block() const { return rows_per_block_; }
  /// Sum of encoded block bytes (the prunable volume of the file).
  uint64_t encoded_bytes() const { return encoded_bytes_; }
  uint64_t file_bytes() const { return file_bytes_; }

  /// A chunked block reader over this relation's file.  The reader keeps
  /// a shared_ptr to the relation, so it may outlive the caller's handle.
  Result<std::unique_ptr<ColumnRelationReader>> NewReader() const;

 private:
  ColumnRelation() = default;

  std::string path_;
  std::vector<ColumnBlockInfo> blocks_;
  uint32_t rows_per_block_ = 0;
  uint64_t row_count_ = 0;
  uint64_t encoded_bytes_ = 0;
  uint64_t file_bytes_ = 0;
};

/// Per-scan cursor: reads and decodes one block at a time through its own
/// file handle.  Not thread-safe; open one reader per scanning thread.
class ColumnRelationReader {
 public:
  ColumnRelationReader(const ColumnRelationReader&) = delete;
  ColumnRelationReader& operator=(const ColumnRelationReader&) = delete;
  ~ColumnRelationReader();

  /// Reads block `index`, CRC-verifies it, and decodes its rows straight
  /// onto the end of `out`.  The block's record count is checked against
  /// its footer entry before `out` grows.  On failure `out` keeps its old
  /// size and contents.
  Status ReadBlock(size_t index, std::vector<ColumnRecord>* out);

  /// Reads block `index` into `out`: the same checks as ReadBlock (the
  /// header's count against the footer's before `out` grows, the payload
  /// bound, the CRC over the whole payload), but only start, end and
  /// salary are decoded, into `out`'s arrays; the name columns are
  /// verified by the CRC and never parsed.  So a block whose name column
  /// is malformed under a valid CRC reads here and fails ReadBlock with
  /// Corruption; the scan, which never looks at names, gets the same
  /// rows either way.  On failure out->rows() is 0.
  Status ReadColumns(size_t index, ColumnBlockColumns* out);

 private:
  friend class ColumnRelation;
  ColumnRelationReader(std::shared_ptr<const ColumnRelation> relation,
                       std::FILE* file);

  /// Reads block `index`'s encoded bytes into `encoded` and returns its
  /// record count, checked against the footer entry.
  Result<size_t> ReadEncoded(size_t index, std::vector<char>* encoded);

  std::shared_ptr<const ColumnRelation> relation_;
  std::FILE* file_;
  std::vector<char> encoded_;  // ReadBlock's, reused per block
};

}  // namespace tagg
