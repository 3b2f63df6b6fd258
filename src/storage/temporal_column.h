// Compressed temporal column blocks for spill files.
//
// The partitioned aggregation spills two POD record shapes — clipped
// tuples ({start, end, input}) and endpoint events ({at, dv, dn}) — whose
// fields compress extremely well column-wise: timestamps are clustered
// (sorted outright inside external-sort runs), values repeat, and count
// deltas are ±1.  This module is the block codec behind SpillFile's codec
// seam:
//
//   * timestamps: delta-of-delta, zigzag varint (Gorilla-style; a sorted
//     run of near-regular instants costs ~1 byte each),
//   * doubles: XOR against the previous value, byte-aligned
//     leading/meaningful-window encoding (repeats cost 1 byte; the
//     payload bits round-trip exactly, including NaN/Inf/-0.0),
//   * small ints: zigzag varint (±1 count deltas cost 1 byte).
//
// Every Append becomes one self-contained block — the encoder state never
// crosses blocks, so concurrent writers interleaving blocks in one file
// stay decodable, and a corrupt block cannot poison its neighbours.  Each
// block carries a header (magic, record count, payload size, CRC32) and
// decode fails with Status::Corruption on any truncation, bit flip,
// malformed stream, or record count its payload cannot hold, never with
// undefined behaviour or an allocation sized by a forged header.
//
// Fault-injector seams: `temporal_column.encode` (block encode, i.e. the
// spill write path) and `temporal_column.decode` (block decode, the
// replay path) — see testing/fault_injector.h.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/result.h"

namespace tagg {

/// Describes a POD record as a sequence of 8-byte fields, each encoded by
/// the codec matching its kind.  An empty layout is invalid everywhere.
struct TemporalColumnLayout {
  enum class Field : uint8_t {
    kTime,    // int64 instants: delta-of-delta zigzag varint
    kDouble,  // IEEE doubles: XOR + byte-aligned meaningful window
    kInt,     // small int64 deltas: zigzag varint
  };

  std::vector<Field> fields;

  size_t record_size() const { return fields.size() * 8; }
  bool empty() const { return fields.empty(); }
};

/// On-disk block header size (magic, count, payload size, CRC32).
constexpr size_t kTemporalBlockHeaderSize = 16;

/// Encodes `n` records (contiguous AoS, layout.record_size() bytes each)
/// as one self-contained block appended to `out`.
Status EncodeTemporalBlock(const TemporalColumnLayout& layout,
                           const void* records, size_t n, std::string* out);

/// The record count the block at `data` declares, checked against its
/// payload before anything is allocated: every field of every record
/// costs at least one payload byte, so a count with count x fields >
/// payload size is Corruption, as is a truncated header or payload.  The
/// CRC is not checked here; DecodeTemporalBlock checks it.
Result<size_t> TemporalBlockRecordCount(const TemporalColumnLayout& layout,
                                        const void* data, size_t size);

/// Where a decode writes one field: the field of record i goes to the 8
/// bytes at `data + i * stride`.  A record layout passes `base + 8 f`
/// with stride record_size(); a column array passes stride 8.
struct TemporalFieldOut {
  void* data;
  size_t stride;
};

/// Decodes the first `fields.size()` fields of the block at `data` (up
/// to `size` readable bytes), field f through `fields[f]`, for `count`
/// records, and returns the encoded block's total size in bytes.  This
/// is the one decode body; the overloads below call it.
///
/// The block is CRC-verified over its whole payload before a byte is
/// written, so a prefix decode still rejects a flipped bit in a column
/// it does not parse.  A block declaring any other record count is
/// Corruption.  A decode of every field also requires the fields to end
/// exactly where the payload does; a prefix decode only requires its own
/// fields to fit inside the payload, so a column past the prefix that is
/// malformed under a valid CRC goes unnoticed.  Truncated, bit-flipped,
/// or otherwise malformed blocks return Status::Corruption without
/// reading out of bounds; on failure the outputs may hold partial data.
/// InvalidArgument for no field outputs or more than the layout has.
Result<size_t> DecodeTemporalBlock(const TemporalColumnLayout& layout,
                                   const void* data, size_t size,
                                   std::span<const TemporalFieldOut> fields,
                                   size_t count);

/// Decodes every field of the block at `data` straight into `records`,
/// which has room for `count` records of layout.record_size() bytes.
Result<size_t> DecodeTemporalBlock(const TemporalColumnLayout& layout,
                                   const void* data, size_t size,
                                   void* records, size_t count);

/// Decodes the block at `data` as above, appending the records to `out`
/// and returning the encoded block's total size in bytes.  On failure
/// `out` is left as it was.
Result<size_t> DecodeTemporalBlock(const TemporalColumnLayout& layout,
                                   const void* data, size_t size,
                                   std::vector<char>* out);

/// CRC-32 (reflected, poly 0xEDB88320, pre- and post-inverted) over `n`
/// bytes, continuing `crc` (pass 0 to start).  Computed slicing-by-16:
/// sixteen bytes per step through sixteen 256-entry tables, with the
/// byte-at-a-time loop as the tail.  Exposed for tests that forge
/// corrupt blocks.
uint32_t Crc32(uint32_t crc, const void* data, size_t n);

}  // namespace tagg
