#include "storage/temporal_column.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "storage/external_sort.h"
#include "storage/spill_file.h"
#include "testing/fault_injector.h"

namespace tagg {
namespace {

using Field = TemporalColumnLayout::Field;

// The two record shapes the partitioned aggregation actually spills.
struct EntryRec {
  int64_t start;
  int64_t end;
  double input;
};
struct EventRec {
  int64_t at;
  double dv;
  int64_t dn;
};

TemporalColumnLayout EntryLayout() {
  return {{Field::kTime, Field::kTime, Field::kDouble}};
}
TemporalColumnLayout EventLayout() {
  return {{Field::kTime, Field::kDouble, Field::kInt}};
}

uint64_t BitsOf(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// Encodes `recs`, decodes the block back, and asserts a byte-exact round
// trip (doubles compared as bit patterns, so NaN payloads count).
template <typename Rec>
void ExpectRoundTrip(const TemporalColumnLayout& layout,
                     const std::vector<Rec>& recs) {
  std::string block;
  ASSERT_TRUE(
      EncodeTemporalBlock(layout, recs.data(), recs.size(), &block).ok());
  ASSERT_GE(block.size(), kTemporalBlockHeaderSize);

  std::vector<char> out;
  auto consumed = DecodeTemporalBlock(layout, block.data(), block.size(), &out);
  ASSERT_TRUE(consumed.ok()) << consumed.status().ToString();
  EXPECT_EQ(consumed.value(), block.size());
  ASSERT_EQ(out.size(), recs.size() * sizeof(Rec));
  EXPECT_EQ(std::memcmp(out.data(), recs.data(), out.size()), 0)
      << "decoded records differ from the originals";
}

TEST(TemporalColumnTest, RoundTripsSortedRegularTimestamps) {
  std::vector<EventRec> recs;
  for (int64_t i = 0; i < 1000; ++i) {
    recs.push_back({i * 10, static_cast<double>(i % 7), (i % 2) ? 1 : -1});
  }
  ExpectRoundTrip(EventLayout(), recs);

  // A perfectly regular sorted run is the codec's best case: after the
  // first two timestamps every delta-of-delta is zero.
  std::string block;
  ASSERT_TRUE(
      EncodeTemporalBlock(EventLayout(), recs.data(), recs.size(), &block)
          .ok());
  EXPECT_LT(block.size(), recs.size() * sizeof(EventRec) / 4)
      << "sorted regular events should compress at least 4x";
}

TEST(TemporalColumnTest, RoundTripsAdversarialTimestampGaps) {
  // Alternating huge jumps exercise the widest zigzag varints, including
  // deltas that overflow the naive (unwrapped) int64 subtraction.
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = std::numeric_limits<int64_t>::min();
  std::vector<EntryRec> recs = {
      {0, max - 1, 1.0},  {min, max, -1.0},       {max, min, 0.5},
      {-1, 1, 2.0},       {max / 2, min / 2, 3.0}, {0, 0, 4.0},
      {min + 1, -7, 5.0},
  };
  ExpectRoundTrip(EntryLayout(), recs);
}

TEST(TemporalColumnTest, RoundTripsExtremeAndSpecialDoubles) {
  const double inf = std::numeric_limits<double>::infinity();
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  // A NaN with a distinctive payload: bit-exactness means even this
  // round-trips unchanged.
  uint64_t payload_bits = 0x7FF8DEADBEEF0001ULL;
  double payload_nan;
  std::memcpy(&payload_nan, &payload_bits, sizeof(payload_nan));

  std::vector<EventRec> recs;
  recs.push_back({0, 1e17, 1});
  recs.push_back({1, -1e17, -1});
  recs.push_back({2, 0.0, 1});
  recs.push_back({3, -0.0, -1});
  recs.push_back({4, inf, 1});
  recs.push_back({5, -inf, -1});
  recs.push_back({6, qnan, 1});
  recs.push_back({7, payload_nan, -1});
  recs.push_back({8, std::numeric_limits<double>::denorm_min(), 1});
  recs.push_back({9, std::numeric_limits<double>::max(), -1});
  ExpectRoundTrip(EventLayout(), recs);

  // Spot-check the signs/payloads explicitly (memcmp already covers this,
  // but a targeted failure message beats a byte-offset diff).
  std::string block;
  ASSERT_TRUE(
      EncodeTemporalBlock(EventLayout(), recs.data(), recs.size(), &block)
          .ok());
  std::vector<char> out;
  ASSERT_TRUE(
      DecodeTemporalBlock(EventLayout(), block.data(), block.size(), &out)
          .ok());
  std::vector<EventRec> got(recs.size());
  std::memcpy(got.data(), out.data(), out.size());
  EXPECT_EQ(BitsOf(got[3].dv), BitsOf(-0.0));
  EXPECT_EQ(BitsOf(got[7].dv), payload_bits);
}

TEST(TemporalColumnTest, RoundTripsRandomRecords) {
  std::mt19937_64 rng(20260807);
  std::vector<EventRec> recs;
  for (int i = 0; i < 4096; ++i) {
    EventRec r;
    r.at = static_cast<int64_t>(rng());
    const uint64_t bits = rng();
    std::memcpy(&r.dv, &bits, sizeof(r.dv));
    r.dn = static_cast<int64_t>(rng() % 5) - 2;
    recs.push_back(r);
  }
  ExpectRoundTrip(EventLayout(), recs);
}

TEST(TemporalColumnTest, EmptyBlockRoundTrips) {
  std::string block;
  ASSERT_TRUE(EncodeTemporalBlock(EventLayout(), nullptr, 0, &block).ok());
  std::vector<char> out;
  auto consumed =
      DecodeTemporalBlock(EventLayout(), block.data(), block.size(), &out);
  ASSERT_TRUE(consumed.ok()) << consumed.status().ToString();
  EXPECT_EQ(consumed.value(), block.size());
  EXPECT_TRUE(out.empty());
}

TEST(TemporalColumnTest, RejectsEmptyLayout) {
  const EventRec r{0, 0.0, 1};
  std::string block;
  EXPECT_TRUE(EncodeTemporalBlock({}, &r, 1, &block)
                  .IsInvalidArgument());
}

TEST(TemporalColumnTest, ConcatenatedBlocksDecodeSequentially) {
  // Concurrent spill writers interleave self-contained blocks in one
  // file; the decoder must consume exactly one block per call.
  std::vector<EventRec> a = {{1, 2.0, 1}, {5, -2.0, -1}};
  std::vector<EventRec> b = {{100, 7.0, 1}};
  std::string file;
  ASSERT_TRUE(EncodeTemporalBlock(EventLayout(), a.data(), a.size(), &file)
                  .ok());
  const size_t first = file.size();
  ASSERT_TRUE(EncodeTemporalBlock(EventLayout(), b.data(), b.size(), &file)
                  .ok());

  std::vector<char> out;
  auto c1 = DecodeTemporalBlock(EventLayout(), file.data(), file.size(), &out);
  ASSERT_TRUE(c1.ok());
  EXPECT_EQ(c1.value(), first);
  ASSERT_EQ(out.size(), a.size() * sizeof(EventRec));
  auto c2 = DecodeTemporalBlock(EventLayout(), file.data() + first,
                                file.size() - first, &out);
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(first + c2.value(), file.size());
  ASSERT_EQ(out.size(), (a.size() + b.size()) * sizeof(EventRec));
  EventRec last;
  std::memcpy(&last, out.data() + a.size() * sizeof(EventRec),
              sizeof(last));
  EXPECT_EQ(last.at, 100);
}

std::string EncodeSampleBlock() {
  std::vector<EventRec> recs;
  for (int64_t i = 0; i < 64; ++i) recs.push_back({i * 3, i * 0.25, 1});
  std::string block;
  EXPECT_TRUE(
      EncodeTemporalBlock(EventLayout(), recs.data(), recs.size(), &block)
          .ok());
  return block;
}

// A record shaped like a stored row: start, end, salary and two name
// words, the layout whose first three fields a column scan decodes.
struct RowRec {
  int64_t start;
  int64_t end;
  int64_t salary;
  double name0;
  double name1;
};

TemporalColumnLayout RowLayout() {
  return {{Field::kTime, Field::kTime, Field::kInt, Field::kDouble,
           Field::kDouble}};
}

std::vector<RowRec> SampleRows() {
  std::vector<RowRec> recs;
  for (int64_t i = 0; i < 64; ++i) {
    recs.push_back({i * 3, i * 3 + 40 + i % 5, 30000 + (i * 7919) % 500,
                    static_cast<double>(i % 3), -0.0});
  }
  return recs;
}

std::string EncodeRows(const std::vector<RowRec>& recs) {
  std::string block;
  EXPECT_TRUE(
      EncodeTemporalBlock(RowLayout(), recs.data(), recs.size(), &block)
          .ok());
  return block;
}

/// The first `k` fields of `layout`, decoded the way a column reader
/// does it: the record count first, then one array per field.
Result<std::vector<std::vector<uint64_t>>> DecodePrefix(
    const TemporalColumnLayout& layout, const void* data, size_t size,
    size_t k) {
  TAGG_ASSIGN_OR_RETURN(const size_t count,
                        TemporalBlockRecordCount(layout, data, size));
  std::vector<std::vector<uint64_t>> columns(k,
                                             std::vector<uint64_t>(count));
  std::vector<TemporalFieldOut> fields;
  for (std::vector<uint64_t>& column : columns) {
    fields.push_back({column.data(), sizeof(uint64_t)});
  }
  TAGG_ASSIGN_OR_RETURN(const size_t consumed,
                        DecodeTemporalBlock(layout, data, size, fields,
                                            count));
  if (consumed != size) return Status::Corruption("block size differs");
  return columns;
}

/// Asserts `columns` hold exactly the first columns.size() fields of
/// `recs`, bit for bit.
template <typename Rec>
void ExpectColumnsMatch(const std::vector<std::vector<uint64_t>>& columns,
                        const std::vector<Rec>& recs) {
  for (size_t f = 0; f < columns.size(); ++f) {
    ASSERT_EQ(columns[f].size(), recs.size()) << "field " << f;
    for (size_t i = 0; i < recs.size(); ++i) {
      uint64_t want;
      std::memcpy(&want, reinterpret_cast<const char*>(&recs[i]) + 8 * f,
                  sizeof(want));
      ASSERT_EQ(columns[f][i], want) << "field " << f << " record " << i;
    }
  }
}

TEST(TemporalColumnTest, EveryTruncationFailsCleanly) {
  const std::string block = EncodeSampleBlock();
  for (size_t len = 0; len < block.size(); ++len) {
    std::vector<char> out;
    auto got = DecodeTemporalBlock(EventLayout(), block.data(), len, &out);
    EXPECT_TRUE(got.status().IsCorruption())
        << "prefix of " << len << " bytes: " << got.status().ToString();
    EXPECT_TRUE(out.empty())
        << "prefix of " << len << " bytes left partial records in out";
  }
  // A prefix decode stops before the payload's end, yet a truncation
  // anywhere, inside or past its columns, is still Corruption: the
  // payload bound and the CRC cover the whole block.
  const std::string rows = EncodeRows(SampleRows());
  for (size_t k = 1; k <= 3; ++k) {
    for (size_t len = 0; len < rows.size(); ++len) {
      auto got = DecodePrefix(RowLayout(), rows.data(), len, k);
      EXPECT_TRUE(got.status().IsCorruption())
          << k << " columns, prefix of " << len
          << " bytes: " << got.status().ToString();
    }
  }
}

TEST(TemporalColumnTest, EveryBitFlipFailsCleanlyOrRoundTrips) {
  // Flip every bit of the block.  Header/payload flips are all covered by
  // the magic check, the size bounds, or the CRC, so each one must be
  // Corruption, never a wrong answer or out-of-bounds read.
  const std::string block = EncodeSampleBlock();
  std::vector<char> want;
  ASSERT_TRUE(
      DecodeTemporalBlock(EventLayout(), block.data(), block.size(), &want)
          .ok());
  for (size_t byte = 0; byte < block.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = block;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      std::vector<char> out;
      auto got = DecodeTemporalBlock(EventLayout(), mutated.data(),
                                     mutated.size(), &out);
      ASSERT_FALSE(got.ok())
          << "bit flip at byte " << byte << " bit " << bit
          << " was not detected";
      EXPECT_TRUE(got.status().IsCorruption())
          << "byte " << byte << " bit " << bit << ": "
          << got.status().ToString();
      EXPECT_TRUE(out.empty())
          << "byte " << byte << " bit " << bit
          << " left partial records in out";
    }
  }
  // The same sweep over a stored-row block decoded as its first three
  // columns: each flip is Corruption or the three columns exactly.  A
  // flip in the name columns, which the decode never parses, must still
  // fail the CRC.
  const std::vector<RowRec> recs = SampleRows();
  const std::string rows = EncodeRows(recs);
  auto clean = DecodePrefix(RowLayout(), rows.data(), rows.size(), 3);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ExpectColumnsMatch(*clean, recs);
  size_t detected = 0;
  for (size_t byte = 0; byte < rows.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = rows;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      auto got = DecodePrefix(RowLayout(), mutated.data(), mutated.size(), 3);
      if (got.ok()) {
        ExpectColumnsMatch(*got, recs);
        continue;
      }
      ++detected;
      EXPECT_TRUE(got.status().IsCorruption())
          << "byte " << byte << " bit " << bit << ": "
          << got.status().ToString();
    }
  }
  EXPECT_EQ(detected, rows.size() * 8) << "a flip went unnoticed";
}

TEST(TemporalColumnTest, PrefixDecodeMatchesWholeRecordDecode) {
  const std::vector<RowRec> recs = SampleRows();
  const std::string rows = EncodeRows(recs);
  for (size_t k = 1; k <= RowLayout().fields.size(); ++k) {
    auto got = DecodePrefix(RowLayout(), rows.data(), rows.size(), k);
    ASSERT_TRUE(got.ok()) << k << ": " << got.status().ToString();
    ExpectColumnsMatch(*got, recs);
  }
}

TEST(TemporalColumnTest, PrefixDecodeWritesOnlyItsColumnsAndRows) {
  // Five column arrays, each one row longer than the block, all filled
  // with a sentinel; the decode is handed the first three.  It must fill
  // rows [0, count) of those three and touch nothing else.
  const std::vector<RowRec> recs = SampleRows();
  const std::string rows = EncodeRows(recs);
  constexpr uint64_t kSentinel = 0xA5A5A5A5A5A5A5A5ull;
  std::vector<std::vector<uint64_t>> columns(
      5, std::vector<uint64_t>(recs.size() + 1, kSentinel));
  std::vector<TemporalFieldOut> fields;
  for (std::vector<uint64_t>& column : columns) {
    fields.push_back({column.data(), sizeof(uint64_t)});
  }
  auto consumed = DecodeTemporalBlock(
      RowLayout(), rows.data(), rows.size(),
      std::span<const TemporalFieldOut>(fields).first(3), recs.size());
  ASSERT_TRUE(consumed.ok()) << consumed.status().ToString();
  EXPECT_EQ(*consumed, rows.size());
  for (size_t f = 0; f < 5; ++f) {
    for (size_t i = 0; i < columns[f].size(); ++i) {
      if (f < 3 && i < recs.size()) continue;
      EXPECT_EQ(columns[f][i], kSentinel) << "field " << f << " row " << i;
    }
  }
  std::vector<std::vector<uint64_t>> decoded(3);
  for (size_t f = 0; f < 3; ++f) {
    decoded[f].assign(columns[f].begin(), columns[f].end() - 1);
  }
  ExpectColumnsMatch(decoded, recs);

  // Strided outputs land where the stride puts them.
  std::vector<RowRec> into(recs.size(), RowRec{-1, -1, -1, -1.0, -1.0});
  const TemporalFieldOut strided[] = {{&into[0].start, sizeof(RowRec)},
                                      {&into[0].end, sizeof(RowRec)}};
  ASSERT_TRUE(DecodeTemporalBlock(RowLayout(), rows.data(), rows.size(),
                                  strided, recs.size())
                  .ok());
  for (size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(into[i].start, recs[i].start) << i;
    EXPECT_EQ(into[i].end, recs[i].end) << i;
    EXPECT_EQ(into[i].salary, -1) << i;
  }
}

TEST(TemporalColumnTest, PrefixDecodeRejectsBadFieldCounts) {
  const std::string rows = EncodeRows(SampleRows());
  std::vector<uint64_t> column(SampleRows().size() * 6);
  std::vector<TemporalFieldOut> six(6, {column.data(), sizeof(uint64_t)});
  for (size_t k : {size_t{0}, size_t{6}}) {
    auto got = DecodeTemporalBlock(
        RowLayout(), rows.data(), rows.size(),
        std::span<const TemporalFieldOut>(six).first(k), SampleRows().size());
    EXPECT_TRUE(got.status().IsInvalidArgument())
        << k << ": " << got.status().ToString();
  }
}

TEST(TemporalColumnTest, PrefixDecodeParsesOnlyItsColumns) {
  // A malformed last column under a valid CRC: a whole-record decode
  // parses it and fails; a decode of the columns before it never reads
  // it and returns them exactly.  (Control byte 0x10 declares a one-byte
  // leading window with no meaningful bytes, which no encoder writes.)
  const std::vector<RowRec> recs = SampleRows();
  std::string block = EncodeRows(recs);
  std::string four;
  {
    // The first four columns alone: the fifth starts where they end.
    std::vector<char> aos(recs.size() * 32);
    for (size_t i = 0; i < recs.size(); ++i) {
      std::memcpy(aos.data() + 32 * i, &recs[i], 32);
    }
    const TemporalColumnLayout layout{
        {Field::kTime, Field::kTime, Field::kInt, Field::kDouble}};
    ASSERT_TRUE(
        EncodeTemporalBlock(layout, aos.data(), recs.size(), &four).ok());
  }
  block[four.size()] = 0x10;
  uint32_t payload_size;
  std::memcpy(&payload_size, block.data() + 8, sizeof(payload_size));
  uint32_t crc =
      Crc32(0, block.data() + kTemporalBlockHeaderSize, payload_size);
  crc = Crc32(crc, block.data() + 4, 8);
  std::memcpy(block.data() + 12, &crc, sizeof(crc));

  std::vector<char> whole;
  EXPECT_TRUE(DecodeTemporalBlock(RowLayout(), block.data(), block.size(),
                                  &whole)
                  .status()
                  .IsCorruption());
  for (size_t k = 1; k <= 4; ++k) {
    auto got = DecodePrefix(RowLayout(), block.data(), block.size(), k);
    ASSERT_TRUE(got.ok()) << k << ": " << got.status().ToString();
    ExpectColumnsMatch(*got, recs);
  }
  EXPECT_TRUE(DecodePrefix(RowLayout(), block.data(), block.size(), 5)
                  .status()
                  .IsCorruption());
}

TEST(TemporalColumnTest, TrailingPayloadBytesAreCorruption) {
  // A payload that decodes all records before reaching payload_size means
  // the stream is inconsistent with its own header.
  const std::string block = EncodeSampleBlock();
  std::string mutated = block;
  // Grow the payload by one byte and patch payload_size + CRC so only the
  // "cursor != end" consistency check can catch it.
  mutated.push_back('\0');
  uint32_t payload_size;
  std::memcpy(&payload_size, mutated.data() + 8, sizeof(payload_size));
  ++payload_size;
  std::memcpy(mutated.data() + 8, &payload_size, sizeof(payload_size));
  uint32_t crc = Crc32(0, mutated.data() + kTemporalBlockHeaderSize,
                       payload_size);
  crc = Crc32(crc, mutated.data() + 4, 8);  // count + payload_size
  std::memcpy(mutated.data() + 12, &crc, sizeof(crc));
  std::vector<char> out;
  auto got = DecodeTemporalBlock(EventLayout(), mutated.data(),
                                 mutated.size(), &out);
  EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
}

TEST(TemporalColumnTest, Crc32MatchesKnownVector) {
  // The reflected CRC-32 of "123456789" is the classic check value.
  EXPECT_EQ(Crc32(0, "123456789", 9), 0xCBF43926u);
}

// The definition Crc32 must match: one table lookup per byte.
uint32_t ReferenceCrc32(uint32_t crc, const uint8_t* p, size_t n) {
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

TEST(TemporalColumnTest, SlicedCrc32MatchesBytewiseDefinition) {
  // Every length across the 16-byte step and its tail, from every start
  // alignment, and chained at every split point.
  std::mt19937 rng(23);
  std::vector<uint8_t> buf(257 + 16);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng());
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 257; ++len) {
      const uint8_t* p = buf.data() + offset;
      const uint32_t want = ReferenceCrc32(0, p, len);
      ASSERT_EQ(Crc32(0, p, len), want)
          << "offset " << offset << " length " << len;
      if (offset != 0) continue;  // chaining is alignment-independent
      for (size_t split = 0; split <= len; ++split) {
        ASSERT_EQ(Crc32(Crc32(0, p, split), p + split, len - split), want)
            << "length " << len << " split at " << split;
      }
    }
  }
}

TEST(TemporalColumnTest, DecodesIntoCallerBuffer) {
  std::vector<EventRec> recs;
  for (int64_t i = 0; i < 100; ++i) recs.push_back({i * 5, i * 0.5, 1});
  std::string block;
  ASSERT_TRUE(
      EncodeTemporalBlock(EventLayout(), recs.data(), recs.size(), &block)
          .ok());
  std::vector<EventRec> got(recs.size());
  auto consumed = DecodeTemporalBlock(EventLayout(), block.data(),
                                      block.size(), got.data(), got.size());
  ASSERT_TRUE(consumed.ok()) << consumed.status().ToString();
  EXPECT_EQ(consumed.value(), block.size());
  EXPECT_EQ(
      std::memcmp(got.data(), recs.data(), recs.size() * sizeof(EventRec)),
      0);

  // A caller expecting one record fewer or one more: rejected before a
  // record is written.
  for (size_t expected : {recs.size() - 1, recs.size() + 1}) {
    std::vector<EventRec> other(expected, EventRec{-1, -1.0, -1});
    auto got_other = DecodeTemporalBlock(
        EventLayout(), block.data(), block.size(), other.data(), expected);
    EXPECT_TRUE(got_other.status().IsCorruption())
        << expected << ": " << got_other.status().ToString();
    EXPECT_EQ(other.front().at, -1) << expected;
  }
}

TEST(TemporalColumnTest, HugeRecordCountIsCorruptionNotAnAllocation) {
  // A 17-byte block whose CRC is valid but whose count claims 2^32 - 1
  // records in a one-byte payload.  Every field costs at least one byte,
  // so the count is rejected before `out` is grown for it.
  std::string block(kTemporalBlockHeaderSize + 1, '\0');
  const uint32_t magic = 0x31424354;  // "TCB1"
  const uint32_t meta[2] = {0xFFFFFFFFu, 1};
  std::memcpy(block.data(), &magic, 4);
  std::memcpy(block.data() + 4, meta, sizeof(meta));
  uint32_t crc = Crc32(0, block.data() + kTemporalBlockHeaderSize, 1);
  crc = Crc32(crc, meta, sizeof(meta));
  std::memcpy(block.data() + 12, &crc, 4);

  EXPECT_TRUE(TemporalBlockRecordCount(EventLayout(), block.data(),
                                       block.size())
                  .status()
                  .IsCorruption());
  std::vector<char> out(8, 'x');
  const size_t capacity = out.capacity();
  auto got = DecodeTemporalBlock(EventLayout(), block.data(), block.size(),
                                 &out);
  EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
  EXPECT_EQ(out, std::vector<char>(8, 'x'));
  EXPECT_EQ(out.capacity(), capacity) << "decode grew `out` for the count";
}

// --- the SpillFile codec seam ----------------------------------------------

TEST(TemporalColumnSpillTest, SpillFileCompressedRoundTrip) {
  auto file = SpillFile::Create(EventLayout());
  ASSERT_TRUE(file.ok()) << file.status().ToString();

  std::vector<EventRec> batch1, batch2;
  for (int64_t i = 0; i < 500; ++i) batch1.push_back({i * 2, 1.5, 1});
  for (int64_t i = 0; i < 300; ++i) batch2.push_back({i * 2 + 1, -1.5, -1});
  ASSERT_TRUE((*file)->Append(batch1.data(), batch1.size()).ok());
  ASSERT_TRUE((*file)->Append(batch2.data(), batch2.size()).ok());
  EXPECT_EQ((*file)->record_count(), 800u);
  EXPECT_EQ((*file)->raw_bytes(), 800 * sizeof(EventRec));
  EXPECT_GT((*file)->encoded_bytes(), 0u);
  EXPECT_LT((*file)->encoded_bytes(), (*file)->raw_bytes())
      << "compressible events must shrink on disk";

  SpillFile::Reader reader(**file);
  size_t i = 0;
  while (true) {
    auto rec = reader.Next();
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    if (rec.value() == nullptr) break;
    EventRec r;
    std::memcpy(&r, rec.value(), sizeof(r));
    const EventRec& want =
        i < batch1.size() ? batch1[i] : batch2[i - batch1.size()];
    EXPECT_EQ(r.at, want.at) << "record " << i;
    EXPECT_EQ(r.dv, want.dv) << "record " << i;
    EXPECT_EQ(r.dn, want.dn) << "record " << i;
    ++i;
  }
  EXPECT_EQ(i, 800u);
}

TEST(TemporalColumnSpillTest, EmptyCompressedFileReadsAsEof) {
  auto file = SpillFile::Create(EventLayout());
  ASSERT_TRUE(file.ok());
  SpillFile::Reader reader(**file);
  auto rec = reader.Next();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec.value(), nullptr);
}

bool EventAtLess(const void* a, const void* b) {
  return static_cast<const EventRec*>(a)->at <
         static_cast<const EventRec*>(b)->at;
}

TEST(TemporalColumnSpillTest, PodRunSorterCompressedMatchesRaw) {
  // The same reverse-ordered stream merged from compressed runs must come
  // out exactly as an in-memory sort of the raw records, and the runs
  // must report a smaller encoded footprint than the raw records.
  std::vector<EventRec> input;
  for (int64_t i = 999; i >= 0; --i) input.push_back({i, i * 0.5, 1});

  PodRunSorter sorter(EventLayout(), EventAtLess, 64);
  for (const EventRec& r : input) ASSERT_TRUE(sorter.Add(&r).ok());
  std::vector<EventRec> merged;
  ASSERT_TRUE(sorter
                  .Merge([&](const void* rec) {
                    EventRec r;
                    std::memcpy(&r, rec, sizeof(r));
                    merged.push_back(r);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_GE(sorter.runs_generated(), 2u);

  std::vector<EventRec> sorted = input;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const EventRec& a, const EventRec& b) {
                     return EventAtLess(&a, &b);
                   });
  ASSERT_EQ(merged.size(), sorted.size());
  EXPECT_EQ(std::memcmp(merged.data(), sorted.data(),
                        merged.size() * sizeof(EventRec)),
            0);
  EXPECT_EQ(sorter.run_raw_bytes(), input.size() * sizeof(EventRec))
      << "every record passes through exactly one run";
  EXPECT_LT(sorter.run_encoded_bytes(), sorter.run_raw_bytes())
      << "sorted runs must compress";
}

// --- fault seams ------------------------------------------------------------

TEST(TemporalColumnFaultTest, EncodeSeamSurfacesInjectedFault) {
  auto file = SpillFile::Create(EventLayout());
  ASSERT_TRUE(file.ok());
  testing::FaultInjector& injector = testing::FaultInjector::Global();
  injector.Arm("temporal_column.encode", 1);
  const EventRec r{1, 1.0, 1};
  const Status st = (*file)->Append(&r, 1);
  injector.Disarm();
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_EQ((*file)->record_count(), 0u)
      << "a failed Append must not count records";
  // The fault is transient: the next Append and a full replay succeed.
  ASSERT_TRUE((*file)->Append(&r, 1).ok());
  SpillFile::Reader reader(**file);
  auto rec = reader.Next();
  ASSERT_TRUE(rec.ok());
  ASSERT_NE(rec.value(), nullptr);
}

TEST(TemporalColumnFaultTest, DecodeSeamSurfacesInjectedFault) {
  auto file = SpillFile::Create(EventLayout());
  ASSERT_TRUE(file.ok());
  const EventRec r{1, 1.0, 1};
  ASSERT_TRUE((*file)->Append(&r, 1).ok());
  testing::FaultInjector& injector = testing::FaultInjector::Global();
  injector.Arm("temporal_column.decode", 1);
  SpillFile::Reader reader(**file);
  const auto got = reader.Next();
  injector.Disarm();
  EXPECT_TRUE(got.status().IsIOError()) << got.status().ToString();
}

}  // namespace
}  // namespace tagg
