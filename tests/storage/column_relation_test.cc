#include "storage/column_relation.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/workload.h"
#include "storage/relation_io.h"
#include "temporal/csv.h"
#include "temporal/relation.h"
#include "temporal/schema.h"
#include "testing/fault_injector.h"

namespace tagg {
namespace {

namespace fs = std::filesystem;

std::string TestPath(const std::string& stem) {
  return (fs::temp_directory_path() /
          (stem + "_" + std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".tcr"))
      .string();
}

Schema EmployedSchema() {
  auto schema = Schema::Make(
      {{"name", ValueType::kString}, {"salary", ValueType::kInt}});
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

ColumnRecord MakeRecord(Instant start, Instant end, int64_t salary) {
  ColumnRecord r{};
  r.start = start;
  r.end = end;
  r.salary = salary;
  r.name0 = 0x01'61ull;  // length 1, "a"
  r.name1 = 0;
  return r;
}

TEST(ColumnRelationTest, WriteOpenScanRoundTrips) {
  const std::string path = TestPath("column_relation");
  auto writer = ColumnRelationWriter::Create(path, /*rows_per_block=*/4);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  std::vector<ColumnRecord> written;
  for (int i = 0; i < 11; ++i) {
    written.push_back(MakeRecord(10 * i, 10 * i + 25, 100 * i - 300));
    ASSERT_TRUE((*writer)->Append(written.back()).ok());
  }
  ASSERT_TRUE((*writer)->Finish().ok());
  EXPECT_EQ((*writer)->row_count(), 11u);

  auto relation = ColumnRelation::Open(path);
  ASSERT_TRUE(relation.ok()) << relation.status().ToString();
  EXPECT_EQ((*relation)->row_count(), 11u);
  EXPECT_EQ((*relation)->rows_per_block(), 4u);
  ASSERT_EQ((*relation)->blocks().size(), 3u);  // 4 + 4 + 3

  auto reader = (*relation)->NewReader();
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::vector<ColumnRecord> read;
  for (size_t b = 0; b < (*relation)->blocks().size(); ++b) {
    ASSERT_TRUE((*reader)->ReadBlock(b, &read).ok());
  }
  ASSERT_EQ(read.size(), written.size());
  for (size_t i = 0; i < read.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(&read[i], &written[i], sizeof(ColumnRecord)))
        << "row " << i;
  }
  fs::remove(path);
}

TEST(ColumnRelationTest, FooterCarriesZoneMapAndSummaries) {
  const std::string path = TestPath("column_relation");
  auto writer = ColumnRelationWriter::Create(path, /*rows_per_block=*/8);
  ASSERT_TRUE(writer.ok());
  // One block: periods [5,40], [7,12], [9,90]; salaries -10, 50, 20.
  ASSERT_TRUE((*writer)->Append(MakeRecord(5, 40, -10)).ok());
  ASSERT_TRUE((*writer)->Append(MakeRecord(7, 12, 50)).ok());
  ASSERT_TRUE((*writer)->Append(MakeRecord(9, 90, 20)).ok());
  ASSERT_TRUE((*writer)->Finish().ok());

  auto relation = ColumnRelation::Open(path);
  ASSERT_TRUE(relation.ok()) << relation.status().ToString();
  ASSERT_EQ((*relation)->blocks().size(), 1u);
  const ColumnBlockInfo& b = (*relation)->blocks()[0];
  EXPECT_EQ(b.rows, 3u);
  EXPECT_EQ(b.min_start, 5);
  EXPECT_EQ(b.max_start, 9);
  EXPECT_EQ(b.min_end, 12);
  EXPECT_EQ(b.max_end, 90);
  EXPECT_EQ(b.sum, 60.0);
  EXPECT_EQ(b.min_value, -10.0);
  EXPECT_EQ(b.max_value, 50.0);
  EXPECT_EQ(b.offset, kColumnHeaderSize);
  fs::remove(path);
}

TEST(ColumnRelationTest, RejectsOutOfOrderAppend) {
  const std::string path = TestPath("column_relation");
  auto writer = ColumnRelationWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(MakeRecord(50, 60, 1)).ok());
  const Status status = (*writer)->Append(MakeRecord(49, 70, 1));
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  fs::remove(path);
}

TEST(ColumnRelationTest, EmptyRelationRoundTrips) {
  const std::string path = TestPath("column_relation");
  auto writer = ColumnRelationWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  auto relation = ColumnRelation::Open(path);
  ASSERT_TRUE(relation.ok()) << relation.status().ToString();
  EXPECT_EQ((*relation)->row_count(), 0u);
  EXPECT_TRUE((*relation)->blocks().empty());
  fs::remove(path);
}

TEST(ColumnRelationTest, ReadBlockOutOfRangeFails) {
  const std::string path = TestPath("column_relation");
  auto writer = ColumnRelationWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(MakeRecord(1, 2, 3)).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  auto relation = ColumnRelation::Open(path);
  ASSERT_TRUE(relation.ok());
  auto reader = (*relation)->NewReader();
  ASSERT_TRUE(reader.ok());
  std::vector<ColumnRecord> rows;
  EXPECT_TRUE((*reader)->ReadBlock(1, &rows).IsOutOfRange());
  fs::remove(path);
}

/// Asserts `columns` hold start, end and salary of `rows`, row for row.
void ExpectColumnsOf(const ColumnBlockColumns& columns,
                     const std::vector<ColumnRecord>& rows) {
  ASSERT_EQ(columns.rows(), rows.size());
  ASSERT_EQ(columns.start().size(), rows.size());
  ASSERT_EQ(columns.end().size(), rows.size());
  ASSERT_EQ(columns.salary().size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(columns.start()[i], rows[i].start) << "row " << i;
    EXPECT_EQ(columns.end()[i], rows[i].end) << "row " << i;
    EXPECT_EQ(columns.salary()[i], rows[i].salary) << "row " << i;
  }
}

TEST(ColumnRelationTest, ReadColumnsMatchesReadBlockAcrossBlockSizes) {
  // One ColumnBlockColumns reads a file of 4,096-row blocks, then one of
  // 16-row blocks, then the first again: each read holds exactly its own
  // block's rows, whatever the buffers held before.
  const std::string big_path = TestPath("column_relation_big");
  const std::string small_path = TestPath("column_relation_small");
  WorkloadSpec spec;
  spec.num_tuples = 5000;
  spec.lifespan = 20000;
  spec.seed = 3;
  auto relation = GenerateEmployedRelation(spec);
  ASSERT_TRUE(relation.ok());
  auto big = WriteRelationToColumnFile(*relation, big_path);
  auto small = WriteRelationToColumnFile(*relation, small_path,
                                         /*rows_per_block=*/16);
  ASSERT_TRUE(big.ok()) << big.status().ToString();
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  ASSERT_EQ((*big)->blocks().size(), 2u);  // 4096 + 904

  ColumnBlockColumns columns;
  for (const ColumnRelation* column :
       {big->get(), small->get(), big->get()}) {
    auto reader = column->NewReader();
    ASSERT_TRUE(reader.ok());
    for (size_t b = 0; b < column->blocks().size(); ++b) {
      std::vector<ColumnRecord> rows;
      ASSERT_TRUE((*reader)->ReadBlock(b, &rows).ok());
      ASSERT_TRUE((*reader)->ReadColumns(b, &columns).ok()) << b;
      ExpectColumnsOf(columns, rows);
    }
    EXPECT_TRUE((*reader)->ReadColumns(column->blocks().size(), &columns)
                    .IsOutOfRange());
    EXPECT_EQ(columns.rows(), 0u);
  }
  fs::remove(big_path);
  fs::remove(small_path);
}

// --- corruption ------------------------------------------------------------

class ColumnRelationCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("column_relation_corrupt");
    auto writer = ColumnRelationWriter::Create(path_, /*rows_per_block=*/16);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE((*writer)->Append(MakeRecord(i, i + 10, i * 7)).ok());
    }
    ASSERT_TRUE((*writer)->Finish().ok());
    file_size_ = fs::file_size(path_);
  }

  void TearDown() override { fs::remove(path_); }

  void FlipByteAt(uint64_t offset) {
    std::FILE* f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }

  void ReadBytesAt(uint64_t offset, void* bytes, size_t n) {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    ASSERT_EQ(std::fread(bytes, 1, n, f), n);
    std::fclose(f);
  }

  void WriteBytesAt(uint64_t offset, const void* bytes, size_t n) {
    std::FILE* f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(bytes, 1, n, f), n);
    std::fclose(f);
  }

  /// Rewrites the first block's record count and forges its TCB1 CRC to
  /// match, so only the count checks can reject the block.
  void ForgeFirstBlockCount(uint32_t count) {
    const uint64_t block = kColumnHeaderSize;
    uint32_t payload_size;
    ReadBytesAt(block + 8, &payload_size, sizeof(payload_size));
    std::vector<char> payload(payload_size);
    ReadBytesAt(block + kTemporalBlockHeaderSize, payload.data(),
                payload.size());
    const uint32_t meta[2] = {count, payload_size};
    uint32_t crc = Crc32(0, payload.data(), payload.size());
    crc = Crc32(crc, meta, sizeof(meta));
    WriteBytesAt(block + 4, &count, sizeof(count));
    WriteBytesAt(block + 12, &crc, sizeof(crc));
  }

  /// Reads the last block into a fresh vector: the "caller's rows" a
  /// failed read of the first block must leave as they were.
  std::vector<ColumnRecord> RowsOfLastBlock(ColumnRelationReader* reader) {
    std::vector<ColumnRecord> rows;
    EXPECT_TRUE(reader->ReadBlock(3, &rows).ok());
    EXPECT_EQ(rows.size(), 16u);
    return rows;
  }

  /// Runs ReadBlock(0) over non-empty rows, expecting it to fail as
  /// Corruption, or as an injected IOError when `fault_site` is armed,
  /// and to leave the rows' size and bytes unchanged.
  void ExpectFailedReadLeavesRowsUntouched(const std::string& fault_site) {
    auto relation = ColumnRelation::Open(path_);
    ASSERT_TRUE(relation.ok()) << relation.status().ToString();
    auto reader = (*relation)->NewReader();
    ASSERT_TRUE(reader.ok());
    std::vector<ColumnRecord> rows = RowsOfLastBlock(reader->get());
    const std::vector<ColumnRecord> before = rows;
    testing::FaultInjector& injector = testing::FaultInjector::Global();
    if (!fault_site.empty()) injector.Arm(fault_site, 1);
    const Status status = (*reader)->ReadBlock(0, &rows);
    injector.Disarm();
    if (fault_site.empty()) {
      EXPECT_TRUE(status.IsCorruption()) << status.ToString();
    } else {
      EXPECT_TRUE(status.IsIOError()) << status.ToString();
    }
    ASSERT_EQ(rows.size(), before.size());
    EXPECT_EQ(std::memcmp(rows.data(), before.data(),
                          rows.size() * sizeof(ColumnRecord)),
              0);
  }

  std::string path_;
  uint64_t file_size_ = 0;
};

TEST_F(ColumnRelationCorruptionTest, BitFlipInBlockFailsReadAsCorruption) {
  // Flip a byte inside the first block's payload: Open (which only reads
  // header/footer/trailer) still succeeds, but decoding the block must
  // fail the TCB1 CRC.
  FlipByteAt(kColumnHeaderSize + kTemporalBlockHeaderSize + 3);
  auto relation = ColumnRelation::Open(path_);
  ASSERT_TRUE(relation.ok()) << relation.status().ToString();
  auto reader = (*relation)->NewReader();
  ASSERT_TRUE(reader.ok());
  std::vector<ColumnRecord> rows;
  const Status status = (*reader)->ReadBlock(0, &rows);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST_F(ColumnRelationCorruptionTest,
       ForgedBlockCountIsCorruptionNotAnAllocation) {
  // A count of 2^32 - 1 under a valid CRC: the payload cannot hold that
  // many records, and the footer says 16, so ReadBlock rejects the block
  // before `rows` grows for it.
  ForgeFirstBlockCount(0xFFFFFFFFu);
  auto relation = ColumnRelation::Open(path_);
  ASSERT_TRUE(relation.ok()) << relation.status().ToString();
  auto reader = (*relation)->NewReader();
  ASSERT_TRUE(reader.ok());
  std::vector<ColumnRecord> rows;
  const Status status = (*reader)->ReadBlock(0, &rows);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_TRUE(rows.empty());
  EXPECT_EQ(rows.capacity(), 0u) << "ReadBlock allocated for the count";
}

TEST_F(ColumnRelationCorruptionTest,
       FailedReadAfterBitFlipLeavesRowsUntouched) {
  FlipByteAt(kColumnHeaderSize + kTemporalBlockHeaderSize + 3);
  ExpectFailedReadLeavesRowsUntouched("");
}

TEST_F(ColumnRelationCorruptionTest,
       FailedReadOfForgedCountLeavesRowsUntouched) {
  ForgeFirstBlockCount(0xFFFFFFFFu);
  ExpectFailedReadLeavesRowsUntouched("");
}

TEST_F(ColumnRelationCorruptionTest, FailedReadAtReadSeamLeavesRowsUntouched) {
  ExpectFailedReadLeavesRowsUntouched("column_relation.read");
}

TEST_F(ColumnRelationCorruptionTest,
       FailedDecodeAtDecodeSeamLeavesRowsUntouched) {
  // The decode seam fires after ReadBlock has grown `rows` for the block,
  // so this is the case that proves the roll-back.
  ExpectFailedReadLeavesRowsUntouched("temporal_column.decode");
}

/// The fixture's file read through ReadColumns: block 3 (rows 48..63)
/// first, so a failed read of block 0 must empty a buffer that held rows.
class ColumnRelationReadColumnsTest : public ColumnRelationCorruptionTest {
 protected:
  /// Reads block 3, then block 0 with `fault_site` armed (none when
  /// empty), and returns block 0's status; a failed read must leave no
  /// rows, and the reader must read block 3 again afterwards.
  Status ReadFirstBlock(const std::string& fault_site) {
    auto relation = ColumnRelation::Open(path_);
    EXPECT_TRUE(relation.ok()) << relation.status().ToString();
    if (!relation.ok()) return relation.status();
    auto reader = (*relation)->NewReader();
    EXPECT_TRUE(reader.ok());
    ColumnBlockColumns columns;
    EXPECT_TRUE((*reader)->ReadColumns(3, &columns).ok());
    EXPECT_EQ(columns.rows(), 16u);
    testing::FaultInjector& injector = testing::FaultInjector::Global();
    if (!fault_site.empty()) injector.Arm(fault_site, 1);
    const Status status = (*reader)->ReadColumns(0, &columns);
    injector.Disarm();
    if (!status.ok()) {
      EXPECT_EQ(columns.rows(), 0u) << status.ToString();
    }
    EXPECT_TRUE((*reader)->ReadColumns(3, &columns).ok());
    EXPECT_EQ(columns.rows(), 16u);
    if (columns.rows() == 16u) {
      EXPECT_EQ(columns.start()[0], 48);
    }
    return status;
  }
};

TEST_F(ColumnRelationReadColumnsTest, BitFlipInBlockIsCorruption) {
  FlipByteAt(kColumnHeaderSize + kTemporalBlockHeaderSize + 3);
  const Status status = ReadFirstBlock("");
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST_F(ColumnRelationReadColumnsTest, BitFlipInNameColumnIsCorruption) {
  // The last payload byte of block 0 belongs to a name column, which
  // ReadColumns never parses; the CRC still rejects the block.
  uint32_t payload_size;
  ReadBytesAt(kColumnHeaderSize + 8, &payload_size, sizeof(payload_size));
  FlipByteAt(kColumnHeaderSize + kTemporalBlockHeaderSize + payload_size -
             1);
  const Status status = ReadFirstBlock("");
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST_F(ColumnRelationReadColumnsTest, ForgedCountIsCorruption) {
  // Under a valid CRC, both a count the payload cannot hold and one the
  // payload can but the footer disagrees with.
  for (uint32_t count : {0xFFFFFFFFu, 15u}) {
    ForgeFirstBlockCount(count);
    const Status status = ReadFirstBlock("");
    EXPECT_TRUE(status.IsCorruption()) << count << ": " << status.ToString();
  }
}

TEST_F(ColumnRelationReadColumnsTest, FailsAtTheReadSeam) {
  const Status status = ReadFirstBlock("column_relation.read");
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
}

TEST_F(ColumnRelationReadColumnsTest, FailsAtTheDecodeSeam) {
  const Status status = ReadFirstBlock("temporal_column.decode");
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
}

TEST_F(ColumnRelationReadColumnsTest,
       MalformedNameColumnUnderValidCrcReadsColumnsButFailsReadBlock) {
  // Forge block 0 so its first name column is malformed (control byte
  // 0x10: a leading window with no meaningful bytes) and re-seal its CRC.
  // ReadColumns never parses the names, so it returns the right start,
  // end and salary; ReadBlock decodes every column and reports
  // Corruption.  The scan reads only the first three, so it gets the same
  // rows from this file as from the intact one.
  std::vector<ColumnRecord> want;
  for (int i = 0; i < 16; ++i) want.push_back(MakeRecord(i, i + 10, i * 7));
  std::string three;
  {
    std::vector<int64_t> aos;
    for (const ColumnRecord& r : want) {
      aos.insert(aos.end(), {r.start, r.end, r.salary});
    }
    using Field = TemporalColumnLayout::Field;
    const TemporalColumnLayout layout{
        {Field::kTime, Field::kTime, Field::kInt}};
    ASSERT_TRUE(
        EncodeTemporalBlock(layout, aos.data(), want.size(), &three).ok());
  }
  const uint64_t block = kColumnHeaderSize;
  const char malformed = 0x10;
  WriteBytesAt(block + three.size(), &malformed, 1);
  ForgeFirstBlockCount(16);  // re-seals the CRC over the edited payload

  auto relation = ColumnRelation::Open(path_);
  ASSERT_TRUE(relation.ok()) << relation.status().ToString();
  auto reader = (*relation)->NewReader();
  ASSERT_TRUE(reader.ok());
  ColumnBlockColumns columns;
  const Status read = (*reader)->ReadColumns(0, &columns);
  ASSERT_TRUE(read.ok()) << read.ToString();
  ExpectColumnsOf(columns, want);
  std::vector<ColumnRecord> rows;
  const Status whole = (*reader)->ReadBlock(0, &rows);
  EXPECT_TRUE(whole.IsCorruption()) << whole.ToString();
  EXPECT_TRUE(rows.empty());
}

TEST_F(ColumnRelationCorruptionTest, BitFlipInFooterFailsOpen) {
  // The footer sits between the blocks and the 32-byte trailer; its CRC
  // lives in the trailer, so any footer flip must fail Open.
  const uint64_t footer_offset =
      file_size_ - kColumnTrailerSize - kColumnBlockInfoSize * 4 + 11;
  FlipByteAt(footer_offset);
  const Status status = ColumnRelation::Open(path_).status();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST_F(ColumnRelationCorruptionTest, BitFlipInTrailerFailsOpen) {
  FlipByteAt(file_size_ - 5);
  EXPECT_FALSE(ColumnRelation::Open(path_).ok());
}

TEST_F(ColumnRelationCorruptionTest, BadHeaderMagicFailsOpen) {
  FlipByteAt(0);
  const Status status = ColumnRelation::Open(path_).status();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST_F(ColumnRelationCorruptionTest, TruncationFailsOpen) {
  fs::resize_file(path_, file_size_ - 9);
  EXPECT_FALSE(ColumnRelation::Open(path_).ok());
}

TEST_F(ColumnRelationCorruptionTest, TruncationToNothingFailsOpen) {
  fs::resize_file(path_, 7);
  EXPECT_FALSE(ColumnRelation::Open(path_).ok());
}

// --- the TCR1 record codec: PackColumnRecord / UnpackColumnRecord ------

Tuple Emp(const std::string& name, int64_t salary, Instant s, Instant e) {
  return Tuple({Value::String(name), Value::Int(salary)}, Period(s, e));
}

Tuple PackUnpack(const Tuple& in) {
  ColumnRecord record;
  EXPECT_TRUE(PackColumnRecord(in, &record).ok());
  auto out = UnpackColumnRecord(record);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? std::move(out).value() : Tuple();
}

TEST(RecordCodecTest, RoundTrip) {
  const Tuple in = Emp("Richard", 40000, 18, kForever);
  EXPECT_EQ(PackUnpack(in), in);

  // The name words hold the length byte, the name bytes, then zeros.
  ColumnRecord record;
  ASSERT_TRUE(PackColumnRecord(Emp("ab", 7, 1, 2), &record).ok());
  EXPECT_EQ(record.name0, 0x62'61'02ull);
  EXPECT_EQ(record.name1, 0u);
}

TEST(RecordCodecTest, EmptyNameRoundTrips) {
  const Tuple in = Emp("", 0, 0, 0);
  EXPECT_EQ(PackUnpack(in), in);

  ColumnRecord record;
  ASSERT_TRUE(PackColumnRecord(in, &record).ok());
  EXPECT_EQ(record.name0, 0u);
  EXPECT_EQ(record.name1, 0u);
}

TEST(RecordCodecTest, MaxLengthNameRoundTrips) {
  const std::string longest(kMaxNameLength, 'x');
  const Tuple in = Emp(longest, -1, 2, 3);
  EXPECT_EQ(PackUnpack(in), in);

  ColumnRecord record;
  ASSERT_TRUE(PackColumnRecord(in, &record).ok());
  EXPECT_EQ(record.name0, 0x78787878'7878780Full);
  EXPECT_EQ(record.name1, 0x78787878'78787878ull);
}

TEST(RecordCodecTest, OverlongNameRejected) {
  ColumnRecord record;
  EXPECT_TRUE(
      PackColumnRecord(Emp(std::string(kMaxNameLength + 1, 'x'), 1, 2, 3),
                       &record)
          .IsInvalidArgument());
  // 257 bytes: a length that would wrap to 1 in the length byte.
  EXPECT_TRUE(PackColumnRecord(Emp(std::string(257, 'x'), 1, 2, 3), &record)
                  .IsInvalidArgument());
}

TEST(RecordCodecTest, WrongShapeRejected) {
  ColumnRecord record;
  // Wrong arity and wrong attribute types.
  EXPECT_TRUE(PackColumnRecord(Tuple({Value::Int(1)}, Period(0, 1)), &record)
                  .IsInvalidArgument());
  EXPECT_TRUE(PackColumnRecord(
                  Tuple({Value::Int(1), Value::Int(2)}, Period(0, 1)), &record)
                  .IsInvalidArgument());
}

TEST(RecordCodecTest, CorruptNameLengthDetected) {
  ColumnRecord record;
  ASSERT_TRUE(PackColumnRecord(Emp("a", 1, 2, 3), &record).ok());
  record.name0 = (record.name0 & ~0xFFull) | 127;  // length > kMaxNameLength
  EXPECT_TRUE(UnpackColumnRecord(record).status().IsCorruption());
}

TEST(RecordCodecTest, CorruptPeriodDetected) {
  ColumnRecord record;
  ASSERT_TRUE(PackColumnRecord(Emp("a", 1, 20, 30), &record).ok());

  ColumnRecord swapped = record;  // start > end
  std::swap(swapped.start, swapped.end);
  EXPECT_TRUE(UnpackColumnRecord(swapped).status().IsCorruption());

  ColumnRecord before_origin = record;
  before_origin.start = kOrigin - 1;
  EXPECT_TRUE(UnpackColumnRecord(before_origin).status().IsCorruption());
}

TEST(ColumnRelationConversionTest, PackRejectsNullsAndLongNames) {
  ColumnRecord record;
  const Tuple null_tuple({Value::Null(), Value::Int(5)}, Period(1, 2));
  EXPECT_TRUE(PackColumnRecord(null_tuple, &record).IsInvalidArgument());

  const Tuple long_name(
      {Value::String("sixteen-chars-xx"), Value::Int(5)}, Period(1, 2));
  EXPECT_TRUE(PackColumnRecord(long_name, &record).IsInvalidArgument());
}

// --- CSV -> TCR1 -> Relation ---------------------------------------------

TEST(ColumnRelationConversionTest, CsvToColumnarToRelationRoundTrips) {
  const std::string csv_path = TestPath("convert_csv");
  const std::string column_path = TestPath("convert_column");
  // Unsorted starts, names of 1..15 bytes (an empty CSV field reads back
  // as NULL), negative salaries.
  Relation original(EmployedSchema(), "employed");
  for (size_t i = 0; i < 100; ++i) {
    const Instant start = static_cast<Instant>((i * 131) % 997);
    original.AppendUnchecked(
        Emp(std::string(1 + i % kMaxNameLength,
                        static_cast<char>('a' + i % 26)),
            static_cast<int64_t>(i) * 1000 - 25000, start,
            i % 9 == 0 ? kForever : start + static_cast<Instant>(i % 300)));
  }
  ASSERT_TRUE(SaveCsvRelation(original, csv_path).ok());

  auto csv = LoadCsvRelation(csv_path, "employed");
  ASSERT_TRUE(csv.ok()) << csv.status().ToString();
  auto column = WriteRelationToColumnFile(*csv, column_path,
                                          /*rows_per_block=*/7);
  ASSERT_TRUE(column.ok()) << column.status().ToString();
  EXPECT_EQ((*column)->row_count(), original.size());

  auto loaded = LoadRelationFromColumnFile(**column, "employed");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // The column file stores a time-sorted copy; compare tuples and their
  // packed records (the strongest equality the format offers).
  Relation sorted = original;
  sorted.SortByTime();
  ASSERT_EQ(loaded->size(), sorted.size());
  ColumnRecord expect;
  ColumnRecord actual;
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(loaded->tuple(i), sorted.tuple(i)) << "row " << i;
    ASSERT_TRUE(PackColumnRecord(sorted.tuple(i), &expect).ok());
    ASSERT_TRUE(PackColumnRecord(loaded->tuple(i), &actual).ok());
    EXPECT_EQ(0, std::memcmp(&expect, &actual, sizeof(ColumnRecord)))
        << "row " << i;
  }
  fs::remove(csv_path);
  fs::remove(column_path);
}

// --- format pin ------------------------------------------------------------

/// 2^14 generated tuples plus rows with 0- and 15-byte names, extreme
/// salaries, and periods touching kOrigin and kForever.
Relation GoldenRelation() {
  WorkloadSpec spec;
  spec.num_tuples = size_t{1} << 14;
  spec.long_lived_fraction = 0.4;
  spec.seed = 1995;
  Relation relation = GenerateEmployedRelation(spec).value();
  relation.AppendUnchecked(Emp("", 0, kOrigin, kOrigin));
  relation.AppendUnchecked(Emp("fifteen-bytes-x", -7, kOrigin, kForever));
  relation.AppendUnchecked(
      Emp("", std::numeric_limits<int64_t>::max(), 500000, 500000));
  relation.AppendUnchecked(Emp("abcdefghijklmno",
                               std::numeric_limits<int64_t>::min(), 999999,
                               kForever));
  return relation;
}

TEST(ColumnRelationFormatTest, GoldenFileBytesArePinned) {
  // The size and CRC-32 of the whole file were recorded from the writer
  // when this test was added.  A mismatch means the TCR1 bytes changed:
  // that is a format change, and needs a new format version.
  constexpr size_t kGoldenSize = 229965;
  constexpr uint32_t kGoldenCrc = 0xD0DB3045;
  const std::string path = TestPath("golden");
  auto column = WriteRelationToColumnFile(GoldenRelation(), path);
  ASSERT_TRUE(column.ok()) << column.status().ToString();
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)), {});
  in.close();
  fs::remove(path);
  EXPECT_EQ(bytes.size(), kGoldenSize);
  EXPECT_EQ(Crc32(0, bytes.data(), bytes.size()), kGoldenCrc);
}

}  // namespace
}  // namespace tagg
