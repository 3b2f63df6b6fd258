#include "storage/column_relation.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "testing/fault_injector.h"
#include "util/str.h"

namespace tagg {
namespace {

constexpr uint32_t kHeaderMagic = 0x31524354;   // "TCR1"
constexpr uint32_t kTrailerMagic = 0x46524354;  // "TCRF"
constexpr uint32_t kFormatVersion = 1;

Status Errno(const std::string& what, const std::string& path) {
  return Status::IOError(what + " '" + path +
                         "': " + std::strerror(errno));
}

void PutU32(char* base, size_t offset, uint32_t v) {
  std::memcpy(base + offset, &v, sizeof(v));
}

void PutU64(char* base, size_t offset, uint64_t v) {
  std::memcpy(base + offset, &v, sizeof(v));
}

uint32_t GetU32(const char* base, size_t offset) {
  uint32_t v;
  std::memcpy(&v, base + offset, sizeof(v));
  return v;
}

uint64_t GetU64(const char* base, size_t offset) {
  uint64_t v;
  std::memcpy(&v, base + offset, sizeof(v));
  return v;
}

Status BlockDisagrees(size_t index, const std::string& path) {
  return Status::Corruption(StringPrintf(
      "block %zu of '%s' disagrees with its footer entry", index,
      path.c_str()));
}

/// ColumnRecordLayout(), built once for the readers' per-block calls.
const TemporalColumnLayout& RecordLayout() {
  static const TemporalColumnLayout layout = ColumnRecordLayout();
  return layout;
}

}  // namespace

TemporalColumnLayout ColumnRecordLayout() {
  using Field = TemporalColumnLayout::Field;
  return {{Field::kTime, Field::kTime, Field::kInt, Field::kDouble,
           Field::kDouble}};
}

Status PackColumnRecord(const Tuple& tuple, ColumnRecord* out) {
  if (tuple.arity() != 2) {
    return Status::InvalidArgument(
        "employed record expects 2 attributes (name, salary), got " +
        std::to_string(tuple.arity()));
  }
  const Value& name = tuple.value(0);
  const Value& salary = tuple.value(1);
  if (name.type() != ValueType::kString ||
      salary.type() != ValueType::kInt) {
    return Status::InvalidArgument(
        "employed record expects (string name, int salary), got (" +
        std::string(ValueTypeToString(name.type())) + ", " +
        std::string(ValueTypeToString(salary.type())) + ")");
  }
  const std::string& s = name.AsString();
  if (s.size() > kMaxNameLength) {
    return Status::InvalidArgument("name '" + s + "' exceeds " +
                                   std::to_string(kMaxNameLength) +
                                   " bytes");
  }
  char words[16] = {};
  words[0] = static_cast<char>(s.size());
  std::memcpy(words + 1, s.data(), s.size());
  std::memcpy(&out->name0, words, 8);
  std::memcpy(&out->name1, words + 8, 8);
  out->salary = salary.AsInt();
  out->start = tuple.start();
  out->end = tuple.end();
  return Status::OK();
}

Result<Tuple> UnpackColumnRecord(const ColumnRecord& record) {
  char words[16];
  std::memcpy(words, &record.name0, 8);
  std::memcpy(words + 8, &record.name1, 8);
  const auto name_len =
      static_cast<size_t>(static_cast<unsigned char>(words[0]));
  if (name_len > kMaxNameLength) {
    return Status::Corruption("record name length " +
                              std::to_string(name_len) + " out of range");
  }
  if (record.start > record.end || record.start < kOrigin ||
      record.end > kForever) {
    return Status::Corruption("record carries invalid period [" +
                              std::to_string(record.start) + ", " +
                              std::to_string(record.end) + "]");
  }
  return Tuple({Value::String(std::string(words + 1, name_len)),
                Value::Int(record.salary)},
               Period(record.start, record.end));
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

ColumnRelationWriter::ColumnRelationWriter(std::string path, std::FILE* file,
                                           uint32_t rows_per_block)
    : path_(std::move(path)), file_(file), rows_per_block_(rows_per_block) {
  pending_.reserve(rows_per_block_);
}

ColumnRelationWriter::~ColumnRelationWriter() {
  if (file_ != nullptr) std::fclose(file_);  // abandoned without Finish()
}

Result<std::unique_ptr<ColumnRelationWriter>> ColumnRelationWriter::Create(
    const std::string& path, uint32_t rows_per_block) {
  if (rows_per_block == 0) {
    return Status::InvalidArgument("rows_per_block must be >= 1");
  }
  TAGG_INJECT_FAULT("column_relation.create");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Errno("cannot create column relation", path);
  auto writer = std::unique_ptr<ColumnRelationWriter>(
      new ColumnRelationWriter(path, f, rows_per_block));
  char header[kColumnHeaderSize];
  std::memset(header, 0, sizeof(header));
  PutU32(header, 0, kHeaderMagic);
  PutU32(header, 4, kFormatVersion);
  PutU32(header, 8, rows_per_block);
  if (std::fwrite(header, 1, sizeof(header), f) != sizeof(header)) {
    return Errno("cannot write header of", path);
  }
  return writer;
}

Status ColumnRelationWriter::Append(const ColumnRecord& record) {
  if (finished_ || file_ == nullptr) {
    return Status::IOError("column relation writer is closed");
  }
  if (record.start > record.end || record.start < kOrigin ||
      record.end > kForever) {
    return Status::InvalidArgument(
        "column record carries invalid period [" +
        std::to_string(record.start) + ", " + std::to_string(record.end) +
        "]");
  }
  if (have_rows_ && record.start < last_start_) {
    return Status::InvalidArgument(
        "column relation rows must be appended in nondecreasing start "
        "order (got " +
        std::to_string(record.start) + " after " +
        std::to_string(last_start_) + "); sort the relation by time first");
  }
  last_start_ = record.start;
  have_rows_ = true;
  pending_.push_back(record);
  ++row_count_;
  if (pending_.size() >= rows_per_block_) {
    TAGG_RETURN_IF_ERROR(FlushBlock());
  }
  return Status::OK();
}

Status ColumnRelationWriter::FlushBlock() {
  if (pending_.empty()) return Status::OK();
  TAGG_INJECT_FAULT("column_relation.append");
  ColumnBlockInfo info;
  info.offset = next_offset_;
  info.rows = pending_.size();
  info.min_start = pending_.front().start;  // rows are start-sorted
  info.max_start = pending_.back().start;
  info.min_end = pending_.front().end;
  info.max_end = pending_.front().end;
  const double v0 = static_cast<double>(pending_.front().salary);
  info.sum = 0.0;
  info.min_value = v0;
  info.max_value = v0;
  for (const ColumnRecord& r : pending_) {
    info.min_end = std::min(info.min_end, r.end);
    info.max_end = std::max(info.max_end, r.end);
    const double v = static_cast<double>(r.salary);
    info.sum += v;
    info.min_value = std::min(info.min_value, v);
    info.max_value = std::max(info.max_value, v);
  }
  std::string block;
  TAGG_RETURN_IF_ERROR(EncodeTemporalBlock(ColumnRecordLayout(),
                                           pending_.data(), pending_.size(),
                                           &block));
  if (std::fwrite(block.data(), 1, block.size(), file_) != block.size()) {
    return Errno("cannot write block to", path_);
  }
  info.encoded_bytes = block.size();
  next_offset_ += block.size();
  encoded_bytes_ += block.size();
  blocks_.push_back(info);
  pending_.clear();
  return Status::OK();
}

Status ColumnRelationWriter::Finish() {
  if (finished_ || file_ == nullptr) {
    return Status::IOError("column relation writer is closed");
  }
  TAGG_RETURN_IF_ERROR(FlushBlock());
  TAGG_INJECT_FAULT("column_relation.footer");
  std::string footer;
  footer.resize(blocks_.size() * kColumnBlockInfoSize);
  for (size_t i = 0; i < blocks_.size(); ++i) {
    std::memcpy(footer.data() + i * kColumnBlockInfoSize, &blocks_[i],
                kColumnBlockInfoSize);
  }
  if (!footer.empty() &&
      std::fwrite(footer.data(), 1, footer.size(), file_) != footer.size()) {
    return Errno("cannot write footer to", path_);
  }
  char trailer[kColumnTrailerSize];
  std::memset(trailer, 0, sizeof(trailer));
  PutU32(trailer, 0, kTrailerMagic);
  PutU32(trailer, 4, kFormatVersion);
  PutU64(trailer, 8, blocks_.size());
  PutU64(trailer, 16, row_count_);
  PutU32(trailer, 24, Crc32(0, footer.data(), footer.size()));
  if (std::fwrite(trailer, 1, sizeof(trailer), file_) != sizeof(trailer)) {
    return Errno("cannot write trailer to", path_);
  }
  if (std::fflush(file_) != 0) return Errno("cannot flush", path_);
  finished_ = true;
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) return Errno("cannot close", path_);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Open + footer validation
// ---------------------------------------------------------------------------

Result<std::shared_ptr<const ColumnRelation>> ColumnRelation::Open(
    const std::string& path) {
  TAGG_INJECT_FAULT("column_relation.create");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Errno("cannot open column relation", path);
  // The handle is only needed for validation; readers open their own.
  struct Closer {
    std::FILE* f;
    ~Closer() { std::fclose(f); }
  } closer{f};

  if (std::fseek(f, 0, SEEK_END) != 0) return Errno("cannot seek", path);
  const long size_long = std::ftell(f);
  if (size_long < 0) return Errno("cannot tell size of", path);
  const uint64_t size = static_cast<uint64_t>(size_long);
  if (size < kColumnHeaderSize + kColumnTrailerSize) {
    return Status::Corruption("column relation '" + path +
                              "' is shorter than header + trailer");
  }

  char header[kColumnHeaderSize];
  if (std::fseek(f, 0, SEEK_SET) != 0 ||
      std::fread(header, 1, sizeof(header), f) != sizeof(header)) {
    return Status::Corruption("column relation '" + path +
                              "' is missing its header");
  }
  if (GetU32(header, 0) != kHeaderMagic) {
    return Status::Corruption("column relation '" + path +
                              "' has bad magic");
  }
  if (GetU32(header, 4) != kFormatVersion) {
    return Status::NotSupported(StringPrintf(
        "column relation format version %u (supported: %u)",
        GetU32(header, 4), kFormatVersion));
  }
  const uint32_t rows_per_block = GetU32(header, 8);
  if (rows_per_block == 0) {
    return Status::Corruption("column relation '" + path +
                              "' declares 0 rows per block");
  }

  char trailer[kColumnTrailerSize];
  if (std::fseek(f, static_cast<long>(size - kColumnTrailerSize),
                 SEEK_SET) != 0 ||
      std::fread(trailer, 1, sizeof(trailer), f) != sizeof(trailer)) {
    return Status::Corruption("column relation '" + path +
                              "' is missing its trailer");
  }
  if (GetU32(trailer, 0) != kTrailerMagic ||
      GetU32(trailer, 4) != kFormatVersion) {
    return Status::Corruption("column relation '" + path +
                              "' has a corrupt trailer");
  }
  const uint64_t block_count = GetU64(trailer, 8);
  const uint64_t row_count = GetU64(trailer, 16);
  const uint32_t footer_crc = GetU32(trailer, 24);
  const uint64_t footer_bytes = block_count * kColumnBlockInfoSize;
  if (footer_bytes + kColumnTrailerSize + kColumnHeaderSize > size) {
    return Status::Corruption("column relation '" + path +
                              "' declares a footer larger than the file");
  }
  const uint64_t footer_offset = size - kColumnTrailerSize - footer_bytes;

  TAGG_INJECT_FAULT("column_relation.footer");
  std::vector<char> footer(footer_bytes);
  if (!footer.empty() &&
      (std::fseek(f, static_cast<long>(footer_offset), SEEK_SET) != 0 ||
       std::fread(footer.data(), 1, footer.size(), f) != footer.size())) {
    return Status::Corruption("column relation '" + path +
                              "' has a truncated footer");
  }
  if (Crc32(0, footer.data(), footer.size()) != footer_crc) {
    return Status::Corruption("column relation '" + path +
                              "' failed the footer CRC check");
  }

  auto relation = std::shared_ptr<ColumnRelation>(new ColumnRelation());
  relation->path_ = path;
  relation->rows_per_block_ = rows_per_block;
  relation->row_count_ = row_count;
  relation->file_bytes_ = size;
  relation->blocks_.resize(block_count);
  uint64_t expected_offset = kColumnHeaderSize;
  uint64_t rows_seen = 0;
  Instant prev_max_start = kOrigin;
  for (size_t i = 0; i < block_count; ++i) {
    ColumnBlockInfo& b = relation->blocks_[i];
    std::memcpy(&b, footer.data() + i * kColumnBlockInfoSize,
                kColumnBlockInfoSize);
    if (b.offset != expected_offset || b.encoded_bytes == 0 ||
        b.offset + b.encoded_bytes > footer_offset) {
      return Status::Corruption(StringPrintf(
          "column relation '%s': block %zu geometry is inconsistent",
          path.c_str(), i));
    }
    if (b.rows == 0 || b.rows > rows_per_block ||
        b.min_start > b.max_start || b.min_end > b.max_end ||
        b.min_start < kOrigin || b.max_end > kForever ||
        (i > 0 && b.min_start < prev_max_start)) {
      return Status::Corruption(StringPrintf(
          "column relation '%s': block %zu zone map is inconsistent",
          path.c_str(), i));
    }
    expected_offset += b.encoded_bytes;
    rows_seen += b.rows;
    prev_max_start = b.max_start;
    relation->encoded_bytes_ += b.encoded_bytes;
  }
  if (expected_offset != footer_offset || rows_seen != row_count) {
    return Status::Corruption("column relation '" + path +
                              "': trailer totals disagree with the footer");
  }
  return std::shared_ptr<const ColumnRelation>(std::move(relation));
}

Result<std::unique_ptr<ColumnRelationReader>> ColumnRelation::NewReader()
    const {
  TAGG_INJECT_FAULT("column_relation.read");
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) return Errno("cannot open column relation", path_);
  return std::unique_ptr<ColumnRelationReader>(
      new ColumnRelationReader(shared_from_this(), f));
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

ColumnRelationReader::ColumnRelationReader(
    std::shared_ptr<const ColumnRelation> relation, std::FILE* file)
    : relation_(std::move(relation)), file_(file) {}

ColumnRelationReader::~ColumnRelationReader() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<size_t> ColumnRelationReader::ReadEncoded(size_t index,
                                                 std::vector<char>* encoded) {
  const std::vector<ColumnBlockInfo>& blocks = relation_->blocks();
  if (index >= blocks.size()) {
    return Status::OutOfRange(StringPrintf(
        "block %zu out of range (relation has %zu blocks)", index,
        blocks.size()));
  }
  TAGG_INJECT_FAULT("column_relation.read");
  const ColumnBlockInfo& info = blocks[index];
  encoded->resize(info.encoded_bytes);
  if (std::fseek(file_, static_cast<long>(info.offset), SEEK_SET) != 0) {
    return Errno("cannot seek", relation_->path());
  }
  if (std::fread(encoded->data(), 1, encoded->size(), file_) !=
      encoded->size()) {
    return Status::Corruption(StringPrintf(
        "short read of block %zu in '%s'", index,
        relation_->path().c_str()));
  }
  // The header's count must match the footer's before the caller grows
  // anything for it: the count is bounded by the payload, and the payload
  // by the file.
  TAGG_ASSIGN_OR_RETURN(const size_t count,
                        TemporalBlockRecordCount(RecordLayout(),
                                                 encoded->data(),
                                                 encoded->size()));
  if (count != info.rows) return BlockDisagrees(index, relation_->path());
  return count;
}

Status ColumnRelationReader::ReadBlock(size_t index,
                                       std::vector<ColumnRecord>* out) {
  TAGG_ASSIGN_OR_RETURN(const size_t count, ReadEncoded(index, &encoded_));
  const size_t old = out->size();
  out->resize(old + count);
  auto consumed = DecodeTemporalBlock(RecordLayout(), encoded_.data(),
                                     encoded_.size(), out->data() + old,
                                     count);
  if (!consumed.ok() || consumed.value() != encoded_.size()) {
    out->resize(old);
    return consumed.ok() ? BlockDisagrees(index, relation_->path())
                         : consumed.status();
  }
  return Status::OK();
}

Status ColumnRelationReader::ReadColumns(size_t index,
                                         ColumnBlockColumns* out) {
  out->rows_ = 0;
  TAGG_ASSIGN_OR_RETURN(const size_t count,
                        ReadEncoded(index, &out->encoded_));
  if (out->start_.size() < count) {
    out->start_.resize(count);
    out->end_.resize(count);
    out->salary_.resize(count);
  }
  const TemporalFieldOut fields[] = {{out->start_.data(), sizeof(Instant)},
                                     {out->end_.data(), sizeof(Instant)},
                                     {out->salary_.data(), sizeof(int64_t)}};
  auto consumed =
      DecodeTemporalBlock(RecordLayout(), out->encoded_.data(),
                          out->encoded_.size(), fields, count);
  if (!consumed.ok()) return consumed.status();
  if (consumed.value() != out->encoded_.size()) {
    return BlockDisagrees(index, relation_->path());
  }
  out->rows_ = count;
  return Status::OK();
}

}  // namespace tagg
