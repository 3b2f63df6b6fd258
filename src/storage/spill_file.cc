#include "storage/spill_file.h"

#include <cstring>

#include "obs/metrics.h"
#include "testing/fault_injector.h"

namespace tagg {

Result<std::unique_ptr<SpillFile>> SpillFile::Create(
    TemporalColumnLayout layout) {
  if (layout.empty()) {
    return Status::InvalidArgument("spill record layout must not be empty");
  }
  TAGG_INJECT_FAULT("spill_file.create");
  std::FILE* f = std::tmpfile();
  if (f == nullptr) {
    return Status::IOError("cannot create spill temp file");
  }
  obs::MetricsRegistry::Global()
      .GetCounter("tagg_spill_files_total", "Spill temp files created")
      .Increment();
  return std::unique_ptr<SpillFile>(new SpillFile(f, std::move(layout)));
}

SpillFile::~SpillFile() {
  if (file_ != nullptr) std::fclose(file_);
}

Status SpillFile::Append(const void* records, size_t n) {
  if (n == 0) return Status::OK();
  TAGG_INJECT_FAULT("spill_file.append");
  // Encode outside the lock so concurrent appenders only serialize on the
  // final fwrite; each batch is one self-contained block.
  std::string block;
  TAGG_RETURN_IF_ERROR(EncodeTemporalBlock(layout_, records, n, &block));
  std::lock_guard<std::mutex> lock(mutex_);
  if (std::fwrite(block.data(), 1, block.size(), file_) != block.size()) {
    return Status::IOError("cannot write spill block");
  }
  count_ += n;
  file_bytes_ += block.size();
  return Status::OK();
}

size_t SpillFile::record_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

uint64_t SpillFile::encoded_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return file_bytes_;
}

uint64_t SpillFile::raw_bytes() const {
  return static_cast<uint64_t>(record_count()) * record_size();
}

Status SpillFile::Reader::Fill() {
  TAGG_INJECT_FAULT("spill_file.read");
  // One compressed block per fill: header first (it carries the payload
  // size), then the payload, then decode into the record buffer.
  uint8_t header[kTemporalBlockHeaderSize];
  if (std::fread(header, 1, sizeof(header), file_.file_) != sizeof(header)) {
    return Status::Corruption("spill block: truncated header");
  }
  uint32_t payload_size;
  std::memcpy(&payload_size, header + 8, 4);
  block_.resize(kTemporalBlockHeaderSize + payload_size);
  std::memcpy(block_.data(), header, sizeof(header));
  if (payload_size > 0 &&
      std::fread(block_.data() + kTemporalBlockHeaderSize, 1, payload_size,
                 file_.file_) != payload_size) {
    return Status::Corruption("spill block: truncated payload");
  }
  buffer_.clear();
  TAGG_ASSIGN_OR_RETURN(
      size_t consumed,
      DecodeTemporalBlock(file_.layout_, block_.data(), block_.size(),
                          &buffer_));
  (void)consumed;
  const size_t decoded = buffer_.size() / file_.record_size();
  if (decoded > remaining_) {
    return Status::Corruption("spill block: more records than written");
  }
  remaining_ -= decoded;
  records_in_buffer_ = decoded;
  next_in_buffer_ = 0;
  return Status::OK();
}

Result<const void*> SpillFile::Reader::Next() {
  if (!primed_) {
    // Writers are quiescent by contract; snapshot the count and rewind.
    remaining_ = file_.record_count();
    if (std::fseek(file_.file_, 0, SEEK_SET) != 0) {
      return Status::IOError("cannot rewind spill file");
    }
    primed_ = true;
  }
  while (next_in_buffer_ == records_in_buffer_) {
    if (remaining_ == 0) return static_cast<const void*>(nullptr);
    TAGG_RETURN_IF_ERROR(Fill());
  }
  const char* rec = buffer_.data() + next_in_buffer_ * file_.record_size();
  ++next_in_buffer_;
  return static_cast<const void*>(rec);
}

}  // namespace tagg
