#include "storage/external_sort.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "testing/fault_injector.h"

namespace tagg {

PodRunSorter::PodRunSorter(TemporalColumnLayout layout, Less less,
                           size_t memory_budget_records)
    : layout_(std::move(layout)),
      record_size_(layout_.record_size()),
      less_(std::move(less)),
      budget_(std::max<size_t>(memory_budget_records, 2)) {
  buffer_.reserve(std::min<size_t>(budget_, 64 * 1024) * record_size_);
}

void PodRunSorter::SortBuffer(std::vector<const char*>& order) const {
  order.resize(buffered_);
  for (size_t i = 0; i < buffered_; ++i) {
    order[i] = buffer_.data() + i * record_size_;
  }
  std::sort(order.begin(), order.end(),
            [this](const char* a, const char* b) { return less_(a, b); });
}

Status PodRunSorter::FlushRun() {
  TAGG_INJECT_FAULT("external_sort.run");
  std::vector<const char*> order;
  SortBuffer(order);
  TAGG_ASSIGN_OR_RETURN(std::unique_ptr<SpillFile> run,
                        SpillFile::Create(layout_));
  // Appends go out in contiguous chunks: every chunk is one compressed
  // block, and 1-record blocks would defeat the delta encoding.
  std::vector<char> chunk;
  chunk.reserve(SpillFile::kDefaultChunkRecords * record_size_);
  for (const char* rec : order) {
    chunk.insert(chunk.end(), rec, rec + record_size_);
    if (chunk.size() == SpillFile::kDefaultChunkRecords * record_size_) {
      TAGG_RETURN_IF_ERROR(
          run->Append(chunk.data(), chunk.size() / record_size_));
      chunk.clear();
    }
  }
  if (!chunk.empty()) {
    TAGG_RETURN_IF_ERROR(
        run->Append(chunk.data(), chunk.size() / record_size_));
  }
  run_raw_bytes_ += run->raw_bytes();
  run_encoded_bytes_ += run->encoded_bytes();
  runs_.push_back(std::move(run));
  ++runs_generated_;
  buffered_ = 0;
  buffer_.clear();
  return Status::OK();
}

Status PodRunSorter::Add(const void* record) {
  buffer_.insert(buffer_.end(), static_cast<const char*>(record),
                 static_cast<const char*>(record) + record_size_);
  ++buffered_;
  peak_buffered_ = std::max(peak_buffered_, buffered_);
  if (buffered_ >= budget_) return FlushRun();
  return Status::OK();
}

Status PodRunSorter::Merge(const Emit& emit) {
  if (runs_.empty()) {
    // Everything fit in the budget: sort and emit straight from memory.
    std::vector<const char*> order;
    SortBuffer(order);
    for (const char* rec : order) {
      TAGG_RETURN_IF_ERROR(emit(rec));
    }
    buffered_ = 0;
    buffer_.clear();
    return Status::OK();
  }
  if (buffered_ > 0) TAGG_RETURN_IF_ERROR(FlushRun());

  struct Cursor {
    std::unique_ptr<SpillFile::Reader> reader;
    const void* head;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(runs_.size());
  for (std::unique_ptr<SpillFile>& run : runs_) {
    Cursor c;
    c.reader = std::make_unique<SpillFile::Reader>(*run);
    TAGG_ASSIGN_OR_RETURN(c.head, c.reader->Next());
    if (c.head != nullptr) cursors.push_back(std::move(c));
  }

  auto heap_greater = [&](size_t a, size_t b) {
    return less_(cursors[b].head, cursors[a].head);
  };
  std::vector<size_t> heap(cursors.size());
  for (size_t i = 0; i < heap.size(); ++i) heap[i] = i;
  std::make_heap(heap.begin(), heap.end(), heap_greater);

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), heap_greater);
    const size_t idx = heap.back();
    heap.pop_back();
    TAGG_RETURN_IF_ERROR(emit(cursors[idx].head));
    TAGG_ASSIGN_OR_RETURN(cursors[idx].head, cursors[idx].reader->Next());
    if (cursors[idx].head != nullptr) {
      heap.push_back(idx);
      std::push_heap(heap.begin(), heap.end(), heap_greater);
    }
  }
  runs_.clear();
  return Status::OK();
}

}  // namespace tagg
