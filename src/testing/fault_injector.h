// FaultInjector: deterministic fault injection at the storage I/O seams.
//
// Production code cannot prove its error paths by running them — disks do
// not fail on demand.  This injector lets a test arm "fail the Nth
// operation matching <site>" and then drive a whole evaluation through it,
// asserting that the injected failure surfaces as a clean Status (no
// crash, no hang, no leaked temp files, no abandoned tree nodes).
//
// The injector is compiled into the storage layer unconditionally but is
// zero-cost while disarmed: every instrumented seam performs one relaxed
// atomic load and branches past the slow path.  Only tests ever arm it.
//
// Instrumented sites (substring-matched against the armed pattern):
//   spill_file.create        SpillFile::Create
//   spill_file.append        SpillFile::Append
//   spill_file.read          SpillFile::Reader::Fill
//   external_sort.run        PodRunSorter::FlushRun
//   temporal_column.encode   EncodeTemporalBlock (compressed spill write)
//   temporal_column.decode   DecodeTemporalBlock (spill replay, TCR1 reads)
//   column_relation.create   ColumnRelationWriter::Create / Open's fopen
//   column_relation.append   ColumnRelationWriter::FlushBlock
//   column_relation.footer   footer/trailer write in Finish, footer read
//                            in ColumnRelation::Open
//   column_relation.read     ColumnRelationReader::ReadBlock /
//                            ColumnRelation::NewReader
//
// Arming is process-global and not meant for concurrent arm/disarm; the
// instrumented seams themselves may be hit from any thread (the armed
// counter is advanced under a mutex).

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "util/status.h"

namespace tagg {
namespace testing {

class FaultInjector {
 public:
  /// The process-wide injector every instrumented seam consults.
  static FaultInjector& Global();

  /// Arms the injector: the `nth` (1-based) operation whose site name
  /// contains `site_pattern` fails with an IOError naming the site.
  /// Subsequent matching operations succeed again (single-shot fault),
  /// mirroring a transient device error.  Resets the hit/injected
  /// counters.
  void Arm(std::string site_pattern, uint64_t nth);

  /// Disarms; every seam returns to the zero-cost fast path.
  void Disarm();

  /// True while armed (relaxed; the fast-path gate).
  bool enabled() const { return armed_.load(std::memory_order_relaxed); }

  /// Operations that matched the armed pattern since Arm().
  uint64_t hits() const;

  /// Faults injected since Arm() (0 or 1 for a single-shot arm).
  uint64_t injected() const;

  /// Called by instrumented seams while armed; counts the hit and returns
  /// the injected error when this is the fated operation.
  Status Hit(std::string_view site);

 private:
  FaultInjector() = default;

  std::atomic<bool> armed_{false};
  mutable std::mutex mutex_;
  std::string pattern_;
  uint64_t nth_ = 0;
  uint64_t hits_ = 0;
  uint64_t injected_ = 0;
};

/// The seam hook: a single relaxed load while disarmed.
inline Status MaybeInjectFault(std::string_view site) {
  FaultInjector& injector = FaultInjector::Global();
  if (!injector.enabled()) return Status::OK();
  return injector.Hit(site);
}

}  // namespace testing
}  // namespace tagg

/// Propagates an injected fault out of an instrumented seam.
#define TAGG_INJECT_FAULT(site) \
  TAGG_RETURN_IF_ERROR(::tagg::testing::MaybeInjectFault(site))
