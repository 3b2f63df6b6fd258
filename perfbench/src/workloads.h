// Entry points of the three workloads.  Each fills `report` and returns
// the process exit code (nonzero on a wrong answer or a setup failure).

#pragma once

#include "bench.h"

namespace perfbench {

/// serve-point (range = false) and serve-range (range = true).
int RunServe(const RunOptions& opt, bool range, Report& report);

/// batch-stored.
int RunBatch(const RunOptions& opt, Report& report);

}  // namespace perfbench
