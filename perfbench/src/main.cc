// perfbench_runner: runs one workload in this process and prints the
// result line.
//
//   perfbench_runner --workload serve-point|serve-range|batch-stored
//                    --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Normally started by perfbench/run.py, which builds it first.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "util/logging.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload "
               "serve-point|serve-range|batch-stored --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n");
  return 2;
}

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  if (argc % 2 == 0) return Usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    uint64_t v = 0;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed" && ParseU64(value, &v)) {
      opt.seed = v;
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (flag == "--trace" && ParseU64(value, &v) && v <= 1) {
      opt.trace = v == 1;
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else {
      return Usage();
    }
  }
  // The serving workloads report medians over 1 s slices.
  if (opt.seconds < 1) return Usage();
  tagg::SetLogLevel(tagg::LogLevel::kWarn);

  perfbench::Report report;
  int rc = 0;
  if (opt.workload == "serve-point") {
    rc = perfbench::RunServe(opt, /*range=*/false, report);
  } else if (opt.workload == "serve-range") {
    rc = perfbench::RunServe(opt, /*range=*/true, report);
  } else if (opt.workload == "batch-stored") {
    rc = perfbench::RunBatch(opt, report);
  } else {
    return Usage();
  }
  report.Print();
  return rc;
}
