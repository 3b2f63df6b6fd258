// tagg_convert: offline conversion into the columnar stored-relation
// format (storage/column_relation, docs/COLUMNAR.md).
//
//   ./build/tools/tagg_convert --csv examples/data/employed.csv --out rel.tcr
//       --rows-per-block 8192 --verbose
//
// --csv and --out are required.  The CSV is loaded whole (the taggsql
// layout: name, salary, valid_start, valid_end).  The output file is
// time-sorted regardless of the input's order, carries a zone map and
// per-block monoid summaries in its footer, and loads back tuple for
// tuple (tools/CMakeLists.txt runs a conversion; the storage tests check
// the CSV -> TCR1 -> Relation round trip).
// Exit status: 0 on success, 1 on conversion errors, 2 on flag errors.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "storage/column_relation.h"
#include "storage/relation_io.h"
#include "temporal/csv.h"
#include "util/result.h"
#include "util/str.h"

namespace {

void PrintUsage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --csv PATH           input CSV relation, taggsql layout (required)\n"
      "  --out PATH           output column relation file (required)\n"
      "  --rows-per-block N   rows per compressed block (default %u)\n"
      "  --verbose            print a conversion summary\n",
      argv0, tagg::kDefaultColumnRowsPerBlock);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tagg;

  std::string csv_path;
  std::string out_path;
  int64_t rows_per_block = kDefaultColumnRowsPerBlock;
  bool verbose = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s wants a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--csv") {
      csv_path = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--rows-per-block") {
      Result<int64_t> rows = ParseInt(next(), 1, int64_t{1} << 24);
      if (!rows.ok()) {
        std::fprintf(stderr, "%s: %s\n", arg.c_str(),
                     std::string(rows.status().message()).c_str());
        return 2;
      }
      rows_per_block = *rows;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      PrintUsage(argv[0]);
      return 2;
    }
  }

  if (out_path.empty()) {
    std::fprintf(stderr, "--out is required\n");
    PrintUsage(argv[0]);
    return 2;
  }
  if (csv_path.empty()) {
    std::fprintf(stderr, "--csv is required\n");
    PrintUsage(argv[0]);
    return 2;
  }

  auto relation = LoadCsvRelation(csv_path, "converted");
  if (!relation.ok()) {
    std::fprintf(stderr, "load %s: %s\n", csv_path.c_str(),
                 relation.status().ToString().c_str());
    return 1;
  }
  auto converted = WriteRelationToColumnFile(
      *relation, out_path, static_cast<uint32_t>(rows_per_block));
  if (!converted.ok()) {
    std::fprintf(stderr, "convert: %s\n",
                 converted.status().ToString().c_str());
    return 1;
  }

  if (verbose) {
    const ColumnRelation& rel = **converted;
    std::fprintf(stdout,
                 "%s: %llu row(s) in %zu block(s) (%u rows/block), "
                 "%llu encoded byte(s), %llu file byte(s)\n",
                 out_path.c_str(),
                 static_cast<unsigned long long>(rel.row_count()),
                 rel.blocks().size(), rel.rows_per_block(),
                 static_cast<unsigned long long>(rel.encoded_bytes()),
                 static_cast<unsigned long long>(rel.file_bytes()));
  }
  return 0;
}
