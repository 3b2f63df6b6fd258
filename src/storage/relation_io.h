// Bridging in-memory relations and columnar relation files.
//
// Employed-schema relations (the paper's test relation: name, salary,
// valid time) are stored as TCR1 column files (storage/column_relation):
// time-sorted compressed blocks with zone maps and per-block summaries,
// the format behind the pruned scan path.  Storing sorts a copy of the
// relation by time, which is the paper's §6.3 preparation: "first sort
// the underlying relation, then apply the k-ordered aggregation tree
// algorithm with k = 1".

#pragma once

#include <memory>
#include <string>

#include "storage/column_relation.h"
#include "temporal/relation.h"
#include "util/result.h"

namespace tagg {

/// Writes an Employed-schema relation into a new column relation file at
/// `path` (a time-sorted copy is stored; the input relation's order is
/// irrelevant) and reopens it through the validated footer path.  CSV
/// import is LoadCsvRelation -> WriteRelationToColumnFile.
Result<std::shared_ptr<const ColumnRelation>> WriteRelationToColumnFile(
    const Relation& relation, const std::string& path,
    uint32_t rows_per_block = kDefaultColumnRowsPerBlock);

/// Loads a column relation file back into memory, in the file's
/// time-sorted row order.
Result<Relation> LoadRelationFromColumnFile(const ColumnRelation& relation,
                                            std::string relation_name);

}  // namespace tagg
