#include "storage/relation_io.h"

#include "util/logging.h"

namespace tagg {
namespace {

// The schema of a stored column record (mirrors core/workload.h's
// EmployedSchema; storage cannot depend on core).
Schema RecordSchema() {
  auto schema = Schema::Make(
      {{"name", ValueType::kString}, {"salary", ValueType::kInt}});
  TAGG_CHECK(schema.ok());
  return std::move(schema).value();
}

}  // namespace

Result<std::shared_ptr<const ColumnRelation>> WriteRelationToColumnFile(
    const Relation& relation, const std::string& path,
    uint32_t rows_per_block) {
  // The file format requires total time order; sort a copy so callers can
  // hand over relations in any order (the converter's common case).
  Relation sorted = relation;
  sorted.SortByTime();
  TAGG_ASSIGN_OR_RETURN(std::unique_ptr<ColumnRelationWriter> writer,
                        ColumnRelationWriter::Create(path, rows_per_block));
  ColumnRecord record;
  for (const Tuple& t : sorted) {
    TAGG_RETURN_IF_ERROR(PackColumnRecord(t, &record));
    TAGG_RETURN_IF_ERROR(writer->Append(record));
  }
  TAGG_RETURN_IF_ERROR(writer->Finish());
  return ColumnRelation::Open(path);
}

Result<Relation> LoadRelationFromColumnFile(const ColumnRelation& file,
                                            std::string relation_name) {
  Relation relation(RecordSchema(), std::move(relation_name));
  relation.Reserve(file.row_count());
  TAGG_ASSIGN_OR_RETURN(std::unique_ptr<ColumnRelationReader> reader,
                        file.NewReader());
  std::vector<ColumnRecord> rows;
  for (size_t b = 0; b < file.blocks().size(); ++b) {
    rows.clear();
    TAGG_RETURN_IF_ERROR(reader->ReadBlock(b, &rows));
    for (const ColumnRecord& r : rows) {
      TAGG_ASSIGN_OR_RETURN(Tuple t, UnpackColumnRecord(r));
      relation.AppendUnchecked(std::move(t));
    }
  }
  return relation;
}

}  // namespace tagg
